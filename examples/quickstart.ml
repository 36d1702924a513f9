(* Quickstart: the whole public API in ~40 lines.

     dune exec examples/quickstart.exe

   An engine archives a batch of data per "time step" (Algorithm 3),
   absorbs a live stream in between (Algorithm 4), and answers quantile
   queries over the union at any moment (Algorithms 5-8). *)

let () =
  (* epsilon = 0.01: quantile queries answered within 1% of the live
     stream's size in rank — NOT 1% of the whole dataset.  kappa = 10:
     at most 10 on-disk partitions per level. *)
  let config = Hsq.Config.make ~kappa:10 (Hsq.Config.Epsilon 0.01) in
  let engine = Hsq.Engine.create config in

  (* Archive 30 days of data, 50k measurements per day. *)
  let rng = Hsq_util.Xoshiro.create 2024 in
  for _day = 1 to 30 do
    for _ = 1 to 50_000 do
      Hsq.Engine.observe engine (100_000 + Hsq_util.Xoshiro.int rng 900_000)
    done;
    (* End of day: the batch is sorted into the warehouse and the
       stream summary resets. *)
    ignore (Hsq.Engine.end_time_step engine)
  done;

  (* Today's data is still streaming in. *)
  for _ = 1 to 20_000 do
    Hsq.Engine.observe engine (100_000 + Hsq_util.Xoshiro.int rng 900_000)
  done;

  Printf.printf "dataset: %d archived + %d streaming = %d total\n"
    (Hsq.Engine.hist_size engine)
    (Hsq.Engine.stream_size engine)
    (Hsq.Engine.total_size engine);
  Printf.printf "summary memory: %d words for %d elements (%.4f%%)\n\n"
    (Hsq.Engine.memory_words engine)
    (Hsq.Engine.total_size engine)
    (100.0
    *. float_of_int (Hsq.Engine.memory_words engine)
    /. float_of_int (Hsq.Engine.total_size engine));

  (* Accurate quantiles: a handful of disk reads, error <= eps * m. *)
  List.iter
    (fun phi ->
      let value, report = Hsq.Engine.quantile engine phi in
      Printf.printf "p%-4g = %-8d  (%d disk accesses)\n" (100.0 *. phi) value
        (Hsq_storage.Io_stats.total report.Hsq.Engine.io))
    [ 0.5; 0.95; 0.99 ];

  (* Quick quantiles: zero disk accesses, coarser answer.  A shard group
     answers them (here one wrapping the engine), and windows below. *)
  let group = Hsq_shard.Shard_group.of_engine engine in
  let n = Hsq_shard.Shard_group.total_size group in
  let quick_median =
    Hsq_shard.Shard_group.quick group ~rank:(Hsq.Bisection.rank_of_phi ~who:"quickstart" ~n 0.5)
  in
  Printf.printf "\nquick median (no disk I/O): %d\n" quick_median;

  (* Windowed query.  Only partition-aligned windows are answerable, so
     ask which ones exist and use the closest to a week. *)
  let windows = Hsq_shard.Shard_group.window_sizes group in
  Printf.printf "answerable windows (days): %s\n"
    (String.concat ", " (List.map string_of_int windows));
  let week = match List.find_opt (fun w -> w >= 7) windows with Some w -> w | None -> 1 in
  let n = Result.value (Hsq_shard.Shard_group.window_total group ~window:week) ~default:0 in
  match Hsq_shard.Shard_group.accurate_window group ~window:week ~rank:((n + 1) / 2) with
  | Ok (v, _) -> Printf.printf "median over the last %d days + today: %d\n" week v
  | Error (Hsq.Engine.Window_not_aligned ws) ->
    Printf.printf "window unavailable; try one of: %s\n"
      (String.concat ", " (List.map string_of_int ws))
