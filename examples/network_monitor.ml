(* Network monitoring with windowed queries — the paper's motivating
   "intrusion detection needs streaming + historical context" scenario
   (Section 1) and its windowed-query extension (Section 2.4).

     dune exec examples/network_monitor.exe

   A router archives one time step of flow records per period.  Each
   record is a source-destination pair packed into one integer, so a
   quantile over the keys is a point on the traffic-matrix distribution:
   if the live distribution's quartiles drift far from the historical
   ones, the popular host mix has shifted (e.g. a scan or a hijacked
   prefix).  Windowed queries compare "all history" against "recent
   window" without touching non-window partitions. *)

let flows_per_step = 30_000

let () =
  let config = Hsq.Config.make ~kappa:3 ~steps_hint:30 (Hsq.Config.Epsilon 0.01) in
  let engine = Hsq.Engine.create config in
  (* Windows are answered by a shard group; this one wraps the engine. *)
  let group = Hsq_shard.Shard_group.of_engine engine in
  let windows () = Hsq_shard.Shard_group.window_sizes group in
  (* Normal traffic for 26 steps... *)
  let normal_traffic = Hsq_workload.Datasets.network ~seed:42 in
  for _ = 1 to 26 do
    ignore (Hsq.Engine.ingest_batch engine (Hsq_workload.Datasets.next_batch normal_traffic flows_per_step))
  done;
  (* ...then an anomaly: a previously cold /24 becomes the top talker
     (simulated by biasing keys into a narrow high range). *)
  let rng = Hsq_util.Xoshiro.create 99 in
  for _ = 1 to 4 do
    let batch =
      Array.init flows_per_step (fun _ ->
          if Hsq_util.Xoshiro.float rng < 0.6 then
            (* hot /24: hosts 3840..3871 talking to anyone *)
            ((3840 + Hsq_util.Xoshiro.int rng 32) * 4096) + Hsq_util.Xoshiro.int rng 4096
          else
            let b = Hsq_workload.Datasets.next_batch normal_traffic 1 in
            b.(0))
    in
    ignore (Hsq.Engine.ingest_batch engine batch)
  done;
  (* Live stream: the anomaly continues. *)
  for _ = 1 to 10_000 do
    Hsq.Engine.observe engine
      (((3840 + Hsq_util.Xoshiro.int rng 32) * 4096) + Hsq_util.Xoshiro.int rng 4096)
  done;

  Printf.printf "archived %d steps (%d flows), %d live flows\n"
    (Hsq.Engine.time_steps engine) (Hsq.Engine.hist_size engine)
    (Hsq.Engine.stream_size engine);
  Printf.printf "answerable windows (steps): %s\n\n"
    (String.concat ", " (List.map string_of_int (windows ())));

  let describe label quartiles =
    Printf.printf "%-22s q1=%-10d median=%-10d q3=%-10d\n" label quartiles.(0) quartiles.(1)
      quartiles.(2)
  in
  let quartiles_all =
    Array.of_list
      (List.map (fun phi -> fst (Hsq.Engine.quantile engine phi)) [ 0.25; 0.5; 0.75 ])
  in
  describe "all history + live:" quartiles_all;

  (* Pick the smallest window >= 4 steps for the "recent" view. *)
  let window =
    match List.find_opt (fun w -> w >= 4) (windows ()) with
    | Some w -> w
    | None -> List.hd (List.rev (windows ()))
  in
  let n = Result.get_ok (Hsq_shard.Shard_group.window_total group ~window) in
  let quartiles_recent =
    Array.of_list
      (List.map
         (fun phi ->
           let rank = Hsq.Bisection.rank_of_phi ~who:"network_monitor" ~n phi in
           match Hsq_shard.Shard_group.accurate_window group ~window ~rank with
           | Ok (v, _) -> v
           | Error _ -> assert false)
         [ 0.25; 0.5; 0.75 ])
  in
  describe (Printf.sprintf "last %d steps + live:" window) quartiles_recent;

  (* A crude drift detector on the traffic-matrix quartiles. *)
  let drift =
    let rel a b = abs_float (float_of_int (a - b)) /. float_of_int (max 1 (abs b)) in
    (rel quartiles_recent.(1) quartiles_all.(1) +. rel quartiles_recent.(2) quartiles_all.(2))
    /. 2.0
  in
  Printf.printf "\nquartile drift (recent vs all-time): %.1f%%\n" (100.0 *. drift);
  if drift > 0.25 then
    print_endline "ALERT: recent traffic-matrix distribution diverges from history"
  else print_endline "traffic distribution stable"
