(* Integration tests: the full system driven over every evaluation
   dataset, mixed query workloads against the exact oracle, the
   file-backed device, and fault recovery. *)

module E = Hsq.Engine

let run_dataset ~name ~seed =
  let ds = Hsq_workload.Datasets.by_name ~seed name in
  let config = Hsq.Config.make ~kappa:4 ~block_size:64 (Hsq.Config.Epsilon 0.02) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  let steps = 10 and step_size = 2_000 in
  for _ = 1 to steps do
    let batch = Hsq_workload.Datasets.next_batch ds step_size in
    Hsq_workload.Oracle.add_batch oracle batch;
    ignore (E.ingest_batch eng batch)
  done;
  (* live tail of half a step *)
  let tail = Hsq_workload.Datasets.next_batch ds (step_size / 2) in
  Array.iter
    (fun v ->
      E.observe eng v;
      Hsq_workload.Oracle.add oracle v)
    tail;
  (eng, oracle)

let test_all_datasets_within_bounds () =
  List.iter
    (fun name ->
      let eng, oracle = run_dataset ~name ~seed:101 in
      let n = E.total_size eng in
      let m = E.stream_size eng in
      let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
      List.iter
        (fun phi ->
          let r = int_of_float (ceil (phi *. float_of_int n)) in
          let v, report = E.accurate eng ~rank:r in
          let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
          Alcotest.(check bool)
            (Printf.sprintf "%s phi=%.2f err=%d bound=%.0f io=%d" name phi err bound
               (Hsq_storage.Io_stats.total report.E.io))
            true
            (float_of_int err <= bound))
        [ 0.05; 0.25; 0.5; 0.75; 0.95 ];
      Alcotest.(check (list string)) (name ^ " invariants") []
        (Hsq_hist.Level_index.check_invariants (E.hist eng)))
    Hsq_workload.Datasets.names

let test_interleaved_queries_and_updates () =
  (* Queries must be valid at any point of the lifecycle, including
     immediately after a step boundary (empty stream). *)
  let ds = Hsq_workload.Datasets.uniform ~seed:102 in
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  for step = 1 to 12 do
    let batch = Hsq_workload.Datasets.next_batch ds 1_000 in
    Array.iteri
      (fun i v ->
        E.observe eng v;
        Hsq_workload.Oracle.add oracle v;
        if i = 500 then begin
          (* mid-step query *)
          let n = E.total_size eng in
          let r = max 1 (n / 2) in
          let v, _ = E.accurate eng ~rank:r in
          let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
          let m = E.stream_size eng in
          let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
          if float_of_int err > bound then
            Alcotest.failf "mid-step query off at step %d: err=%d > %.1f" step err bound
        end)
      batch;
    ignore (E.end_time_step eng);
    (* boundary query with empty stream: near-exact *)
    let n = E.total_size eng in
    let r = max 1 (int_of_float (ceil (0.9 *. float_of_int n))) in
    let v, _ = E.accurate eng ~rank:r in
    let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
    Alcotest.(check bool) (Printf.sprintf "boundary step %d err=%d" step err) true (err <= 1)
  done

let test_file_backed_device_agrees () =
  let path = Filename.temp_file "hsq_integration" ".dev" in
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let file_dev = Hsq_storage.Block_device.create_file ~block_size:32 ~path () in
  let eng_mem = E.create config in
  let eng_file = E.create ~device:file_dev config in
  let ds1 = Hsq_workload.Datasets.normal ~seed:103 in
  let ds2 = Hsq_workload.Datasets.normal ~seed:103 in
  for _ = 1 to 7 do
    ignore (E.ingest_batch eng_mem (Hsq_workload.Datasets.next_batch ds1 1_500));
    ignore (E.ingest_batch eng_file (Hsq_workload.Datasets.next_batch ds2 1_500))
  done;
  List.iter
    (fun phi ->
      let n = E.total_size eng_mem in
      let r = int_of_float (ceil (phi *. float_of_int n)) in
      let v_mem, _ = E.accurate eng_mem ~rank:r in
      let v_file, _ = E.accurate eng_file ~rank:r in
      Alcotest.(check int) (Printf.sprintf "phi=%.2f backends agree" phi) v_mem v_file)
    [ 0.1; 0.5; 0.9 ];
  Hsq_storage.Block_device.close file_dev;
  Sys.remove path

let test_persistent_fault_degrades_to_quick () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  for _ = 1 to 5 do
    ignore (E.ingest_batch eng (Array.init 1_000 (fun i -> i * 7)))
  done;
  for i = 1 to 100 do
    E.observe eng i
  done;
  let dev = E.device eng in
  (* A persistent read fault: retries are exhausted and the accurate
     path must degrade to the in-memory quick answer, flagged as such,
     instead of raising at the caller. *)
  Hsq_storage.Block_device.set_injector dev
    (Some
       (fun op ~attempt:_ _ ->
         if op = Hsq_storage.Block_device.Read then Some Hsq_storage.Block_device.Fail else None));
  let stats = Hsq_storage.Block_device.stats dev in
  Hsq_storage.Io_stats.reset stats;
  let v, report = E.accurate eng ~rank:2_000 in
  (* A device-wide persistent fault trips the circuit breaker before
     every partition can be quarantined, so the query degrades to the
     in-memory answer flagged device_open. *)
  Alcotest.(check bool) "answer flagged degraded" true (report.E.degradation = `Device_open);
  Alcotest.(check bool) "bound reported" true (report.E.rank_error_bound >= 0.0);
  Alcotest.(check int) "matches the quick path" (E.quick eng ~rank:2_000) v;
  Alcotest.(check bool) "retries were attempted first" true
    ((Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.retries > 0);
  (* Device healed (set_injector also resets the breaker): partitions the
     containment layer quarantined on the way down are re-verified and
     reinstated, and full accuracy comes back, unflagged. *)
  Hsq_storage.Block_device.set_injector dev None;
  List.iter
    (fun p ->
      match Hsq_hist.Level_index.reinstate (E.hist eng) p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "reinstate failed on healed device: %s" msg)
    (Hsq_hist.Level_index.quarantined (E.hist eng));
  let v, report = E.accurate eng ~rank:2_000 in
  Alcotest.(check bool) "not degraded after clearing" true (report.E.degradation = `None);
  Alcotest.(check bool) "recovers after fault cleared" true (v >= 0)

let test_transient_fault_invisible_to_queries () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  let rng = Hsq_util.Xoshiro.create 77 in
  for _ = 1 to 5 do
    let batch = Array.init 1_000 (fun _ -> Hsq_util.Xoshiro.int rng 50_000) in
    Hsq_workload.Oracle.add_batch oracle batch;
    ignore (E.ingest_batch eng batch)
  done;
  let dev = E.device eng in
  (* Every read's first attempt fails; the bounded retry absorbs it, so
     answers are identical to a healthy device and nothing degrades. *)
  Hsq_storage.Block_device.set_injector dev
    (Some
       (fun op ~attempt _ ->
         if op = Hsq_storage.Block_device.Read && attempt = 1 then
           Some Hsq_storage.Block_device.Fail
         else None));
  let stats = Hsq_storage.Block_device.stats dev in
  Hsq_storage.Io_stats.reset stats;
  let n = E.total_size eng in
  let v, report = E.accurate eng ~rank:(n / 2) in
  Alcotest.(check bool) "not degraded" true (report.E.degradation = `None);
  Alcotest.(check int) "still exact with empty stream" 0
    (Hsq_workload.Oracle.rank_error oracle ~rank:(n / 2) ~value:v);
  Alcotest.(check bool) "retries visible in stats" true
    ((Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.retries > 0)

let test_deadline_cuts_to_best_so_far () =
  let ds = Hsq_workload.Datasets.uniform ~seed:88 in
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to 8 do
    let batch = Hsq_workload.Datasets.next_batch ds 1_000 in
    Hsq_workload.Oracle.add_batch oracle batch;
    ignore (E.ingest_batch eng batch)
  done;
  Array.iter
    (fun v ->
      E.observe eng v;
      Hsq_workload.Oracle.add oracle v)
    (Hsq_workload.Datasets.next_batch ds 500);
  let n = E.total_size eng in
  let rank = n / 2 in
  (* An already-expired deadline: the bisection is cut before its first
     iteration and the query returns its best-so-far answer, honestly
     flagged with a rank-error bound the oracle confirms. *)
  let v, report = E.accurate ~deadline_ms:1e-9 eng ~rank in
  Alcotest.(check bool) "flagged deadline" true (report.E.degradation = `Deadline);
  Alcotest.(check int) "cut before the first iteration" 0 report.E.iterations;
  let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
  Alcotest.(check bool)
    (Printf.sprintf "bound honest under the cut: err=%d bound=%.0f" err
       report.E.rank_error_bound)
    true
    (float_of_int err <= report.E.rank_error_bound);
  (* Without a deadline the same engine still answers at full accuracy. *)
  let v2, report2 = E.accurate eng ~rank in
  Alcotest.(check bool) "undeadlined query unaffected" true
    (report2.E.degradation = `None && report2.E.iterations > 0);
  let m = E.stream_size eng in
  let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
  Alcotest.(check bool) "full accuracy afterwards" true
    (float_of_int (Hsq_workload.Oracle.rank_error oracle ~rank ~value:v2) <= bound)

let test_write_fault_during_end_time_step () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  for _ = 1 to 2 do
    ignore (E.ingest_batch eng (Array.init 800 (fun i -> (i * 13) mod 10_000)))
  done;
  let before_total = E.total_size eng and before_steps = E.time_steps eng in
  for i = 1 to 600 do
    E.observe eng (i * 3)
  done;
  let dev = E.device eng in
  (* The level-0 run write fails before any index state is touched:
     archiving raises, the warehouse is unchanged, the batch is kept. *)
  Hsq_storage.Block_device.set_injector dev
    (Some
       (fun op ~attempt:_ _ ->
         if op = Hsq_storage.Block_device.Write then Some Hsq_storage.Block_device.Fail else None));
  Alcotest.(check bool) "write fault surfaces" true
    (try
       ignore (E.end_time_step eng);
       false
     with Hsq_storage.Block_device.Device_error _ -> true);
  Alcotest.(check int) "no partial step archived" before_total (E.hist_size eng);
  Alcotest.(check int) "batch retained in the stream" 600 (E.stream_size eng);
  Alcotest.(check int) "step count unchanged" before_steps (E.time_steps eng);
  Alcotest.(check (list string)) "invariants hold after failed write" []
    (Hsq_hist.Level_index.check_invariants (E.hist eng));
  (* Fault cleared: the retained batch archives cleanly. *)
  Hsq_storage.Block_device.set_injector dev None;
  ignore (E.end_time_step eng);
  Alcotest.(check int) "batch retained and archived" (before_total + 600) (E.total_size eng);
  Alcotest.(check int) "step count advanced" (before_steps + 1) (E.time_steps eng);
  Alcotest.(check (list string)) "invariants after recovery" []
    (Hsq_hist.Level_index.check_invariants (E.hist eng));
  let v, report = E.accurate eng ~rank:(E.total_size eng / 2) in
  Alcotest.(check bool) "query healthy after recovery" true
    (v >= 0 && report.E.degradation = `None)

let test_quick_vs_accurate_consistency () =
  (* Quick and accurate answers must be within their combined bounds of
     each other on every dataset. *)
  List.iter
    (fun name ->
      let eng, oracle = run_dataset ~name ~seed:104 in
      let n = E.total_size eng in
      let r = n / 2 in
      let va, _ = E.accurate eng ~rank:r in
      let vq = E.quick eng ~rank:r in
      let ra = Hsq_workload.Oracle.rank_of oracle va in
      let rq = Hsq_workload.Oracle.rank_of oracle vq in
      Alcotest.(check bool)
        (Printf.sprintf "%s quick/accurate ranks within 2*1.5*eps*N" name)
        true
        (float_of_int (abs (ra - rq)) <= 4.0 *. E.epsilon eng *. float_of_int n))
    Hsq_workload.Datasets.names

let test_long_run_many_steps () =
  (* 60 steps: several merge cascades deep; invariants + accuracy. *)
  let ds = Hsq_workload.Datasets.network ~seed:105 in
  let config = Hsq.Config.make ~kappa:3 ~block_size:64 ~steps_hint:60 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to 60 do
    let b = Hsq_workload.Datasets.next_batch ds 500 in
    Hsq_workload.Oracle.add_batch oracle b;
    ignore (E.ingest_batch eng b)
  done;
  Alcotest.(check (list string)) "invariants after 60 steps" []
    (Hsq_hist.Level_index.check_invariants (E.hist eng));
  Alcotest.(check bool) "levels stay logarithmic" true
    (Hsq_hist.Level_index.num_levels (E.hist eng) <= 5);
  let n = E.total_size eng in
  let v, _ = E.accurate eng ~rank:(n / 2) in
  Alcotest.(check int) "median exact with empty stream" 0
    (Hsq_workload.Oracle.rank_error oracle ~rank:(n / 2) ~value:v)

let () =
  Alcotest.run "integration"
    [
      ( "datasets",
        [
          Alcotest.test_case "all datasets within bounds" `Slow test_all_datasets_within_bounds;
          Alcotest.test_case "quick vs accurate consistent" `Slow test_quick_vs_accurate_consistency;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "interleaved queries/updates" `Slow test_interleaved_queries_and_updates;
          Alcotest.test_case "long run (60 steps)" `Slow test_long_run_many_steps;
        ] );
      ( "durability",
        [
          Alcotest.test_case "file-backed device agrees" `Slow test_file_backed_device_agrees;
          Alcotest.test_case "persistent fault degrades to quick" `Quick
            test_persistent_fault_degrades_to_quick;
          Alcotest.test_case "transient fault invisible to queries" `Quick
            test_transient_fault_invisible_to_queries;
          Alcotest.test_case "write fault during end_time_step" `Quick
            test_write_fault_during_end_time_step;
          Alcotest.test_case "deadline cuts to best-so-far" `Quick
            test_deadline_cuts_to_best_so_far;
        ] );
    ]
