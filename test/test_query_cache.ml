(* Cache-consistency fuzz for the incrementally maintained union summary.

   The engine answers steady-state queries from a cached historical
   aggregate keyed on Level_index.epoch (DESIGN.md, "Query-path caching
   & parallel probes").  These tests drive randomized operation
   sequences — observe, end_time_step, expire, window queries (through
   a one-engine shard group: they build fresh summaries and must not
   disturb the engine's cache), quick/accurate
   queries, and crash/recover cycles — and after every step assert that
   the cached union summary is entry-for-entry identical to one built
   from scratch, and that quick answers agree.

   Each sequence is deterministic in its seed; failures print the seed.
   Seed counts scale through HSQ_CRASH_SEEDS (same convention as
   test_crash_recovery): the PR-gating CI job runs the default, the
   nightly job cranks it up to hundreds. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module US = Hsq.Union_summary

let seed_count default =
  match Sys.getenv_opt "HSQ_CRASH_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Mixture of distributions so duplicates, skew, and wide ranges all
   occur within one run (same shape as test_fuzz). *)
let gen_value rng =
  match Hsq_util.Xoshiro.int rng 4 with
  | 0 -> Hsq_util.Xoshiro.int rng 20
  | 1 -> Hsq_util.Xoshiro.int rng 1_000_000
  | 2 -> 500_000 + Hsq_util.Xoshiro.int rng 100
  | _ -> 1 lsl (4 + Hsq_util.Xoshiro.int rng 20)

(* The invariant under test: the epoch-keyed cached summary must be
   entry-for-entry identical (values and exact L/U bounds) to a summary
   built fresh from the partition list, and quick answers must agree. *)
let check_cache ~seed ~ctx eng =
  let cached = E.union_summary eng in
  let fresh =
    US.build
      ~agg:(US.hist_aggregate ~partitions:(Hsq_hist.Level_index.active_partitions (E.hist eng)))
      ~streams:[ E.stream_summary eng ]
  in
  if not (US.equal cached fresh) then
    Alcotest.failf "seed %d: cached union summary diverged from fresh after %s (%d vs %d entries)"
      seed ctx (US.size cached) (US.size fresh);
  let n = E.total_size eng in
  if n > 0 then
    List.iter
      (fun phi ->
        let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
        let via_engine = E.quick eng ~rank:r in
        let via_fresh = US.quick_select fresh ~rank:r in
        if via_engine <> via_fresh then
          Alcotest.failf "seed %d: quick rank %d after %s: cached %d <> fresh %d" seed r ctx
            via_engine via_fresh)
      [ 0.01; 0.25; 0.5; 0.75; 0.99 ]

let observe_batch rng eng =
  let count = 1 + Hsq_util.Xoshiro.int rng 250 in
  for _ = 1 to count do
    E.observe eng (gen_value rng)
  done

let random_op rng eng =
  match Hsq_util.Xoshiro.int rng 10 with
  | 0 | 1 | 2 | 3 ->
    observe_batch rng eng;
    "observe"
  | 4 | 5 ->
    if E.stream_size eng > 0 then ignore (E.end_time_step eng);
    "end_time_step"
  | 6 ->
    if E.time_steps eng > 0 then
      ignore (E.expire eng ~keep_steps:(1 + Hsq_util.Xoshiro.int rng 8));
    "expire"
  | 7 -> (
    (* Window queries build fresh summaries over partition suffixes;
       they must leave the full-union cache untouched. *)
    let g = G.of_engine eng in
    match G.window_sizes g with
    | [] -> "window (none)"
    | windows ->
      let w = List.nth windows (Hsq_util.Xoshiro.int rng (List.length windows)) in
      let n = Result.get_ok (G.window_total g ~window:w) in
      ignore (G.accurate_window g ~window:w ~rank:(Hsq.Bisection.rank_of_phi ~who:"test" ~n 0.5));
      "window query")
  | 8 ->
    if E.total_size eng > 0 then
      ignore (E.accurate eng ~rank:(1 + Hsq_util.Xoshiro.int rng (E.total_size eng)));
    "accurate query"
  | _ ->
    if E.total_size eng > 0 then ignore (E.quantile eng 0.5);
    "quantile"

let run_volatile_sequence ~seed ~ops =
  let rng = Hsq_util.Xoshiro.create seed in
  let kappa = 2 + Hsq_util.Xoshiro.int rng 6 in
  let config = Hsq.Config.make ~kappa ~block_size:16 (Hsq.Config.Epsilon 0.05) in
  let eng = E.create config in
  check_cache ~seed ~ctx:"create" eng;
  for _ = 1 to ops do
    let ctx = random_op rng eng in
    check_cache ~seed ~ctx eng
  done

let test_volatile_sequences () =
  for seed = 1 to seed_count 15 do
    run_volatile_sequence ~seed:(7000 + (seed * 13)) ~ops:40
  done

(* Crash/recover: drive a durable store, abandon the engine mid-flight
   (no close — the WAL under Always sync is the only survivor), reopen
   with open_or_recover, and require the recovered engine's cache to
   match a fresh build both immediately and through further mutations. *)
let with_store f =
  let dir = Filename.temp_file "hsq_qcache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let run_recovery_sequence ~seed =
  with_store (fun dir ->
      let rng = Hsq_util.Xoshiro.create seed in
      let config =
        Hsq.Config.make ~kappa:3 ~block_size:16 ~wal_dir:dir
          ~checkpoint_every:(64 * (1 + Hsq_util.Xoshiro.int rng 4))
          (Hsq.Config.Epsilon 0.05)
      in
      let eng, _ = E.open_or_recover config in
      let steps = 2 + Hsq_util.Xoshiro.int rng 6 in
      for _ = 1 to steps do
        observe_batch rng eng;
        if Hsq_util.Xoshiro.int rng 3 > 0 && E.stream_size eng > 0 then
          ignore (E.end_time_step eng)
      done;
      check_cache ~seed ~ctx:"pre-crash" eng;
      (* Simulated crash: the engine is abandoned without close. *)
      let recovered, _report = E.open_or_recover config in
      check_cache ~seed ~ctx:"open_or_recover" recovered;
      for _ = 1 to 10 do
        let ctx = random_op rng recovered in
        check_cache ~seed ~ctx:(ctx ^ " (post-recovery)") recovered
      done;
      E.close recovered)

let test_recovery_sequences () =
  for seed = 1 to seed_count 8 do
    run_recovery_sequence ~seed:(9000 + (seed * 29))
  done

(* Save / load round trip: a restored engine starts with a cold
   cache and an empty stream; its first cached build must equal fresh. *)
let test_save_load_cache () =
  let rng = Hsq_util.Xoshiro.create 31337 in
  let dir = Filename.temp_file "hsq_qcache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let dev_path, meta_path, _ = E.store_paths ~dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let config = Hsq.Config.make ~kappa:3 ~block_size:16 (Hsq.Config.Epsilon 0.05) in
      let dev = Hsq_storage.Block_device.create_file ~block_size:16 ~path:dev_path () in
      let eng = E.create ~device:dev config in
      for _ = 1 to 6 do
        observe_batch rng eng;
        ignore (E.end_time_step eng)
      done;
      check_cache ~seed:31337 ~ctx:"pre-save" eng;
      Hsq.Meta.write ~path:meta_path
        (Hsq.Meta.render ~config:(E.config eng) ~descriptors:(Hsq_hist.Level_index.describe (E.hist eng)));
      Hsq_storage.Block_device.close dev;
      let restored = E.load_warehouse ~dir in
      check_cache ~seed:31337 ~ctx:"load_files" restored;
      observe_batch rng restored;
      check_cache ~seed:31337 ~ctx:"observe after load" restored;
      ignore (E.end_time_step restored);
      check_cache ~seed:31337 ~ctx:"end_time_step after load" restored;
      Hsq_storage.Block_device.close (E.device restored))

(* Probe rounds read every partition's next block in parallel and stop
   once the windows decide each step: (rank, answer, iterations) at
   phi = 0.1, 0.3, 0.5, 0.7, 0.9, 1.0, with the reads the
   early-deciding, interpolation-guided rounds make.  The answers are
   the one-partition-at-a-time exact-rank probe loop's (it read 5, 3,
   17, 4, 6, 0); the summary-guided candidates moved only phi = 0.5's
   iterations, 16 to 17, and the rank model's first probes, narrowed to
   the summary gaps, only the reads at phi = 0.3 and 0.7, 4 and 3 to 2. *)
let sequential_probe_answers =
  [
    (111, 8, 3, 2);
    (331, 758, 11, 2);
    (551, 262144, 17, 2);
    (771, 500054, 5, 2);
    (991, 786542, 18, 3);
    (1101, 8388608, 1, 0);
  ]

let test_parallel_answers_identical () =
  let rng = Hsq_util.Xoshiro.create 555 in
  let eng = E.create (Hsq.Config.make ~kappa:3 ~block_size:16 (Hsq.Config.Epsilon 0.05)) in
  for _ = 1 to 8 do
    observe_batch rng eng;
    ignore (E.end_time_step eng)
  done;
  observe_batch rng eng;
  let n = E.total_size eng in
  let got =
    List.map
      (fun phi ->
        let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
        let v, rep = E.accurate eng ~rank:r in
        (r, v, rep.E.iterations, rep.E.io.Hsq_storage.Io_stats.reads))
      [ 0.1; 0.3; 0.5; 0.7; 0.9; 1.0 ]
  in
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "(rank, answer), (iterations, reads)"
    (List.map (fun (r, v, i, io) -> ((r, v), (i, io))) sequential_probe_answers)
    (List.map (fun (r, v, i, io) -> ((r, v), (i, io))) got);
  E.close eng

let () =
  Alcotest.run "query_cache"
    [
      ( "cache-consistency",
        [
          Alcotest.test_case "volatile fuzz sequences" `Quick test_volatile_sequences;
          Alcotest.test_case "crash/recover sequences" `Quick test_recovery_sequences;
          Alcotest.test_case "save/load round trip" `Quick test_save_load_cache;
          Alcotest.test_case "parallel answers identical" `Quick test_parallel_answers_identical;
        ] );
    ]
