(* Bechamel micro-benchmarks for the core operations behind every
   figure: sketch inserts, ingest hand-offs, summary extraction, the two
   query paths, and the integer text codec of the wire.
   Reported as nanoseconds per operation: the OLS estimate against the
   run counter, the fastest of seven timed batches (a floor that noise
   only raises, so sub-microsecond cuts show), and the minor-heap words
   one operation allocates over those batches. *)

open Bechamel
open Toolkit

(* A pre-built medium engine shared (read-only) by the query benches. *)
let prepared_engine ?(seed = Harness.default_scale.seed) () =
  let scale = { Harness.default_scale with steps = 20; step_size = 5_000; seed } in
  let w = Harness.load_workload ~scale ~dataset:"uniform" () in
  let config =
    Hsq.Config.make ~kappa:10 ~block_size:scale.block_size ~steps_hint:scale.steps
      (Hsq.Config.Epsilon 0.01)
  in
  let eng, _ = Harness.build_engine ~config w in
  eng

(* The engine for the accurate-query disk bench.  A simulated per-block
   read latency models a disk so the row measures the probe rounds'
   overlapped reads rather than in-memory array arithmetic. *)
let accurate_engine ?(smoke = false) () =
  (* Sized so an accurate query really probes disk (tens of physical
     block reads per query, like the CLI defaults), with a 200 µs
     simulated read latency standing in for a fast SSD — otherwise the
     in-memory simulator makes every probe free. *)
  let scale =
    if smoke then { Harness.default_scale with steps = 8; step_size = 4_000 }
    else { Harness.default_scale with steps = 30; step_size = 20_000 }
  in
  let w = Harness.load_workload ~scale ~dataset:"normal" () in
  let config =
    Hsq.Config.make ~kappa:10 ~block_size:scale.block_size ~steps_hint:scale.steps
      (Hsq.Config.Epsilon 0.02)
  in
  let eng, _ = Harness.build_engine ~config w in
  Hsq_storage.Block_device.set_read_latency (Hsq.Engine.device eng) 200e-6;
  eng

(* A durable engine over a throwaway store, for the ingest-throughput
   benches: the WAL sync policy is the axis under measurement. *)
let durable_engine ?(kappa = 10) ~wal_sync () =
  let dir = Filename.temp_file "hsq_bench_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ());
  let config =
    Hsq.Config.make ~kappa ~block_size:256 ~wal_dir:dir ~wal_sync (Hsq.Config.Epsilon 0.01)
  in
  let eng, _ = Hsq.Engine.open_or_recover config in
  eng

(* The engine for the file-backed accurate row: serve-read's store
   shape (20 archived steps of 10k uniform values and a 5k open step,
   eps 0.01, kappa 10) on a durable store's file device, with no
   simulated read latency, so the row times an accurate query's CPU: the
   probe loop and its verified block reads through a warm page cache. *)
let accurate_file_engine ~smoke () =
  let steps, step_size, open_step = if smoke then (4, 2_000, 1_000) else (20, 10_000, 5_000) in
  let eng = durable_engine ~wal_sync:(Hsq_storage.Wal.Group 1_000) () in
  let data = Hsq_workload.Datasets.uniform ~seed:7 in
  for _ = 1 to steps do
    ignore (Hsq.Engine.ingest_batch eng (Hsq_workload.Datasets.next_batch data step_size))
  done;
  Array.iter (Hsq.Engine.observe eng) (Hsq_workload.Datasets.next_batch data open_step);
  eng

(* Ranks at phi uniform in (0.01, 0.99), seeded, taken in turn as the
   perfbench query mix does: a repeated rank finds every probe's block
   in its run's one-block cache after the first call and reads
   nothing. *)
let rank_cycle ~n =
  let rng = Hsq_util.Xoshiro.create 0xACC in
  let ranks =
    Array.init 64 (fun _ ->
        Hsq.Bisection.rank_of_phi ~who:"micro" ~n (0.01 +. (0.98 *. Hsq_util.Xoshiro.float rng)))
  in
  let next = ref 0 in
  fun () ->
    next := (!next + 1) land 63;
    ranks.(!next)

(* A file-backed device of 64 blocks of 256 words for the device rows:
   each op is one verified block read or one checksummed block write,
   cycling over the blocks (all in the page cache after the first
   pass), so the rows measure the syscalls and the record codec. *)
let block_file () =
  let module Dev = Hsq_storage.Block_device in
  let path = Filename.temp_file "hsq_bench_dev" "" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let dev = Dev.create_file ~block_size:256 ~path () in
  let base = Dev.alloc dev 64 in
  for b = 0 to 63 do
    Dev.write_block dev ~addr:(base + b) (Array.init 256 (fun j -> (b * 256) + j - 8192))
  done;
  let next = ref 0 in
  let addr () =
    next := (!next + 37) land 63;
    base + !next
  in
  (dev, addr)

(* The wire's hot lines: a 200-value observe request as a client sends
   it, and an accurate reply as the daemon renders it. *)
let observe_request rng =
  let value () = Hsq_serve.Json.int (Hsq_util.Xoshiro.int rng 1_000_000_000) in
  let values = List.init 200 (fun _ -> value ()) in
  Hsq_serve.Json.(Obj [ ("op", Str "observe"); ("values", List values) ])

let accurate_reply () =
  Hsq_serve.(
    Protocol.ok
      Json.
        [
          ("value", int 499_871_234);
          ("rank", int 102_500);
          ("bound", Num 2050.0);
          ("degradation", Str "none");
          ("iterations", int 6);
          ("io", int 23);
          ("shards_down", List []);
          ("replicas_diverged", List []);
        ])

(* A durable engine on a file device that archives whole 50k steps of
   normal data: one [observe_batch] WAL run and the step commit (sort,
   summary, block load, WAL marker, sidecar and rotation) per call,
   with kappa high enough that no merge fires. *)
let step_commit ~smoke =
  let eng = durable_engine ~wal_sync:(Hsq_storage.Wal.Group 1_000) ~kappa:1_000 () in
  let step =
    Hsq_workload.Datasets.next_batch
      (Hsq_workload.Datasets.normal ~seed:5)
      (if smoke then 2_000 else 50_000)
  in
  fun () -> ignore (Hsq.Engine.ingest_batch eng step)

(* Eleven sorted runs of 50k normal values on a file device, merged into
   one as a level merge does: the output feeds a partition summary and
   is freed again. *)
let level_merge ~smoke =
  let module Dev = Hsq_storage.Block_device in
  let path = Filename.temp_file "hsq_bench_merge" "" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  let dev = Dev.create_file ~block_size:256 ~path () in
  let data = Hsq_workload.Datasets.normal ~seed:5 in
  let runs =
    List.init 11 (fun _ ->
        let b = Hsq_workload.Datasets.next_batch data (if smoke then 2_000 else 50_000) in
        Array.sort compare b;
        Hsq_storage.Run.of_sorted_array dev b)
  in
  let size = List.fold_left (fun acc r -> acc + Hsq_storage.Run.length r) 0 runs in
  fun () ->
    let builder = Hsq_hist.Partition_summary.builder ~beta1:64 ~size in
    let merged =
      Hsq_storage.Kway_merge.merge
        ~observe:(fun i v -> Hsq_hist.Partition_summary.builder_feed builder i v)
        dev runs
    in
    ignore (Hsq_hist.Partition_summary.builder_finish builder);
    Hsq_storage.Run.free merged

(* 64 runs of 512 normal values, taken in turn by the hand-off rows: one
   run handed off over and over lets the branch predictor learn the
   sort's branches. *)
let handoff_runs () =
  let data = Hsq_workload.Datasets.normal ~seed:5 in
  let runs = Array.init 64 (fun _ -> Hsq_workload.Datasets.next_batch data 512) in
  let next = ref 0 in
  fun () ->
    next := (!next + 1) land 63;
    runs.(!next)

(* The ingest path's two sorts on normal data: a full 512-value
   hand-off run sorted into the engine's reused run, and a step spool of
   98 such runs, each sorted, sorted as one step (~50k values).  Each op
   first copies its input in with a typed loop, at 1-2 ns a word. *)
let refill (src : int array) (dst : int array) =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- src.(i)
  done

let sort_handoff () =
  let next_run = handoff_runs () in
  let pending = Array.make 512 0 and sorted = Array.make 512 0 in
  let counts = Hsq_util.Sorted.radix_counts () in
  fun () ->
    refill (next_run ()) pending;
    Hsq_util.Sorted.sort_into ~counts pending 512 sorted

let sort_spool () =
  let data = Hsq_workload.Datasets.normal ~seed:5 in
  let spool =
    Array.concat
      (List.init 98 (fun _ ->
           let run = Hsq_workload.Datasets.next_batch data 512 in
           Array.sort compare run;
           run))
  in
  let work = Array.make (Array.length spool) 0 in
  fun () ->
    refill spool work;
    Hsq_util.Sorted.sort_runs work

let tests ~smoke =
  let rng = Hsq_util.Xoshiro.create 1234 in
  let gk = Hsq_sketch.Gk.create ~epsilon:0.001 in
  let qd = Hsq_sketch.Qdigest.create ~bits:30 ~k:1000 in
  let sp = Hsq_sketch.Sampler.create ~buffers:10 ~buffer_size:500 () in
  let eng = prepared_engine () in
  let n = Hsq.Engine.total_size eng in
  let eng_rank = rank_cycle ~n in
  let acc = accurate_engine ~smoke () in
  let acc_rank = rank_cycle ~n:(Hsq.Engine.total_size acc) in
  let acc_file = accurate_file_engine ~smoke () in
  let acc_file_rank = rank_cycle ~n:(Hsq.Engine.total_size acc_file) in
  (* The union summary's inputs, fixed: the build rows measure the
     build alone, over one engine and over three (a sharded store's
     K = 3), the uncached row the aggregate too. *)
  let parts e = Hsq_hist.Level_index.active_partitions (Hsq.Engine.hist e) in
  let partitions = parts eng in
  let agg = Hsq.Union_summary.hist_aggregate ~partitions in
  let streams = [ Hsq.Engine.stream_summary eng ] in
  let engines3 = eng :: List.map (fun seed -> prepared_engine ~seed ()) [ 0xCAFE; 0xF00D ] in
  let agg3 = Hsq.Union_summary.hist_aggregate ~partitions:(List.concat_map parts engines3) in
  let streams3 = List.map Hsq.Engine.stream_summary engines3 in
  let volatile =
    Hsq.Engine.create (Hsq.Config.make ~kappa:10 ~block_size:256 (Hsq.Config.Epsilon 0.01))
  in
  let dur_never = durable_engine ~wal_sync:Hsq_storage.Wal.Never () in
  let dur_group = durable_engine ~wal_sync:(Hsq_storage.Wal.Group 64) () in
  let dur_always = durable_engine ~wal_sync:Hsq_storage.Wal.Always () in
  let observe = observe_request rng in
  let observe_line = Hsq_serve.Json.to_line observe in
  let handoff_engine =
    Hsq.Engine.create (Hsq.Config.make ~kappa:10 ~block_size:256 (Hsq.Config.Epsilon 0.01))
  in
  let next_run512 = handoff_runs () in
  let dev, block_addr = block_file () in
  let block = Array.init 256 (fun j -> (j * 7919) - 1_000_000) in
  let values = Array.init 4096 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
  let cursor = ref 0 in
  let next_value () =
    cursor := (!cursor + 1) land 4095;
    values.(!cursor)
  in
  let commit_step = step_commit ~smoke in
  let handoff_sort = sort_handoff () and spool_sort = sort_spool () in
  let merge_level = level_merge ~smoke in
  [
    ("gk-insert",
      (fun () -> Hsq_sketch.Gk.insert gk (Hsq_util.Xoshiro.int rng 1_000_000_000)));
    ("qdigest-insert",
      (fun () -> Hsq_sketch.Qdigest.insert qd (Hsq_util.Xoshiro.int rng (1 lsl 30))));
    ("sampler-insert",
      (fun () -> Hsq_sketch.Sampler.insert sp (Hsq_util.Xoshiro.int rng 1_000_000_000)));
    ("stream-summary-extract",
      (fun () -> ignore (Hsq.Engine.stream_summary eng)));
    ("union-summary-build",
      (fun () -> ignore (Hsq.Union_summary.build ~agg ~streams)));
    ("union-summary-build-k3",
      (fun () -> ignore (Hsq.Union_summary.build ~agg:agg3 ~streams:streams3)));
    (* The quick path answers from the engine's summary cache; the
       uncached row aggregates the partition summaries and builds the
       union summary on every query. *)
    ("quick-query",
      (fun () -> ignore (Hsq.Engine.quick eng ~rank:(n / 2))));
    ("accurate-query",
      (fun () -> ignore (Hsq.Engine.accurate eng ~rank:(eng_rank ()))));
    ("query-quick-uncached",
      (fun () ->
           let agg = Hsq.Union_summary.hist_aggregate ~partitions in
           let us = Hsq.Union_summary.build ~agg ~streams in
           ignore (Hsq.Union_summary.quick_select us ~rank:(n / 2))));
    ("query-accurate-1dom",
      (fun () -> ignore (Hsq.Engine.accurate acc ~rank:(acc_rank ()))));
    ("accurate-query-file",
      (fun () -> ignore (Hsq.Engine.accurate acc_file ~rank:(acc_file_rank ()))));
    (* Ingest throughput across the durability spectrum: no WAL at all,
       buffered appends (flush at commits only), group commit, and a
       physical flush per record.  The values cycle through a fixed
       draw, so the rows time (and count the allocation of) the observe
       alone. *)
    ("ingest-wal-off",
      (fun () -> Hsq.Engine.observe volatile (next_value ())));
    ("ingest-wal-never",
      (fun () -> Hsq.Engine.observe dur_never (next_value ())));
    ("ingest-wal-group64",
      (fun () -> Hsq.Engine.observe dur_group (next_value ())));
    ("ingest-wal-always",
      (fun () ->
           Hsq.Engine.observe dur_always (next_value ())));
    (* One full ingest buffer: 512 observes into a volatile engine, the
       last of which sorts the buffer and merges it into the sketch and
       the step spool; the runs cycle as the sort row's do. *)
    ("handoff-512",
      (fun () -> Array.iter (Hsq.Engine.observe handoff_engine) (next_run512 ())));
    ("sort-handoff-512", handoff_sort);
    ("sort-spool-50k", spool_sort);
    (* The ingest path's two bulk costs at accurate-disk's scale (50k
       elements a step, kappa 10): a step archived through the engine,
       and the merge the eleventh step's cascade runs. *)
    ("step-commit-50k", commit_step);
    ("level-merge-11x50k", merge_level);
    (* The device layer under an accurate query's probes: one verified
       256-word block read and one block write on the file backend. *)
    ("block-read-file",
      (fun () ->
           ignore (Hsq_storage.Block_device.read_block dev ~addr:(block_addr ()))));
    ("block-write-file",
      (fun () -> Hsq_storage.Block_device.write_block dev ~addr:(block_addr ()) block));
    (* The integer codec: a request rendered and parsed as the client
       and the daemon do, and a reply rendered. *)
    ("wire-encode-observe200",
      (fun () -> ignore (Hsq_serve.Json.to_line observe)));
    ("wire-decode-observe200",
      (fun () ->
           ignore (Result.map Hsq_serve.Protocol.parse (Hsq_serve.Json.of_string observe_line))));
    ("wire-encode-accurate-reply",
      (fun () -> ignore (accurate_reply ())));
  ]
  |> fun tests -> (tests, Hsq.Engine.metrics eng)

(* The fastest of seven batches of [f], each sized from the OLS
   estimate to last about [batch_s], in ns per call, and the minor words
   a call allocates over all seven. *)
let best_of_7 ~batch_s ~est f =
  let calls = max 1 (min 1_000_000 (int_of_float (batch_s *. 1e9 /. Float.max est 1.0))) in
  let best = ref infinity in
  let words0 = Gc.minor_words () in
  for _ = 1 to 7 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      f ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls)
  done;
  (!best, (Gc.minor_words () -. words0) /. float_of_int (7 * calls))

(* [smoke] is the CI mode: tiny engines and a short sampling quota, so
   the job only checks that every bench row still builds and runs. *)
let run ?(smoke = false) () =
  Harness.print_header "Micro-benchmarks (ns/op: OLS vs run count, best of 7; minor words/op)";
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let batch_s = if smoke then 0.002 else 0.02 in
  let rows, registry = tests ~smoke in
  List.iter
    (fun (name, f) ->
      let raw = Benchmark.all cfg instances (Test.make ~name (Staged.stage f)) in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      match Option.bind (Hashtbl.find_opt results name) Analyze.OLS.estimates with
      | Some (est :: _) ->
        let best, words = best_of_7 ~batch_s ~est f in
        Printf.printf "%-28s %14.1f ns/op  best %14.1f ns/op  %10.1f w/op\n%!" name est best words
      | Some [] | None -> Printf.printf "%-28s (no estimate)\n%!" name)
    rows;
  (* The query-path counters of the benched engine, as a smoke check
     that the observability layer records under load (the quick-latency
     histogram is 1-in-64 sampled, hence <= the counter). *)
  Harness.print_header "Engine metrics after the query benches";
  List.iter
    (fun name ->
      match Hsq_obs.Metrics.counter_value registry name with
      | Some v -> Printf.printf "%-40s %12d\n%!" name v
      | None -> Printf.printf "%-40s    (missing!)\n%!" name)
    [
      "hsq_query_quick_total";
      "hsq_query_accurate_total";
      "hsq_query_summary_cache_hits_total";
      "hsq_query_summary_cache_misses_total";
      "hsq_query_degraded_total";
      "hsq_io_reads_total";
    ]
