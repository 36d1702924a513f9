(* Bechamel micro-benchmarks for the core operations behind every
   figure: sketch inserts, ingest hand-offs, summary extraction, the two
   query paths, and the integer text codec of the wire.
   Reported as nanoseconds per operation (OLS estimate against the run
   counter). *)

open Bechamel
open Toolkit

(* A pre-built medium engine shared (read-only) by the query benches. *)
let prepared_engine () =
  let scale = { Harness.default_scale with steps = 20; step_size = 5_000 } in
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
let durable_engine ~wal_sync () =
  let dir = Filename.temp_file "hsq_bench_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ());
  let config =
    Hsq.Config.make ~kappa:10 ~block_size:256 ~wal_dir:dir ~wal_sync (Hsq.Config.Epsilon 0.01)
  in
  let eng, _ = Hsq.Engine.open_or_recover config in
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
  (* The union summary's inputs, fixed: the build row measures the
     build alone, the uncached row the aggregate too. *)
  let partitions = Hsq_hist.Level_index.active_partitions (Hsq.Engine.hist eng) in
  let agg = Hsq.Union_summary.hist_aggregate ~partitions in
  let streams = [ Hsq.Engine.stream_summary eng ] in
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
  let run512 = Array.init 512 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000_000) in
  let dev, block_addr = block_file () in
  let block = Array.init 256 (fun j -> (j * 7919) - 1_000_000) in
  [
    Test.make ~name:"gk-insert"
      (Staged.stage (fun () -> Hsq_sketch.Gk.insert gk (Hsq_util.Xoshiro.int rng 1_000_000_000)));
    Test.make ~name:"qdigest-insert"
      (Staged.stage (fun () -> Hsq_sketch.Qdigest.insert qd (Hsq_util.Xoshiro.int rng (1 lsl 30))));
    Test.make ~name:"sampler-insert"
      (Staged.stage (fun () -> Hsq_sketch.Sampler.insert sp (Hsq_util.Xoshiro.int rng 1_000_000_000)));
    Test.make ~name:"stream-summary-extract"
      (Staged.stage (fun () -> ignore (Hsq.Engine.stream_summary eng)));
    Test.make ~name:"union-summary-build"
      (Staged.stage (fun () -> ignore (Hsq.Union_summary.build ~agg ~streams)));
    (* The quick path answers from the engine's summary cache; the
       uncached row aggregates the partition summaries and builds the
       union summary on every query. *)
    Test.make ~name:"quick-query"
      (Staged.stage (fun () -> ignore (Hsq.Engine.quick eng ~rank:(n / 2))));
    Test.make ~name:"accurate-query"
      (Staged.stage (fun () -> ignore (Hsq.Engine.accurate eng ~rank:(eng_rank ()))));
    Test.make ~name:"query-quick-uncached"
      (Staged.stage (fun () ->
           let agg = Hsq.Union_summary.hist_aggregate ~partitions in
           let us = Hsq.Union_summary.build ~agg ~streams in
           ignore (Hsq.Union_summary.quick_select us ~rank:(n / 2))));
    Test.make ~name:"query-accurate-1dom"
      (Staged.stage (fun () -> ignore (Hsq.Engine.accurate acc ~rank:(acc_rank ()))));
    (* Ingest throughput across the durability spectrum: no WAL at all,
       buffered appends (flush at commits only), group commit, and a
       physical flush per record. *)
    Test.make ~name:"ingest-wal-off"
      (Staged.stage (fun () -> Hsq.Engine.observe volatile (Hsq_util.Xoshiro.int rng 1_000_000)));
    Test.make ~name:"ingest-wal-never"
      (Staged.stage (fun () -> Hsq.Engine.observe dur_never (Hsq_util.Xoshiro.int rng 1_000_000)));
    Test.make ~name:"ingest-wal-group64"
      (Staged.stage (fun () -> Hsq.Engine.observe dur_group (Hsq_util.Xoshiro.int rng 1_000_000)));
    Test.make ~name:"ingest-wal-always"
      (Staged.stage (fun () ->
           Hsq.Engine.observe dur_always (Hsq_util.Xoshiro.int rng 1_000_000)));
    (* One full ingest buffer: 512 observes into a volatile engine, the
       last of which sorts the buffer and merges it into the sketch and
       the step spool. *)
    Test.make ~name:"handoff-512"
      (Staged.stage (fun () -> Array.iter (Hsq.Engine.observe handoff_engine) run512));
    (* The device layer under an accurate query's probes: one verified
       256-word block read and one block write on the file backend. *)
    Test.make ~name:"block-read-file"
      (Staged.stage (fun () ->
           ignore (Hsq_storage.Block_device.read_block dev ~addr:(block_addr ()))));
    Test.make ~name:"block-write-file"
      (Staged.stage (fun () -> Hsq_storage.Block_device.write_block dev ~addr:(block_addr ()) block));
    (* The integer codec: a request rendered and parsed as the client
       and the daemon do, and a reply rendered. *)
    Test.make ~name:"wire-encode-observe200"
      (Staged.stage (fun () -> ignore (Hsq_serve.Json.to_line observe)));
    Test.make ~name:"wire-decode-observe200"
      (Staged.stage (fun () ->
           ignore (Result.map Hsq_serve.Protocol.parse (Hsq_serve.Json.of_string observe_line))));
    Test.make ~name:"wire-encode-accurate-reply"
      (Staged.stage (fun () -> ignore (accurate_reply ())));
  ]
  |> fun tests -> (tests, Hsq.Engine.metrics eng)

(* [smoke] is the CI mode: tiny engines and a short sampling quota, so
   the job only checks that every bench row still builds and runs. *)
let run ?(smoke = false) () =
  Harness.print_header "Micro-benchmarks (ns/op, OLS vs run count)";
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let test_list, registry = tests ~smoke in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.printf "%-28s %14.1f ns/op\n%!" name est
          | Some [] | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        results)
    test_list;
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
