(* accurate-disk: accurate queries against a durable store opened
   in-process, with every physical block read made to cost 200 µs (the
   simulated disk the paper's cost model counts).  Set-up builds the
   store from `normal` data, closes it, and reopens it through
   recovery; then one caller runs a closed loop over a fixed seeded
   list of ranks.  The bisection, the partition probes and the block
   device dominate; serve and ingest sit idle.

   The process's peak resident set is reported as the engine's, so the
   run holds little else: values are generated a step at a time, and the
   exact oracle is built only after the reading, from the same seed. *)

open Common
module E = Hsq.Engine
module O = Hsq_workload.Oracle
module D = Hsq_workload.Datasets
module IO = Hsq_storage.Io_stats
module BD = Hsq_storage.Block_device

let shape = { Inputs.dataset = "normal"; steps = 20; step_size = 50_000; batch = 1_000; tail = 50_000 }
let read_latency_s = 200e-6

(* The store is built offline, so its WAL flushes in groups of 1000
   records; the query loop never writes. *)
let wal_sync = Hsq_storage.Wal.Group 1_000

(* Accurate queries per second of --seconds, and quick calls per timed
   group (one quick answer costs about a microsecond, below the
   clock's resolution, so each sample is the mean of a group). *)
let queries_per_s = 75
let quick_group = 64

let timed f =
  let t = now () in
  let r = f () in
  (r, now () -. t)

(* Build the store, close it, reopen it through recovery.  Only the
   engine calls are timed, not the generation of the values.  Returns
   the reopened engine, set-up seconds, the build's ingest seconds and
   block writes per archived step. *)
let build_once ~seed ~dir observe_lat =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" in
  Unix.mkdir store 0o755;
  (* The previous build's garbage must not raise the peak resident set. *)
  Gc.compact ();
  let (eng, _), open_s = timed (fun () -> E.open_or_recover (engine_config ~wal_sync store)) in
  let ingest_s = ref 0.0 in
  Inputs.iter_ingest (D.by_name ~seed shape.Inputs.dataset) shape (fun op ->
      let (), s =
        timed (fun () ->
            match op with
            | Inputs.Observe v -> Array.iter (E.observe eng) v
            | Inputs.End_step -> ignore (E.end_time_step eng)
            | Inputs.Query _ -> ())
      in
      (match op with Inputs.Observe _ -> Samples.add observe_lat s | _ -> ());
      ingest_s := !ingest_s +. s);
  let writes = (IO.snapshot (BD.stats (E.device eng))).IO.writes in
  let eng, reopen_s =
    timed (fun () ->
        E.close eng;
        fst (E.open_or_recover (engine_config ~wal_sync store)))
  in
  let n = E.total_size eng in
  check (n = Inputs.elements shape) "restart: %d elements after reopen, %d acked" n (Inputs.elements shape);
  BD.set_read_latency (E.device eng) read_latency_s;
  (eng, open_s +. !ingest_s +. reopen_s, !ingest_s, float_of_int writes /. float_of_int shape.Inputs.steps)

(* [n] builds; all but the last are closed and removed.  Returns the
   survivor, the median set-up time and the ingest rate over all builds
   together. *)
let setup ~seed ~n =
  let observe_lat = Samples.create () in
  let rec go i setups ingest_s =
    let dir = Printf.sprintf "disk-%d" i in
    let eng, s, b, wps = build_once ~seed ~dir observe_lat in
    let setups = s :: setups and ingest_s = ingest_s +. b in
    if i + 1 < n then begin
      E.close eng;
      rm_rf dir;
      go (i + 1) setups ingest_s
    end
    else (eng, median (Array.of_list setups), float_of_int (n * Inputs.elements shape) /. ingest_s, wps)
  in
  let eng, setup_s, ingest, wps = go 0 [] 0.0 in
  (eng, setup_s, ingest, wps, Samples.to_array observe_lat)

type outcome = {
  attempted : int;
  failures : Failures.t;
  e2e : metric list;
  layers : metric list; (* set-up ingest figures, p99s and process readings, for the traced run *)
}

(* The seeded inputs of one run; the store's values are drawn from
   [seed] while it is built. *)
type plan = {
  seed : int;
  warm : Inputs.op array;
  timed : Inputs.op array;
}

let plan ~seed ~seconds =
  let phis stream n =
    let rng = Inputs.rng seed stream in
    Array.init n (fun _ -> Inputs.Query (Inputs.Accurate (0.01 +. (0.98 *. Random.State.float rng 1.0))))
  in
  { seed; warm = phis 50 50; timed = phis 51 (max 1_000 (queries_per_s * seconds)) }

let oracle_of ~seed =
  let oracle = O.create () in
  Inputs.iter_ingest (D.by_name ~seed shape.Inputs.dataset) shape (function
    | Inputs.Observe v -> O.add_batch oracle v
    | _ -> ());
  oracle

let ranks eng ops =
  Array.of_list
    (List.filter_map
       (function
         | Inputs.Query q -> Some (Inputs.rank_of_phi ~n:(E.total_size eng) (Inputs.phi_of q))
         | _ -> None)
       (Array.to_list ops))

(* An answer must lie within the rank-error bound it reported. *)
let check_bound what oracle ~rank (v, bound) =
  let err = O.rank_error oracle ~rank ~value:v in
  check
    (float_of_int err <= bound)
    "%s answer: rank %d answered %d, true rank error %d above the reported bound %.1f" what rank v err
    bound

let accurate_disk ~setups p =
  let eng, setup_s, ingest_rate, writes_per_step, observe_lat = setup ~seed:p.seed ~n:setups in
  Array.iter (fun rank -> ignore (E.accurate eng ~rank)) (ranks eng p.warm);
  let timed_ranks = ranks eng p.timed in
  let nq = Array.length timed_ranks in
  let lat = Array.make nq 0.0 and answers = Array.make nq (0, 0.0) in
  let gaps = Samples.create () in
  let failures = Failures.create () and reads = ref 0 in
  (* After each accurate query, one group of quick answers over the
     following ranks, so both classes sample the whole window.  The
     accurate query leaves the summary out of the CPU caches; a few
     untimed answers refill them first, so the samples time the quick
     path rather than memory contention from other tenants. *)
  let quick = Array.make nq 0.0 in
  let quick_group_at i =
    for j = 1 to 16 do
      ignore (E.quick_with_bound eng ~rank:timed_ranks.((i + nq - j) mod nq))
    done;
    let t = now () in
    for j = 1 to quick_group do
      ignore (E.quick_with_bound eng ~rank:timed_ranks.((i + j) mod nq))
    done;
    quick.(i) <- (now () -. t) /. float_of_int quick_group
  in
  let cpu0 = cpu_seconds "self" in
  let t0 = now () in
  let last = ref t0 in
  Array.iteri
    (fun i rank ->
      let t = now () in
      Samples.add gaps (t -. !last);
      let v, rep = E.accurate eng ~rank in
      last := now ();
      lat.(i) <- !last -. t;
      if rep.E.degradation <> `None then
        Failures.add failures ("accurate answers with degradation " ^ E.degradation_label rep.E.degradation);
      reads := !reads + rep.E.io.IO.reads;
      answers.(i) <- (v, rep.E.rank_error_bound);
      quick_group_at i;
      last := now ())
    timed_ranks;
  let window_s = now () -. t0 and cpu_s = cpu_seconds "self" -. cpu0 in
  let rss_mb = peak_rss_mb "self" and gc = Gc.quick_stat () in
  let quick_answers = Array.map (fun rank -> E.quick_with_bound eng ~rank) timed_ranks in
  let summary_words = E.memory_words eng in
  E.close eng;
  let oracle = oracle_of ~seed:p.seed in
  Array.iteri (fun i rank -> check_bound "accurate" oracle ~rank answers.(i)) timed_ranks;
  Array.iteri (fun i rank -> check_bound "quick" oracle ~rank quick_answers.(i)) timed_ranks;
  let busy = Array.fold_left ( +. ) 0.0 lat in
  let mean_bound = Array.fold_left (fun acc (_, b) -> acc +. b) 0.0 answers /. float_of_int nq in
  let e2e, layers =
    workload_metrics
      ~head:[ metric "setup_s" "s" setup_s; metric "throughput_per_s" "1/s" (float_of_int nq /. busy) ]
      ~classes:[ ("quick", quick); ("accurate", lat) ]
      ~rest:
        [
          metric "accurate_reads_per_query" "count" (float_of_int !reads /. float_of_int nq);
          metric "update_writes_per_step" "count" writes_per_step;
          metric "accurate_bound_mean" "elems" mean_bound;
          metric "summary_words" "words" (float_of_int summary_words);
          metric "peak_rss_mb" "MB" rss_mb;
        ]
      ~setup:(ingest_rate, observe_lat)
  in
  (* accurate-disk runs the engine in the benchmark's own process, so
     its process figures are this process's over the timed window.
     There is no wire path and no admission queue: their figures are 0,
     reported so that every traced run carries every per-layer name. *)
  let process =
    [
      metric "serve.wire_overhead_us" "us" 0.0;
      metric "serve.queue_wait_p50_ms" "ms" 0.0;
      metric "serve.queue_wait_p99_ms" "ms" 0.0;
      metric "daemon.cpu_us_per_request" "us" (us cpu_s /. float_of_int nq);
      metric "daemon.cpu_util" "ratio" (cpu_s /. window_s);
      metric "process.gc_major_collections" "count" (float_of_int gc.Gc.major_collections);
      metric "process.gc_heap_mb" "MB" (float_of_int gc.Gc.heap_words *. 8.0 /. 1048576.0);
      metric "bench.reader_lag_p99_ms" "ms" (ms (percentile (Samples.to_array gaps) 0.99));
    ]
  in
  { attempted = nq * (1 + quick_group); failures; e2e; layers = layers @ process }
