(* The traced replay behind the per-layer metrics.

   A workload's requests are replayed in one thread against an
   in-process engine loaded the same way as the daemon's, calling each
   layer the way the daemon does: Json + Protocol decode, the Engine
   call, Protocol encode.  Spans around those calls come from this
   file; the engine's own spans (summary cache, bisection, WAL,
   merges, checkpoints) nest under them.  The same replay runs once
   untraced on a second, identical engine, and the difference in busy
   time is the tracing overhead. *)

open Common
module E = Hsq.Engine
module Trace = Hsq_obs.Trace
module Metrics = Hsq_obs.Metrics
module P = Hsq_serve.Protocol
module Json = Hsq_serve.Json
module IO = Hsq_storage.Io_stats
module BD = Hsq_storage.Block_device
module LI = Hsq_hist.Level_index

(* --- the daemon's request path, call for call ------------------------- *)

type result =
  | Applied of int
  | Stepped of LI.update_report
  | Quick_answer of int * int * float
  | Accurate_answer of int * int * E.query_report

let decode line =
  match Json.of_string line with
  | Error e -> fail "replay: undecodable request %s" e
  | Ok j -> ( match P.parse j with Ok r -> r | Error e -> fail "replay: bad request %s" e)

let rank_of eng = function
  | P.Rank r -> r
  | P.Phi p -> Inputs.rank_of_phi ~n:(E.total_size eng) p

let execute eng = function
  | P.Observe vals ->
    Array.iter (E.observe eng) vals;
    Applied (Array.length vals)
  | P.End_step -> Stepped (E.end_time_step eng)
  | P.Quick { target; _ } ->
    let rank = rank_of eng target in
    let v, bound = E.quick_with_bound eng ~rank in
    Quick_answer (v, rank, bound)
  | P.Accurate { target; _ } ->
    let rank = rank_of eng target in
    let v, report = E.accurate eng ~rank in
    Accurate_answer (v, rank, report)
  | _ -> fail "replay: request outside the workload"

(* The reply line the daemon renders for [r]. *)
let encode eng = function
  | Applied n -> P.ok [ ("applied", Json.int n) ]
  | Stepped rep ->
    P.ok [ ("step", Json.int (E.time_steps eng)); ("merges", Json.int rep.LI.merges_performed) ]
  | Quick_answer (v, rank, bound) ->
    P.ok [ ("value", Json.int v); ("rank", Json.int rank); ("bound", Json.Num bound) ]
  | Accurate_answer (v, rank, rep) ->
    P.ok
      [
        ("value", Json.int v);
        ("rank", Json.int rank);
        ("bound", Json.Num rep.E.rank_error_bound);
        ("degradation", Json.Str (E.degradation_label rep.E.degradation));
        ("iterations", Json.int rep.E.iterations);
        ("io", Json.int (IO.total rep.E.io));
      ]

let span_name = function
  | P.Observe _ -> "engine.observe"
  | P.End_step -> "engine.end_step"
  | P.Quick _ -> "engine.quick"
  | P.Accurate _ -> "engine.accurate"
  | _ -> "engine.other"

(* --- what the spans say ------------------------------------------------- *)

type agg = {
  decode : Samples.t; (* query requests only *)
  encode : Samples.t;
  quick_hit : Samples.t;
  quick_miss : Samples.t;
  accurate_busy : Samples.t; (* engine.accurate minus device read wait *)
  read_wait : Samples.t;
  observe : Samples.t; (* engine.observe per request *)
  commit : Samples.t;
  mutable elements : int;
  mutable iterations : int;
  mutable reads : int;
  mutable rand_reads : int;
  mutable sort_s : float;
  mutable load_s : float;
  mutable merge_s : float;
  mutable summary_s : float;
  mutable merges : int;
}

let new_agg () =
  {
    decode = Samples.create ();
    encode = Samples.create ();
    quick_hit = Samples.create ();
    quick_miss = Samples.create ();
    accurate_busy = Samples.create ();
    read_wait = Samples.create ();
    observe = Samples.create ();
    commit = Samples.create ();
    elements = 0;
    iterations = 0;
    reads = 0;
    rand_reads = 0;
    sort_s = 0.0;
    load_s = 0.0;
    merge_s = 0.0;
    summary_s = 0.0;
    merges = 0;
  }

let root tr name =
  match List.find_opt (fun s -> Trace.name s = name) (Trace.roots tr) with
  | Some s -> s
  | None -> fail "trace: no %s span" name

(* Fold one replayed request's spans into [a]. *)
let absorb a tr result ~wait =
  let d name = Trace.duration_s (root tr name) in
  match result with
  | Applied n ->
    a.elements <- a.elements + n;
    Samples.add a.observe (d "engine.observe")
  | Stepped rep ->
    Samples.add a.commit (d "engine.end_step");
    a.sort_s <- a.sort_s +. rep.LI.sort_seconds;
    a.load_s <- a.load_s +. rep.LI.load_seconds;
    a.merge_s <- a.merge_s +. rep.LI.merge_seconds;
    a.summary_s <- a.summary_s +. rep.LI.summary_seconds;
    a.merges <- a.merges + rep.LI.merges_performed
  | Quick_answer _ ->
    Samples.add a.decode (d "serve.decode");
    Samples.add a.encode (d "serve.encode");
    let span = root tr "engine.quick" in
    let missed =
      List.exists (fun s -> Trace.attr s "result" = Some "miss") (Trace.find_all span "summary_cache")
    in
    Samples.add (if missed then a.quick_miss else a.quick_hit) (Trace.duration_s span)
  | Accurate_answer (_, _, rep) ->
    Samples.add a.decode (d "serve.decode");
    Samples.add a.encode (d "serve.encode");
    Samples.add a.accurate_busy (d "engine.accurate" -. wait);
    Samples.add a.read_wait wait;
    a.iterations <- a.iterations + rep.E.iterations;
    a.reads <- a.reads + rep.E.io.IO.reads;
    a.rand_reads <- a.rand_reads + rep.E.io.IO.rand_reads

(* --- one replay --------------------------------------------------------- *)

type run = {
  busy_s : float; (* time inside the replayed calls, bookkeeping excluded *)
  agg : agg;
  io : IO.counters;
  cache : int * int; (* summary-cache hits and misses of the replayed quick queries *)
}

(* Replay [lines] on a fresh durable engine in [dir].  From index
   [slow_from] on, every physical block read sleeps [read_latency].
   With a tracer, each request's span trees are folded into the
   aggregate, the first few of each kind are appended to [dump], and the
   trace is cleared.  [after] runs on the engine once the timed replay
   is over. *)
let run ~dir ?tracer ?dump ?wal_sync ~read_latency ~slow_from ?(after = fun _ _ -> ()) lines =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let eng, _ = E.open_or_recover (engine_config ?wal_sync dir) in
  E.set_tracer eng tracer;
  let dev = E.device eng in
  let read_hist = Metrics.histogram (E.metrics eng) "hsq_device_read_seconds" in
  let io0 = IO.snapshot (BD.stats dev) in
  let a = new_agg () in
  let dumped = Hashtbl.create 8 in
  let busy = ref 0.0 in
  let step i line =
    if i = slow_from then BD.set_read_latency dev read_latency;
    let w0 = Metrics.Histogram.sum read_hist in
    match tracer with
    | None ->
      let t0 = now () in
      ignore (encode eng (execute eng (decode line)));
      busy := !busy +. (now () -. t0)
    | Some tr ->
      let t0 = now () in
      let req = Trace.with_span tr "serve.decode" (fun _ -> decode line) in
      let r = Trace.with_span tr (span_name req) (fun _ -> execute eng req) in
      ignore (Trace.with_span tr "serve.encode" (fun _ -> encode eng r));
      busy := !busy +. (now () -. t0);
      absorb a tr r ~wait:(Metrics.Histogram.sum read_hist -. w0);
      Option.iter
        (fun oc ->
          let name = span_name req in
          let seen = Option.value ~default:0 (Hashtbl.find_opt dumped name) in
          if seen < 5 then begin
            Hashtbl.replace dumped name (seen + 1);
            List.iter (fun s -> output_string oc (Trace.to_json s ^ "\n")) (Trace.roots tr)
          end)
        dump;
      Trace.clear tr
  in
  Array.iteri step lines;
  let io = IO.diff (IO.snapshot (BD.stats dev)) io0 in
  let busy_s = !busy and cache = (a.quick_hit.Samples.len, a.quick_miss.Samples.len) in
  after eng step;
  E.close eng;
  rm_rf dir;
  { busy_s; agg = a; io; cache }

(* --- the per-layer metrics ---------------------------------------------- *)

(* In-process replay figures; the wire and daemon readings are added by
   the caller, which also derives the wire overhead from these means. *)
type figures = {
  decode_us : float;
  encode_us : float;
  quick_us : float;
  metrics : metric list;
}

(* Traced and untraced replays of [lines].  After the traced replay,
   each of [miss_values] is observed and followed by a quick query, so
   the summary-cache miss path is timed even when the replay itself
   never writes. *)
let measure ~workload ?wal_sync ~read_latency ~slow_from ~miss_values lines =
  let untraced = run ~dir:"replay-untraced" ?wal_sync ~read_latency ~slow_from lines in
  let tr = Trace.create () in
  let oc = open_out (Printf.sprintf "spans-%s.jsonl" workload) in
  let quick_line = Json.to_string (Inputs.to_json (Inputs.Query (Inputs.Quick 0.5))) in
  let probe_misses eng step =
    Array.iteri
      (fun i v ->
        E.observe eng v;
        step (Array.length lines + i) quick_line)
      miss_values
  in
  let traced =
    run ~dir:"replay-traced" ~tracer:tr ~dump:oc ?wal_sync ~read_latency ~slow_from ~after:probe_misses
      lines
  in
  close_out oc;
  let a = traced.agg in
  let arr = Samples.to_array in
  let m name unit v = metric name unit v in
  let hits, misses = traced.cache in
  let per_elem x = x /. float_of_int (max 1 a.elements) in
  let steps = max 1 a.commit.Samples.len in
  let per_step s = ms s /. float_of_int steps in
  let accurate = max 1 a.read_wait.Samples.len in
  let decode_us = us (mean (arr a.decode)) and encode_us = us (mean (arr a.encode)) in
  let quick_us = us (mean (arr a.quick_hit)) in
  {
    decode_us;
    encode_us;
    quick_us;
    metrics =
      [
        m "serve.decode_us" "us" decode_us;
        m "serve.encode_us" "us" encode_us;
        m "engine.quick_us" "us" quick_us;
        m "engine.summary_cache_hit_ratio" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        m "engine.quick_miss_us" "us" (us (mean (arr a.quick_miss)));
        m "engine.accurate_cpu_ms" "ms" (ms (mean (arr a.accurate_busy)));
        m "engine.bisect_iterations" "count" (float_of_int a.iterations /. float_of_int accurate);
        m "device.rand_read_share" "ratio" (float_of_int a.rand_reads /. float_of_int (max 1 a.reads));
        m "device.read_wait_ms_per_query" "ms" (ms (mean (arr a.read_wait)));
        m "ingest.observe_us_per_elem" "us" (us (per_elem (Array.fold_left ( +. ) 0.0 (arr a.observe))));
        m "wal.appends_per_elem" "count" (per_elem (float_of_int traced.io.IO.wal_appends));
        m "wal.syncs_per_1k_elems" "count" (1000.0 *. per_elem (float_of_int traced.io.IO.wal_syncs));
        m "step.commit_p50_ms" "ms" (ms (median (arr a.commit)));
        m "step.commit_p90_ms" "ms" (ms (percentile (arr a.commit) 0.9));
        m "step.sort_ms" "ms" (per_step a.sort_s);
        m "step.load_ms" "ms" (per_step a.load_s);
        m "step.merge_ms" "ms" (per_step a.merge_s);
        m "step.summary_ms" "ms" (per_step a.summary_s);
        m "step.merges" "count" (float_of_int a.merges);
        m "checkpoint.count" "count" (float_of_int traced.io.IO.checkpoints_written);
        m "bench.trace_overhead_pct" "%"
          (100.0 *. (traced.busy_s -. untraced.busy_s) /. untraced.busy_s);
      ];
  }
