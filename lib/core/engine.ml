(* The integrated historical + streaming quantile engine — the paper's
   primary contribution (Sections 2.1-2.3).

   Lifecycle per time step (Figure 1):
     observe       -- every stream element is logged (when durable) and
                      buffered; each full 512-element buffer is sorted,
                      merged into the GK sketch and spooled into the
                      current batch;
     end_time_step -- the rest of the buffer is handed off the same way,
                      the batch's sorted runs are merged and loaded into
                      the historical level index (Algorithm 3) and the
                      stream sketch is reset (Algorithm 4, StreamReset).
   Reads merge the buffer into a copy of the sketch and never hand it
   off, so the sketch depends only on the observed values and the step
   ends, and recovery's replay of the WAL rebuilds it exactly.

   Queries:
     quick    -- Algorithm 5, in-memory only, O(eps*N) rank error;
     accurate -- Algorithms 6-8, a value-domain binary search narrowed
                 by summaries with disk rank probes, O(eps*m) error. *)

module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace

(* Query-path observability.  The quick path runs in ~100ns out of the
   summary cache, so its counters must stay a single machine operation:
   they are [Atomic.t] ints, so an exporter on another thread reads them
   without a lock; they are exported pull-style through
   [Metrics.counter_fn].  Latency on the quick path is sampled
   1-in-64 (a gettimeofday pair costs ~half the whole query); the
   accurate path is ms-scale and always timed. *)
type engine_metrics = {
  quick_total : int Atomic.t;
  accurate_total : int Atomic.t;
  sc_hits : int Atomic.t; (* summary-cache hits *)
  sc_misses : int Atomic.t;
  degraded_total : int Atomic.t;
  quick_hist : Metrics.Histogram.t;
  accurate_hist : Metrics.Histogram.t;
  bisect_hist : Metrics.Histogram.t; (* bisection iterations per accurate query *)
}

let quick_sample_mask = 63

let make_engine_metrics dev =
  let r = Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats dev) in
  let em =
    {
      quick_total = Atomic.make 0;
      accurate_total = Atomic.make 0;
      sc_hits = Atomic.make 0;
      sc_misses = Atomic.make 0;
      degraded_total = Atomic.make 0;
      quick_hist =
        Metrics.histogram ~help:"Quick query latency (sampled 1-in-64)" r
          "hsq_query_quick_seconds";
      accurate_hist = Metrics.histogram ~help:"Accurate query latency" r "hsq_query_accurate_seconds";
      bisect_hist =
        Metrics.histogram ~help:"Bisection iterations per accurate query" ~start:1.0 ~factor:2.0
          ~buckets:10 r "hsq_query_bisect_iterations";
    }
  in
  Metrics.counter_fn ~help:"Quick queries served" r "hsq_query_quick_total" (fun () ->
      Atomic.get em.quick_total);
  Metrics.counter_fn ~help:"Accurate queries served" r "hsq_query_accurate_total" (fun () ->
      Atomic.get em.accurate_total);
  Metrics.counter_fn ~help:"Union-summary cache hits" r "hsq_query_summary_cache_hits_total"
    (fun () -> Atomic.get em.sc_hits);
  Metrics.counter_fn ~help:"Union-summary cache misses" r "hsq_query_summary_cache_misses_total"
    (fun () -> Atomic.get em.sc_misses);
  Metrics.counter_fn ~help:"Accurate queries degraded to the quick path" r
    "hsq_query_degraded_total" (fun () -> Atomic.get em.degraded_total);
  em

(* Durable-ingest state (Engine.open_or_recover): the write-ahead log,
   the one durable copy of the open step's elements (it is rotated only
   at a step end, and recovery replays all of it).  [None] = the stream
   is volatile, as in the paper. *)
type durability = {
  wal : Hsq_storage.Wal.t;
  meta_path : string; (* warehouse sidecar — the rollover commit record *)
}

type t = {
  config : Config.t;
  dev : Hsq_storage.Block_device.t;
  hist : Hsq_hist.Level_index.t;
  mutable gk : Hsq_sketch.Gk.t;
  (* The open step's spool: every handed-off element, one sorted run
     per hand-off. *)
  mutable batch : int array;
  mutable batch_len : int;
  (* The one ingest buffer (DESIGN.md §15): acknowledged elements not
     yet in [gk] or [batch].  It is handed off only when full and at a
     step end; reads merge it into a copy of [gk] instead, so no answer
     or count misses an element and none changes the sketch. *)
  pending : int array;
  mutable pending_len : int;
  sorted : int array; (* a hand-off's sorted run, reused *)
  counts : int array; (* the hand-off sort's radix histogram, reused *)
  mutable durable : durability option;
  (* The summary cache of a query view whose first source is this
     engine (see key_of): the historical aggregate of the view's active
     partitions and the union summary built over it.  The aggregate
     stands while each source's epoch does — the historical side of TS
     only changes at end_time_step / merge / expire / quarantine /
     recovery — and the summary while each stream size does too: a
     sketch mutates only on insert (the count strictly grows within a
     step) and end_time_step both resets it and bumps the epoch, so an
     unchanged key means an unchanged TS, and repeated queries between
     ingests skip even the stream extraction and the build. *)
  mutable summary_cache :
    ((t * int * int) list * Union_summary.hist_agg * Union_summary.t) option;
  metrics : engine_metrics;
  (* Tracing is opt-in per engine (set_tracer); mirrored onto the
     device's Io_stats so WAL and merge sites pick it up. *)
  mutable tracer : Trace.t option;
  (* Set by the first close/crash; later close/crash/sync
     calls become no-ops so overlapping shutdown paths (signal handler
     + drain, test teardown + explicit close) are safe. *)
  mutable closed : bool;
}

(* How far an answer fell from the full O(eps*m) contract, in order of
   increasing severity.  `Quarantined carries the number of elements
   the excluded partitions hold — the bound widening. *)
type degradation =
  [ `None | `Quarantined of int | `Deadline | `Device_open ]

type query_report = {
  io : Hsq_storage.Io_stats.counters;
  iterations : int; (* value-domain bisection steps (Algorithm 8 calls) *)
  degradation : degradation;
  rank_error_bound : float; (* upper bound on |rank(answer) - rank|
                               under the degradation above *)
  span : Trace.span option; (* the query's root trace span when tracing
                               is on (set_tracer); None otherwise *)
}

let degradation_label : degradation -> string = function
  | `None -> "none"
  | `Quarantined _ -> "quarantined"
  | `Deadline -> "deadline"
  | `Device_open -> "device_open"

let fresh_gk config =
  match Config.gk_epsilon config with
  | Some eps -> Hsq_sketch.Gk.create ~epsilon:eps
  | None -> (
    match Config.stream_words config with
    | Some words -> Hsq_sketch.Gk.create_capped ~words
    | None -> assert false)

(* Elements buffered between hand-offs into the stream sketch: one
   sorted merge of this many replaces as many per-element GK inserts. *)
let handoff_size = 512

(* An engine over [device] and [hist] with an empty stream side.  The
   loader ([load_warehouse]) adopts a restored historical index this
   way, and [open_or_recover] refills the stream side from the WAL. *)
let of_restored ~device config hist =
  {
    config;
    dev = device;
    hist;
    gk = fresh_gk config;
    batch = Array.make 1024 0;
    batch_len = 0;
    pending = Array.make handoff_size 0;
    pending_len = 0;
    sorted = Array.make handoff_size 0;
    counts = Hsq_util.Sorted.radix_counts ();
    durable = None;
    summary_cache = None;
    metrics = make_engine_metrics device;
    tracer = None;
    closed = false;
  }

let create ?device config =
  let device =
    match device with
    | Some d -> d
    | None -> Hsq_storage.Block_device.create_memory ~block_size:config.Config.block_size ()
  in
  let hist =
    Hsq_hist.Level_index.create ~kappa:config.Config.kappa ~beta1:(Config.beta1 config) device
  in
  of_restored ~device config hist

let config t = t.config
let device t = t.dev

(* The engine's metric registry — the device's, where every subsystem
   below (Io_stats, WAL, level index, buffer pool) registers too. *)
let metrics t = Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats t.dev)

let note_accurate t ~seconds ~iterations ~degraded =
  let em = t.metrics in
  Atomic.incr em.accurate_total;
  Metrics.Histogram.observe em.accurate_hist seconds;
  Metrics.Histogram.observe em.bisect_hist (float_of_int iterations);
  if degraded then Atomic.incr em.degraded_total

let set_tracer t tr =
  t.tracer <- tr;
  Hsq_storage.Io_stats.set_tracer (Hsq_storage.Block_device.stats t.dev) tr

(* Hand the buffered elements off: one sorted merge into the sketch
   (StreamUpdate, Algorithm 4, batched) and one run onto the step spool.
   Called only at the two points the log also fixes — a full buffer and
   a step end — so replay repeats every hand-off and the sketch is a
   function of the acknowledged stream alone.  The run is radix-sorted
   into [sorted] without allocating, and the sketch and the spool copy
   it from there; the spool copies with a typed loop, which skips the
   write barrier that [Array.blit] pays per word of a major-heap
   array. *)
let hand_off t =
  let n = t.pending_len in
  if n > 0 then begin
    Hsq_util.Sorted.sort_into ~counts:t.counts t.pending n t.sorted;
    t.pending_len <- 0;
    let run = if n = handoff_size then t.sorted else Array.sub t.sorted 0 n in
    Hsq_sketch.Gk.insert_sorted_batch t.gk run;
    let base = t.batch_len in
    let need = base + n in
    if need > Array.length t.batch then begin
      let bigger = Array.make (max need (2 * Array.length t.batch)) 0 in
      Array.blit t.batch 0 bigger 0 base;
      t.batch <- bigger
    end;
    let batch = t.batch in
    for i = 0 to n - 1 do
      batch.(base + i) <- run.(i)
    done;
    t.batch_len <- need
  end

(* Buffer one acknowledged element, handing off a full buffer — the
   in-memory effect of one observe, shared by live ingest and replay. *)
let buffer t v =
  t.pending.(t.pending_len) <- v;
  t.pending_len <- t.pending_len + 1;
  if t.pending_len = handoff_size then hand_off t

let hist t = t.hist

(* The pending elements, in a fresh sorted array, radix-sorted from a
   copy as a hand-off sorts them. *)
let sorted_pending t =
  let n = t.pending_len in
  let run = Array.make n 0 in
  Hsq_util.Sorted.sort_into ~counts:t.counts (Array.sub t.pending 0 n) n run;
  run

(* The sketch a hand-off right now would leave: [gk] itself on an empty
   buffer, else a copy with the pending run merged in.  Reads never
   hand off, so they leave [gk] exactly as ingest made it. *)
let stream_sketch t =
  if t.pending_len = 0 then t.gk
  else begin
    let gk = Hsq_sketch.Gk.copy t.gk in
    Hsq_sketch.Gk.insert_sorted_batch gk (sorted_pending t);
    gk
  end

let stream_size t = Hsq_sketch.Gk.count t.gk + t.pending_len
let hist_size t = Hsq_hist.Level_index.total_elements t.hist
let total_size t = hist_size t + stream_size t
let time_steps t = Hsq_hist.Level_index.time_steps t.hist

(* eps2 as the engine currently provides it (2x the GK sketch's eps —
   see Config); eps = 4*eps2 inverts Algorithm 1.  A capped sketch's
   eps grows with its inserts, pending ones included. *)
let eps2 t = 2.0 *. Hsq_sketch.Gk.epsilon (stream_sketch t)
let epsilon t = 4.0 *. eps2 t

let memory_words t =
  Hsq_hist.Level_index.memory_words t.hist + Hsq_sketch.Gk.memory_words (stream_sketch t)

let observe_batch t vs =
  match t.durable with
  | None -> Array.iter (buffer t) vs
  | Some d -> (
    (* WAL first, as one run: the values it acknowledges — all of them,
       or the prefix before an append fault — are buffered; the rest
       are unacknowledged and leave in-memory state untouched. *)
    match Hsq_storage.Wal.append_observes d.wal vs with
    | () -> Array.iter (buffer t) vs
    | exception (Hsq_storage.Wal.Partial (j, _) as e) ->
      for k = 0 to j - 1 do
        buffer t vs.(k)
      done;
      raise e)

(* One element, WAL first: [observe_batch] on [[| v |]], without the
   array. *)
let observe t v =
  (match t.durable with Some d -> Hsq_storage.Wal.append_observe d.wal v | None -> ());
  buffer t v

(* No-op once closed: the WAL channel is gone, and a post-close sync
   (e.g. a drain path racing a signal handler) must not raise on it. *)
let sync t =
  if not t.closed then Option.iter (fun d -> Hsq_storage.Wal.sync d.wal) t.durable

let save_meta t path =
  Meta.write ~path
    (Meta.render ~config:t.config ~descriptors:(Hsq_hist.Level_index.describe t.hist))

let commit_meta t =
  match t.durable with
  | Some d when not t.closed -> save_meta t d.meta_path
  | Some _ | None -> ()

type scrub_report = {
  partitions_checked : int;
  blocks_read : int;
  errors : string list;
  quarantined : int;
  reinstated : int;
  still_quarantined : int;
}

(* Re-read every live partition front to back.  Each block read verifies
   its embedded checksum (Block_device), and the scan checks the
   partition is globally sorted and element-complete — so bit rot, torn
   writes, and shuffled blocks all surface here as errors rather than as
   silently wrong quantiles.  Cost: one sequential pass over the live
   data, charged to the device counters like everything else. *)
let scrub ?(repair = false) t =
  let hist = t.hist in
  let stats = Hsq_storage.Block_device.stats t.dev in
  let registry = Hsq_storage.Io_stats.registry stats in
  let before = Hsq_storage.Io_stats.snapshot stats in
  (* Already-quarantined partitions are not cursor-scanned here (their
     blocks are presumed bad); with [repair] they go through
     [Level_index.reinstate], which performs this same verification
     itself and swaps a rebuilt summary in on success. *)
  let parts = Hsq_hist.Level_index.active_partitions hist in
  let pre_quarantined = Hsq_hist.Level_index.quarantined hist in
  let check p =
    let run = Hsq_hist.Partition.run p in
    let first_block = Hsq_storage.Run.first_block run in
    try
      let c = Hsq_storage.Run.cursor run in
      let prev = ref min_int in
      let count = ref 0 in
      let bad_order = ref None in
      let rec scan () =
        match Hsq_storage.Run.cursor_next c with
        | None -> ()
        | Some v ->
          if v < !prev && !bad_order = None then bad_order := Some !count;
          prev := v;
          incr count;
          scan ()
      in
      scan ();
      match !bad_order with
      | Some i ->
        Some (Printf.sprintf "partition at block %d: unsorted at element %d" first_block i)
      | None ->
        if !count <> Hsq_storage.Run.length run then
          Some
            (Printf.sprintf "partition at block %d: read %d of %d elements" first_block
               !count (Hsq_storage.Run.length run))
        else None
    with Hsq_storage.Block_device.Device_error msg ->
      Some (Printf.sprintf "partition at block %d: %s" first_block msg)
  in
  let newly_quarantined = ref 0 in
  let scan_errors =
    List.filter_map
      (fun p ->
        match check p with
        | None -> None
        | Some e ->
          if repair then begin
            Hsq_hist.Level_index.quarantine_partition hist p;
            incr newly_quarantined
          end;
          Some e)
      parts
  in
  let reinstated = ref 0 in
  let reinstate_errors =
    if not repair then []
    else
      List.filter_map
        (fun p ->
          match Hsq_hist.Level_index.reinstate hist p with
          | Ok () ->
            incr reinstated;
            None
          | Error msg ->
            Some
              (Printf.sprintf "partition at block %d: still quarantined: %s"
                 (Hsq_storage.Run.first_block (Hsq_hist.Partition.run p))
                 msg))
        pre_quarantined
  in
  (* A device fault mid-ingest can leave a level over κ with the merge
     deferred; a repairing scrub is the convergence point, so retry
     those merges now that the partitions are (re-)verified. *)
  let merged = if repair then Hsq_hist.Level_index.run_deferred_merges hist else 0 in
  (* A repair that changed the archived layout commits it, as a step
     commit would: the quarantine set must survive a reopen, or the
     store serves the damaged partition again. *)
  if !newly_quarantined > 0 || !reinstated > 0 || merged > 0 then commit_meta t;
  let errors = scan_errors @ reinstate_errors in
  let io = Hsq_storage.Io_stats.diff (Hsq_storage.Io_stats.snapshot stats) before in
  let report =
    {
      partitions_checked = List.length parts;
      blocks_read = io.Hsq_storage.Io_stats.reads;
      errors;
      quarantined = !newly_quarantined;
      reinstated = !reinstated;
      still_quarantined = Hsq_hist.Level_index.quarantined_count hist;
    }
  in
  (* Last-scrub outcome, exported for `hsq status --health`. *)
  let set name help v = Metrics.Gauge.set (Metrics.gauge ~help registry name) v in
  set "hsq_scrub_last_errors" "Errors found by the most recent scrub"
    (float_of_int (List.length errors));
  set "hsq_scrub_last_reinstated" "Partitions reinstated by the most recent scrub"
    (float_of_int !reinstated);
  set "hsq_scrub_last_quarantined" "Partitions quarantined by the most recent scrub"
    (float_of_int !newly_quarantined);
  set "hsq_scrub_last_time_s" "Wall-clock time of the most recent scrub" (Metrics.now_s ());
  report

(* Load the batch into the warehouse and reset the stream sketch
   (HistUpdate + StreamReset).

   Durable rollover protocol (exactly-once):
     1. append an [End_step] marker carrying the prospective step
        number and force a sync — whatever the policy, a commit is a
        flush;
     2. add the batch to the level index and write the warehouse
        sidecar — the sidecar rename is THE commit point;
     3. rotate the WAL (atomic truncation).
   A crash between 1 and 2 replays the step from the log; between 2
   and 3 the marker's step number is <= the recovered warehouse's step
   count, so replay skips the re-ingest — never a double archive. *)
let end_time_step t =
  hand_off t;
  if t.batch_len = 0 then invalid_arg "Engine.end_time_step: empty batch";
  let commit () =
    (* add_batch sorts the spool's prefix in place: a failed commit
       leaves the same multiset, sorted, and a retry writes what the
       first attempt would have. *)
    let report = Hsq_hist.Level_index.add_batch ~len:t.batch_len t.hist t.batch in
    t.batch_len <- 0;
    t.gk <- fresh_gk t.config;
    report
  in
  match t.durable with
  | None -> commit ()
  | Some d ->
    let step = Hsq_hist.Level_index.time_steps t.hist + 1 in
    ignore (Hsq_storage.Wal.append d.wal (Hsq_storage.Wal.End_step { step; count = t.batch_len }));
    Hsq_storage.Wal.sync d.wal;
    let report = commit () in
    save_meta t d.meta_path;
    Hsq_storage.Wal.rotate d.wal;
    report

let ingest_batch t batch =
  (try observe_batch t batch with Hsq_storage.Wal.Partial (_, e) -> raise e);
  end_time_step t

(* Retention passthrough: keep only the last [keep_steps] archived
   steps (whole partitions; see Level_index.expire). *)
let expire t ~keep_steps = Hsq_hist.Level_index.expire t.hist ~keep_steps

let stream_summary t = Stream_summary.extract (stream_sketch t)

let open_step t =
  let elements = Array.append (Array.sub t.batch 0 t.batch_len) (sorted_pending t) in
  Hsq_util.Sorted.sort_runs elements;
  elements

(* ------------------------------------------------------------------ *)
(* Queries: one view over one or more sources.                         *)
(* ------------------------------------------------------------------ *)

(* A query reads one or more sources: a lone engine is one, and a shard
   group reads one replica per shard.  A source selects every archived
   partition ([parts = None]) or the given ones, and the open step's
   stream or not.  The view adds the elements no source holds (a shard
   group's shards with no live replica): every answer's bound widens by
   [widen]. *)
type source = { engine : t; parts : Hsq_hist.Partition.t list option; stream : bool }
type view = { sources : source list; widen : int }

let source t = { engine = t; parts = None; stream = true }
let solo t = { sources = [ source t ]; widen = 0 }
let whole s = s.stream && Option.is_none s.parts

(* The partitions [s] selects, quarantined ones included, newest first. *)
let selected s =
  match s.parts with None -> Hsq_hist.Level_index.partitions s.engine.hist | Some ps -> ps

(* The selected partitions a query may probe.  A quarantined
   partition's summary may be degenerate (restored without reading its
   bad blocks), so views exclude it and widen their bound instead. *)
let active s =
  List.filter (fun p -> not (Hsq_hist.Level_index.is_quarantined s.engine.hist p)) (selected s)

(* The quarantined elements [s] selects, O(1) when it selects every
   partition. *)
let quarantined_in s =
  match s.parts with
  | None -> Hsq_hist.Level_index.quarantined_elements s.engine.hist
  | Some ps ->
    List.fold_left
      (fun acc p ->
        if Hsq_hist.Level_index.is_quarantined s.engine.hist p then
          acc + Hsq_hist.Partition.size p
        else acc)
      0 ps

(* Re-read on every call: a quarantine earlier in a query widens every
   later answer too. *)
let quarantined sources = List.fold_left (fun acc s -> acc + quarantined_in s) 0 sources

let streams sources =
  List.filter_map (fun s -> if s.stream then Some (stream_summary s.engine) else None) sources

(* The summary cache of a view that reads every source whole lives in
   its first engine.  Its key names each engine by identity, so an
   engine that replaces another (a repaired or rejoined replica) never
   matches an entry built over the one it replaced, and carries the
   level-index epoch (partition add / merge / expire / quarantine /
   restore all bump it) and the stream size, which only the built
   summary compares (see the summary_cache field). *)
let key_of sources =
  List.map
    (fun s -> (s.engine, Hsq_hist.Level_index.epoch s.engine.hist, stream_size s.engine))
    sources

let rec current ~stream key sources =
  match (key, sources) with
  | [], [] -> true
  | (e, epoch, count) :: key, s :: sources ->
    e == s.engine
    && epoch = Hsq_hist.Level_index.epoch e.hist
    && ((not stream) || count = stream_size e)
    && current ~stream key sources
  | _ -> false

let aggregate parts sources =
  Union_summary.hist_aggregate ~partitions:(List.concat_map parts sources)

(* The cached union summary, reused verbatim while no source moved;
   when only stream sizes moved, rebuilt over the cached aggregate, so
   steady-state queries cost O(S_stream + S_hist) instead of
   O(S·P·log β1).  Re-extracting from an unchanged GK sketch is pure, so
   a hit returns exactly what a rebuild would produce. *)
let cached_summary owner sources =
  match owner.summary_cache with
  | Some (key, _, us) when current ~stream:true key sources ->
    (* Hits and misses count in every source's metrics. *)
    List.iter (fun s -> Atomic.incr s.engine.metrics.sc_hits) sources;
    (match owner.tracer with
    | Some tr ->
      Trace.with_span tr ~attrs:[ ("result", "hit") ] "summary_cache" (fun _ -> ())
    | None -> ());
    us
  | cached ->
    List.iter (fun s -> Atomic.incr s.engine.metrics.sc_misses) sources;
    let rebuild () =
      let agg =
        match cached with
        | Some (key, agg, _) when current ~stream:false key sources -> agg
        | _ -> aggregate active sources
      in
      let us = Union_summary.build ~agg ~streams:(streams sources) in
      owner.summary_cache <- Some (key_of sources, agg, us);
      us
    in
    (match owner.tracer with
    | Some tr ->
      Trace.with_span tr ~attrs:[ ("result", "miss") ] "summary_cache" (fun _ -> rebuild ())
    | None -> rebuild ())

(* The sources' union summary over the partitions [parts] picks from
   each, built afresh. *)
let fresh parts sources =
  Union_summary.build ~agg:(aggregate parts sources) ~streams:(streams sources)

(* The view's union summary over its active partitions and its streams:
   cached when every source is read whole, built afresh for a step
   range. *)
let summary sources =
  match sources with
  | owner :: _ when List.for_all whole sources -> cached_summary owner.engine sources
  | _ -> fresh active sources

let union_summary t = summary [ source t ]

(* The memory answers' last resort, when quarantine has emptied the
   active view (empty stream, every selected partition quarantined) yet
   archived data exists: a union over the whole selection.  Quarantine
   marks a partition's blocks unreadable, but its in-memory summary
   still describes its elements, so the windows stay honest (wide for a
   sidecar-restored quarantined partition, which contributes
   [0, size]) and already cover the quarantined elements: no further
   widening for them. *)
let whole_summary sources ~who =
  let us = fresh selected sources in
  if Union_summary.size us = 0 then invalid_arg (who ^ ": no data");
  us

(* Algorithm 5 plus, when [bounded], the rank window it can be off by:
   [max (U - r) (r - L)] from the union summary's Lemma 2 windows,
   widened by the quarantined elements (their ranks are unknown in
   [0, size]) and the view's [widen], and the quarantined count it
   widened by.  Unbounded, the answer comes alone, with a 0 bound and
   count. *)
let memory_quick ~bounded view ~rank =
  let us = summary view.sources in
  let live = Union_summary.n_total us > 0 in
  let us = if live then us else whole_summary view.sources ~who:"Engine.quick" in
  if not bounded then (Bisection.memory_value us ~rank, 0.0, 0)
  else
    let q = if live then quarantined view.sources else 0 in
    let v, bound = Bisection.memory_answer us ~rank ~widen:(q + view.widen) in
    (v, bound, q)

let timed_quick ~bounded view ~rank =
  let t0 = Metrics.now_s () in
  let answer = memory_quick ~bounded view ~rank in
  let seconds = Metrics.now_s () -. t0 in
  List.iter (fun s -> Metrics.Histogram.observe s.engine.metrics.quick_hist seconds) view.sources;
  answer

(* Every quick answer, counted in each source's metrics.  ~140ns steady
   state: the instrumentation here must stay to a couple of machine
   operations, so latency is sampled, not always measured (see
   engine_metrics), unless the first source's engine traces. *)
let quick_view ~bounded view ~rank =
  match view.sources with
  | [] -> invalid_arg "Engine.quick: no data"
  | first :: _ -> (
    List.iter (fun s -> Atomic.incr s.engine.metrics.quick_total) view.sources;
    match first.engine.tracer with
    | None ->
      if Atomic.get first.engine.metrics.quick_total land quick_sample_mask = 0 then
        timed_quick ~bounded view ~rank
      else memory_quick ~bounded view ~rank
    | Some tr ->
      Trace.with_span tr ~attrs:[ ("rank", string_of_int rank) ] "query.quick" (fun _ ->
          timed_quick ~bounded view ~rank))

let quick_over view ~rank = quick_view ~bounded:true view ~rank

let quick_with_bound t ~rank =
  let v, bound, _ = quick_over (solo t) ~rank in
  (v, bound)

let quick t ~rank =
  let v, _, _ = quick_view ~bounded:false (solo t) ~rank in
  v

type failover = { reach : t list; condemn : t -> bool }

(* Algorithms 6-8 over [choose ()]'s view: the shared bisection
   (Bisection) over its sources' active partitions and streams, under
   the one failure policy.  Every probe failure either quarantines its
   partition, and the query re-fetches its view, or advances the
   partition's consecutive-failure count toward [quarantine_after], so
   the retry loop terminates; the retry cap is belt and braces.  A
   breaker-open device means the fault is not this partition's: the
   engine is condemned, and the query re-fetches a view without it or,
   with no [failover], answers from memory and leaves healthy
   partitions alone. *)
let accurate_over ?(tolerance_factor = 0.5) ?deadline_ms ?failover ~config choose ~rank =
  let tq0 = Metrics.now_s () in
  let first = choose () in
  let { reach; condemn } =
    match failover with
    | Some f -> f
    | None -> { reach = List.map (fun s -> s.engine) first.sources; condemn = (fun _ -> false) }
  in
  let last = ref first in
  let fetch view =
    last := view;
    let us = summary view.sources in
    if Union_summary.n_total us > 0 then
      let probes =
        List.concat_map (fun s -> List.map (fun p -> (s.engine, p)) (active s)) view.sources
      in
      Bisection.Bisect { Bisection.summary = us; probes; meta = view }
    else
      let us = whole_summary view.sources ~who:"Engine.accurate" in
      Bisection.From_memory (us, `Device_open, view.widen)
  in
  let threshold = config.Config.quarantine_after in
  let max_retries =
    List.fold_left
      (fun acc e -> acc + (Hsq_hist.Level_index.partition_count e.hist * threshold) + 1)
      1 reach
  in
  let policy =
    {
      Bisection.outcome =
        (fun { Bisection.meta = view; _ } ending ->
          let q = quarantined view.sources in
          ( (match ending with
            | `Completed -> if q > 0 then `Quarantined q else `None
            | `Deadline -> `Deadline),
            q + view.widen ));
      note_success = (fun e p -> Hsq_hist.Level_index.note_probe_success e.hist p);
      on_failure =
        (fun ~tries src e p ->
          if
            Hsq_storage.Block_device.breaker_state e.dev = Hsq_storage.Breaker.Open
            || tries >= max_retries
          then
            if condemn e then fetch (choose ())
            else
              let view = src.Bisection.meta in
              Bisection.From_memory
                (src.Bisection.summary, `Device_open, quarantined view.sources + view.widen)
          else if Hsq_hist.Level_index.note_probe_failure e.hist p ~threshold then
            fetch (choose ())
          else Bisection.Bisect src);
    }
  in
  let tracer = match first.sources with s :: _ -> s.engine.tracer | [] -> None in
  let { Bisection.answer; degradation; bound = rank_error_bound; iterations; io; span } =
    Bisection.run
      ?trace:(Option.map (fun trc -> (trc, degradation_label)) tracer)
      ?deadline_at:(Bisection.deadline_at ~start:tq0 ?deadline_ms config)
      ~stats:(List.map (fun e -> Hsq_storage.Block_device.stats e.dev) reach)
      ~tolerance_factor ~policy ~rank (fun () -> fetch first)
  in
  let seconds = Metrics.now_s () -. tq0 in
  List.iter
    (fun s -> note_accurate s.engine ~seconds ~iterations ~degraded:(degradation <> `None))
    !last.sources;
  (answer, { io; iterations; degradation; rank_error_bound; span })

let accurate ?tolerance_factor ?deadline_ms t ~rank =
  accurate_over ?tolerance_factor ?deadline_ms ~config:t.config (fun () -> solo t) ~rank

(* Inverse query: estimated rank of an arbitrary value in T.  The
   historical part is exact (summary-bounded binary searches); the
   stream part comes from SS, so the error is at most ~eps2*m. *)
let rank_of t v =
  let hist = Hsq_hist.Level_index.rank t.hist v in
  let ss = stream_summary t in
  hist + int_of_float (Float.round (Stream_summary.rank_estimate ss v))

let rank_of_phi = Bisection.rank_of_phi ~who:"Engine"

let quantile t phi =
  let n = total_size t in
  if n = 0 then invalid_arg "Engine.quantile: no data";
  accurate t ~rank:(rank_of_phi ~n phi)

(* Refusals of the step-range selectors, which Shard_group answers;
   the server and callers match them as Engine constructors. *)
type window_error = Window_not_aligned of int list
type range_error = Range_not_aligned of (int * int) list

(* ------------------------------------------------------------------ *)
(* Durable ingest: the recovery manager.                               *)
(* ------------------------------------------------------------------ *)

type recovery_report = {
  replayed : int; (* WAL records re-applied *)
  steps_reingested : int; (* End_step markers re-archived *)
  steps_skipped : int; (* End_step markers already in the warehouse *)
  wal_tail : string option; (* why the log tail was floored, if it was *)
}

type durability_status = {
  wal_path : string;
  wal_start_seq : int;
  wal_next_seq : int;
  wal_pending : int;
}

let device_file = "device.blocks"
let meta_file = "meta"
let wal_file = "wal.log"

(* The sketch checkpoint older builds wrote beside the WAL; an open
   deletes it unread. *)
let legacy_checkpoint_file = "checkpoint"

let store_paths ~dir =
  (Filename.concat dir device_file, Filename.concat dir meta_file, Filename.concat dir wal_file)

let load_warehouse ~dir =
  let device_path, meta_path, _ = store_paths ~dir in
  let config, descriptors = Meta.read meta_path in
  let device =
    Hsq_storage.Block_device.open_file ~block_size:config.Config.block_size ~path:device_path ()
  in
  match Meta.restore ~device config descriptors with
  | hist -> of_restored ~device config hist
  | exception e ->
    (* A damaged warehouse keeps no handle open: a rejoin copies a
       sibling's store over it and opens again. *)
    Hsq_storage.Block_device.close device;
    raise e

(* An open writes the sidecar and the log before it returns, so a store
   that was ever opened holds one of them. *)
let store_exists ~dir =
  Sys.file_exists (Filename.concat dir meta_file) || Sys.file_exists (Filename.concat dir wal_file)

exception Unsupported_store of string

(* A store written with the removed multi-lane ingest keeps acknowledged
   elements in wal-<d>.log files that nothing here replays: refuse it
   rather than open it without them. *)
let check_store ~dir =
  let lane_log name =
    String.starts_with ~prefix:"wal-" name
    && Filename.check_suffix name ".log"
    && Option.is_some (int_of_string_opt (String.sub name 4 (String.length name - 8)))
  in
  if Sys.file_exists dir && Sys.is_directory dir then
    match List.find_opt lane_log (List.sort compare (Array.to_list (Sys.readdir dir))) with
    | None -> ()
    | Some name ->
      raise
        (Unsupported_store
           (Printf.sprintf
              "%s holds ingest-lane log %s, written with --ingest-domains > 1; open the store \
               once with an hsq build that still has --ingest-domains, at --ingest-domains 1, \
               to consolidate it into %s"
              dir name wal_file))

let open_or_recover config =
  let dir =
    match config.Config.wal_dir with
    | Some d -> d
    | None -> invalid_arg "Engine.open_or_recover: config.wal_dir not set"
  in
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      invalid_arg "Engine.open_or_recover: wal_dir is not a directory"
  end
  else Sys.mkdir dir 0o755;
  check_store ~dir;
  let device_path, meta_path, wal_path = store_paths ~dir in
  (* Warehouse first.  The sidecar is the commit record: without it the
     device file holds no committed state and is reinitialised. *)
  let t =
    if Sys.file_exists meta_path then begin
      let t = load_warehouse ~dir in
      (* Structural fields come from the sidecar (they describe the
         on-disk layout); durability settings are runtime policy and
         stay the caller's. *)
      {
        t with
        config =
          { t.config with Config.wal_dir = config.Config.wal_dir; wal_sync = config.Config.wal_sync };
      }
    end
    else begin
      if Sys.file_exists device_path then Sys.remove device_path;
      let device =
        Hsq_storage.Block_device.create_file ~block_size:config.Config.block_size
          ~path:device_path ()
      in
      create ~device config
    end
  in
  (* A checkpoint an older build left goes before the log is touched. *)
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.file_exists path then begin
        Sys.remove path;
        Hsq_storage.Atomic_file.fsync_dir dir
      end)
    [ legacy_checkpoint_file; legacy_checkpoint_file ^ ".tmp" ];
  let reingested = ref 0 and skipped = ref 0 in
  let drop_step () =
    t.batch_len <- 0;
    t.gk <- fresh_gk t.config
  in
  (* The whole log replays through the ingest buffer as it is read, so
     every hand-off falls where it fell live. *)
  let replay () _ = function
    | Hsq_storage.Wal.Observe v -> buffer t v
    | Hsq_storage.Wal.End_step { step; count = _ } ->
      hand_off t;
      if step <= Hsq_hist.Level_index.time_steps t.hist then begin
        (* The step committed before the crash (sidecar written, WAL
           not yet rotated): drop the replayed batch, never archive
           twice. *)
        drop_step ();
        incr skipped
      end
      else if t.batch_len = 0 then
        (* A marker with no surviving elements (damaged log): nothing
           to archive. *)
        incr skipped
      else begin
        ignore (Hsq_hist.Level_index.add_batch ~len:t.batch_len t.hist t.batch);
        drop_step ();
        save_meta t meta_path;
        incr reingested
      end
  in
  let stats = Hsq_storage.Block_device.stats t.dev in
  let wal, (), tail =
    if Sys.file_exists wal_path then
      Hsq_storage.Wal.open_existing ~sync:config.Config.wal_sync ~stats ~path:wal_path replay ()
    else
      ( Hsq_storage.Wal.create ~sync:config.Config.wal_sync ~stats ~path:wal_path ~start_seq:1
          (),
        (),
        Hsq_storage.Wal.Clean )
  in
  let replayed = Hsq_storage.Wal.next_seq wal - Hsq_storage.Wal.start_seq wal in
  Hsq_storage.Io_stats.note_wal_replayed stats replayed;
  (* The log is deliberately left un-rotated after replay: committed
     markers replay as skips, so a crash during recovery just recovers
     again.  The next end_time_step rotates it. *)
  if not (Sys.file_exists meta_path) then save_meta t meta_path;
  t.durable <- Some { wal; meta_path };
  (* Recovery depth stays readable after the report is dropped: status
     tooling (hsq status --health, the serve health verb) shows how much
     replay the last open needed, per engine registry — and therefore
     per shard once engines are grouped. *)
  let reg = Hsq_storage.Io_stats.registry stats in
  Metrics.Gauge.set
    (Metrics.gauge ~help:"WAL records replayed by the last open" reg "hsq_recovery_wal_replayed")
    (float_of_int replayed);
  Metrics.Gauge.set
    (Metrics.gauge ~help:"Time steps re-archived by the last open" reg
       "hsq_recovery_steps_reingested")
    (float_of_int !reingested);
  ( t,
    {
      replayed;
      steps_reingested = !reingested;
      steps_skipped = !skipped;
      wal_tail =
        (match tail with Hsq_storage.Wal.Clean -> None | Hsq_storage.Wal.Torn why -> Some why);
    } )

let is_closed t = t.closed

(* Returns whether this call did the transition. *)
let mark_closed t =
  let was_closed = t.closed in
  t.closed <- true;
  not was_closed

let close t =
  if mark_closed t then begin
    Option.iter (fun d -> Hsq_storage.Wal.close d.wal) t.durable;
    Hsq_storage.Block_device.close t.dev
  end

(* Simulated power cut (crash harness): drop what the WAL had not
   flushed and release the handles — block writes are synchronous in
   this model, so only the log tail is at stake. *)
let crash t =
  if mark_closed t then begin
    Option.iter (fun d -> Hsq_storage.Wal.crash d.wal) t.durable;
    Hsq_storage.Block_device.close t.dev
  end

let durability_status t =
  match t.durable with
  | None -> None
  | Some d ->
    Some
      {
        wal_path = Hsq_storage.Wal.path d.wal;
        wal_start_seq = Hsq_storage.Wal.start_seq d.wal;
        wal_next_seq = Hsq_storage.Wal.next_seq d.wal;
        wal_pending = Hsq_storage.Wal.pending_records d.wal;
      }

(* Structured fault injection on the engine's own WAL (tests). *)
let set_wal_injector t inj =
  match t.durable with None -> () | Some d -> Hsq_storage.Wal.set_injector d.wal inj
