(* The integrated historical + streaming quantile engine — the paper's
   primary contribution (Sections 2.1-2.3).

   Lifecycle per time step (Figure 1):
     observe       -- every stream element updates the GK sketch and is
                      spooled into the current batch;
     end_time_step -- the batch is sorted and loaded into the historical
                      level index (Algorithm 3) and the stream sketch is
                      reset (Algorithm 4, StreamReset).

   Queries:
     quick    -- Algorithm 5, in-memory only, O(eps*N) rank error;
     accurate -- Algorithms 6-8, a value-domain binary search narrowed
                 by summaries with disk rank probes, O(eps*m) error. *)

(* Durable-ingest state (Engine.open_or_recover): the write-ahead log
   making the stream side R crash-safe, plus sketch-checkpoint
   bookkeeping.  [None] = the stream is volatile, as in the paper. *)
module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace

(* Query-path observability.  The quick path runs in ~100ns out of the
   summary cache, so its counters must stay a single machine operation:
   they are [Atomic.t] ints (PR 4 shipped them as plain ints under a
   single-submitter contract; concurrent ingest ended that contract, so
   increments now race the exporter and each other) exported pull-style
   through [Metrics.counter_fn].  Latency on the quick path is sampled
   1-in-64 (a gettimeofday pair costs ~half the whole query); the
   accurate path is ms-scale and always timed. *)
type engine_metrics = {
  quick_total : int Atomic.t;
  accurate_total : int Atomic.t;
  sc_hits : int Atomic.t; (* summary-cache (us_cache) hits *)
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

type durability = {
  wal : Hsq_storage.Wal.t;
  meta_path : string; (* warehouse sidecar — the rollover commit record *)
  ckpt_path : string; (* sketch checkpoint file *)
  checkpoint_every : int; (* WAL records between checkpoints; 0 = never *)
  mutable since_checkpoint : int;
  mutable last_checkpoint_seq : int; (* 0 = no live checkpoint *)
}

(* One concurrent ingest lane (Config.ingest_domains > 1, DESIGN.md §15):
   a bounded local buffer of acknowledged elements plus, when durable,
   this lane's own WAL appender (lane 0 shares the engine's main log;
   lanes 1..D-1 get wal-<d>.log files in the same directory).  A lane's
   lock covers its WAL append and its buffer, so the acknowledgement
   order within a lane is exactly its log order; the sketch is touched
   only on hand-off, under the engine-wide propagation lock, once per
   [Config.ingest_batch] elements instead of once per element.  The
   [observed] / [handoffs] fields are per-lane accumulators summed at
   metric export — each is written by one lane at a time (under its
   lock), so the hot path shares no counter cache line across lanes. *)
type lane = {
  lane_wal : Hsq_storage.Wal.t option;
  lane_lock : Mutex.t;
  mutable lbuf : int array;
  mutable llen : int;
  mutable observed : int;
  mutable handoffs : int;
}

type t = {
  config : Config.t;
  dev : Hsq_storage.Block_device.t;
  hist : Hsq_hist.Level_index.t;
  mutable gk : Stream_sketch.t;
  mutable batch : int array;
  mutable batch_len : int;
  mutable durable : durability option;
  (* Cached historical aggregate keyed by the level index's epoch: the
     historical side of TS only changes at end_time_step / merge /
     expire / recovery, so queries reuse the merged summary bounds and
     only pay for the fresh stream summary.  (epoch, aggregate); None
     until the first full-set query after a mutation. *)
  mutable hist_cache : (int * Union_summary.hist_agg) option;
  (* The fully built (stream summary, union summary) pair, keyed by
     (hist epoch, GK insert count): the sketch mutates only on insert
     (count strictly grows within a step) and end_time_step both resets
     it and bumps the epoch, so an unchanged key means an unchanged TS.
     Repeated queries between ingests then skip even the stream
     extraction and the merge. *)
  mutable us_cache : (int * int * (Stream_summary.t * Union_summary.t)) option;
  (* Persistent worker pool for the parallel accurate-query probes,
     spawned on the first query when [config.query_domains] > 1 (the
     pool holds query_domains - 1 workers; the querying domain is the
     remaining lane).  [close] joins it. *)
  query_pool : Bisection.pool;
  (* Concurrent ingest lanes; [||] = the classic single-writer engine
     (every existing path untouched, zero locking).  Non-empty only when
     [config.ingest_domains] > 1.  Threading contract: [observe_domain]
     may be called from any thread; everything else — queries,
     [end_time_step], [checkpoint_now], [close] — stays single-submitter
     (one "engine thread" at a time).  Lock order everywhere: lane locks
     (ascending index) before [prop_lock], never the reverse. *)
  mutable lanes : lane array;
  (* Serializes batch hand-offs into [gk]/[batch] against each other and
     against query-side reads of the sketch.  Taken once per batch, not
     per element. *)
  prop_lock : Mutex.t;
  metrics : engine_metrics;
  (* Tracing is opt-in per engine (set_tracer); mirrored onto the
     device's Io_stats so WAL/merge/checkpoint sites pick it up. *)
  mutable tracer : Trace.t option;
  (* Set by the first close/crash; later close/crash/checkpoint_now
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

(* Install the ingest lanes and their pull-style metrics.  [wals.(d)] is
   lane d's appender (lane 0's entry must be the engine's main WAL for a
   durable engine, or None for a volatile one).  The metric closures
   read [t.lanes] through [t], so re-installation (volatile lanes built
   by [create], replaced with durable ones by [open_or_recover]) keeps
   the registered closures accurate; the sums are racy reads of per-lane
   ints — possibly a few elements stale, never torn. *)
let install_lanes t wals =
  t.lanes <-
    Array.map
      (fun w ->
        {
          lane_wal = w;
          lane_lock = Mutex.create ();
          lbuf = Array.make (max 16 t.config.Config.ingest_batch) 0;
          llen = 0;
          observed = 0;
          handoffs = 0;
        })
      wals;
  let r = Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats t.dev) in
  Metrics.counter_fn ~help:"Elements acknowledged through ingest lanes" r
    "hsq_ingest_observed_total" (fun () ->
      Array.fold_left (fun acc ln -> acc + ln.observed) 0 t.lanes);
  Metrics.counter_fn ~help:"Batch hand-offs into the stream sketch" r "hsq_ingest_handoffs_total"
    (fun () -> Array.fold_left (fun acc ln -> acc + ln.handoffs) 0 t.lanes);
  Metrics.gauge_fn ~help:"Acknowledged elements buffered in ingest lanes" r
    "hsq_ingest_buffered" (fun () ->
      float_of_int (Array.fold_left (fun acc ln -> acc + ln.llen) 0 t.lanes))

(* The sketch kind is config (runtime policy), but operators read it
   back through the metrics surface, so each engine registers it as a
   0/1 gauge alongside its other pull-style metrics. *)
let register_sketch_metric t =
  Metrics.gauge_fn ~help:"Stream sketch kind (0 = GK, 1 = KLL)"
    (Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats t.dev))
    "hsq_stream_sketch_kll"
    (fun () -> match Stream_sketch.kind t.gk with `Kll -> 1.0 | `Gk -> 0.0)

let fresh_gk config =
  let kind = config.Config.stream_sketch in
  match Config.gk_epsilon config with
  | Some eps -> Stream_sketch.create ~kind ~epsilon:eps ()
  | None -> (
    match Config.stream_words config with
    | Some words -> Stream_sketch.create_capped ~kind ~words ()
    | None -> assert false)

(* A single-writer engine over [dev] and [hist] with an empty stream
   side; [create] and [of_restored] finish it. *)
let fresh_engine config ~dev ~hist =
  {
    config;
    dev;
    hist;
    gk = fresh_gk config;
    batch = Array.make 1024 0;
    batch_len = 0;
    durable = None;
    hist_cache = None;
    us_cache = None;
    query_pool =
      Bisection.pool
        ~metrics:(Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats dev))
        config;
    lanes = [||];
    prop_lock = Mutex.create ();
    metrics = make_engine_metrics dev;
    tracer = None;
    closed = false;
  }

let create ?device config =
  let dev =
    match device with
    | Some d -> d
    | None -> Hsq_storage.Block_device.create_memory ~block_size:config.Config.block_size ()
  in
  let hist =
    Hsq_hist.Level_index.create ?sort_memory:config.Config.sort_memory
      ?sort_domains:config.Config.sort_domains ~kappa:config.Config.kappa
      ~beta1:(Config.beta1 config) dev
  in
  let t = fresh_engine config ~dev ~hist in
  if config.Config.ingest_domains > 1 then
    install_lanes t (Array.make config.Config.ingest_domains None);
  register_sketch_metric t;
  t

(* Recovery path (Persist): adopt a restored historical index.  The
   stream side starts empty — [open_or_recover] refills it from the
   checkpoint and the WAL when durability is on. *)
let of_restored ~device config hist =
  let t = fresh_engine config ~dev:device ~hist in
  register_sketch_metric t;
  t

let config t = t.config
let device t = t.dev

(* The engine's metric registry — the device's, where every subsystem
   below (Io_stats, WAL, level index, buffer pool) registers too. *)
let metrics t = Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats t.dev)

let note_summary_cache t ~hit = Atomic.incr (if hit then t.metrics.sc_hits else t.metrics.sc_misses)

let note_accurate t ~seconds ~iterations ~degraded =
  let em = t.metrics in
  Atomic.incr em.accurate_total;
  Metrics.Histogram.observe em.accurate_hist seconds;
  Metrics.Histogram.observe em.bisect_hist (float_of_int iterations);
  if degraded then Atomic.incr em.degraded_total

let set_tracer t tr =
  t.tracer <- tr;
  Hsq_storage.Io_stats.set_tracer (Hsq_storage.Block_device.stats t.dev) tr

let tracer t = t.tracer
let hist t = t.hist
let stream_sketch t = t.gk
let stream_size t = Stream_sketch.count t.gk
let hist_size t = Hsq_hist.Level_index.total_elements t.hist
let total_size t = hist_size t + stream_size t
let time_steps t = Hsq_hist.Level_index.time_steps t.hist

(* eps2 as the engine currently provides it (2x the GK sketch's eps —
   see Config); eps = 4*eps2 inverts Algorithm 1. *)
let eps2 t = 2.0 *. Stream_sketch.epsilon t.gk
let epsilon t = 4.0 *. eps2 t

let memory_words t =
  Hsq_hist.Level_index.memory_words t.hist + Stream_sketch.memory_words t.gk

(* StreamUpdate (Algorithm 4) + batch spooling, without the WAL — the
   in-memory effect of one element, shared by live ingest and replay. *)
let apply_observe t v =
  Stream_sketch.insert t.gk v;
  if t.batch_len = Array.length t.batch then begin
    let bigger = Array.make (2 * t.batch_len) 0 in
    Array.blit t.batch 0 bigger 0 t.batch_len;
    t.batch <- bigger
  end;
  t.batch.(t.batch_len) <- v;
  t.batch_len <- t.batch_len + 1

(* ------------------------------------------------------------------ *)
(* Concurrent ingest lanes (DESIGN.md §15).                            *)
(* ------------------------------------------------------------------ *)

(* Run [f] with the propagation lock held when lanes exist; a straight
   call on a single-writer engine, so the classic paths pay nothing. *)
let with_prop t f =
  if Array.length t.lanes = 0 then f ()
  else begin
    Mutex.lock t.prop_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.prop_lock) f
  end

(* Hand a lane's buffered run into the sketch and the batch spool.
   Caller holds [ln.lane_lock].  The sort happens outside the
   propagation lock (it is the expensive part and touches only lane
   state); the merge into [gk] and the spool append happen under it, so
   a query never sees a half-applied batch — the propagated prefix is
   the snapshot.  [since_checkpoint] moves here, once per batch: the
   lane path never checkpoints inline (that would need every other
   lane's lock while holding this one — a deadlock order violation);
   an engine-thread caller picks the flag up via [checkpoint_if_due]. *)
let propagate_locked t ln =
  if ln.llen > 0 then begin
    let b = Array.sub ln.lbuf 0 ln.llen in
    ln.llen <- 0;
    Array.sort Int.compare b;
    let k = Array.length b in
    Mutex.lock t.prop_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.prop_lock)
      (fun () ->
        Stream_sketch.insert_sorted_batch t.gk b;
        let need = t.batch_len + k in
        if need > Array.length t.batch then begin
          let cap = ref (max 1024 (Array.length t.batch)) in
          while !cap < need do
            cap := 2 * !cap
          done;
          let bigger = Array.make !cap 0 in
          Array.blit t.batch 0 bigger 0 t.batch_len;
          t.batch <- bigger
        end;
        Array.blit b 0 t.batch t.batch_len k;
        t.batch_len <- need;
        ln.handoffs <- ln.handoffs + 1;
        match t.durable with
        | Some d -> d.since_checkpoint <- d.since_checkpoint + k
        | None -> ())
  end

(* Engine-thread only: take every lane lock in index order (blocking
   in-flight observes), drain every buffer into the sketch, and run [f]
   with ingest fully fenced — the epoch-fenced seal-and-drain that makes
   rollover, checkpoints, and range queries see one well-defined prefix
   of each lane.  A straight call on a single-writer engine. *)
let with_sealed_lanes t f =
  let lanes = t.lanes in
  if Array.length lanes = 0 then f ()
  else begin
    Array.iter (fun ln -> Mutex.lock ln.lane_lock) lanes;
    Fun.protect
      ~finally:(fun () -> Array.iter (fun ln -> Mutex.unlock ln.lane_lock) lanes)
      (fun () ->
        Array.iter (fun ln -> propagate_locked t ln) lanes;
        f ())
  end

(* Make every acknowledged element visible to queries (drain all lane
   buffers).  Engine-thread only, like all seal operations. *)
let flush_ingest t = with_sealed_lanes t (fun () -> ())

let ingest_domains t = max 1 (Array.length t.lanes)
let buffered_ingest t = Array.fold_left (fun acc ln -> acc + ln.llen) 0 t.lanes

(* Freeze the stream side at the WAL's last acknowledged sequence
   number.  Every lane's log is synced first so the checkpoint never
   covers records that could still be lost — otherwise recovery would
   trust state whose log suffix vanished with the buffer cache.  For a
   multi-lane engine the caller holds the seal (all lane locks), so the
   buffers are empty and the per-lane cut vector is exact. *)
let write_checkpoint_impl t d =
  Array.iter
    (fun ln -> match ln.lane_wal with Some w when w != d.wal -> Hsq_storage.Wal.sync w | _ -> ())
    t.lanes;
  Hsq_storage.Wal.sync d.wal;
  let lane_seqs =
    if Array.length t.lanes <= 1 then [||]
    else
      Array.init
        (Array.length t.lanes - 1)
        (fun i ->
          match t.lanes.(i + 1).lane_wal with Some w -> Hsq_storage.Wal.last_seq w | None -> 0)
  in
  let c =
    {
      Checkpoint.seq = Hsq_storage.Wal.last_seq d.wal;
      steps_done = Hsq_hist.Level_index.time_steps t.hist;
      batch = Array.sub t.batch 0 t.batch_len;
      gk = Stream_sketch.serialize t.gk;
      lane_seqs;
    }
  in
  Checkpoint.save ~path:d.ckpt_path c;
  Hsq_storage.Io_stats.note_checkpoint (Hsq_storage.Block_device.stats t.dev);
  d.last_checkpoint_seq <- c.Checkpoint.seq;
  d.since_checkpoint <- 0

let write_checkpoint t d =
  match t.tracer with
  | Some tr -> Trace.with_span tr "checkpoint" (fun _ -> write_checkpoint_impl t d)
  | None -> write_checkpoint_impl t d

(* No-op once closed: the WAL channel is gone, and a post-close
   checkpoint (e.g. a drain path racing a signal handler) must not
   raise on it. *)
let checkpoint_now t =
  if not t.closed then
    match t.durable with
    | None -> ()
    | Some d -> with_sealed_lanes t (fun () -> write_checkpoint t d)

(* The multi-lane replacement for the single-writer path's inline
   auto-checkpoint: lanes only mark checkpoint debt (see
   [propagate_locked]); the engine thread settles it between requests. *)
let ingest_checkpoint_due t =
  (not t.closed)
  && Array.length t.lanes > 0
  &&
  match t.durable with
  | Some d -> d.checkpoint_every > 0 && d.since_checkpoint >= d.checkpoint_every
  | None -> false

let checkpoint_if_due t =
  if ingest_checkpoint_due t then begin
    checkpoint_now t;
    true
  end
  else false

let observe_single t v =
  match t.durable with
  | None -> apply_observe t v
  | Some d ->
    (* WAL first: if the append raises (injected fault, full disk) the
       element is unacknowledged and in-memory state is untouched. *)
    ignore (Hsq_storage.Wal.append d.wal (Hsq_storage.Wal.Observe v));
    apply_observe t v;
    d.since_checkpoint <- d.since_checkpoint + 1;
    if d.checkpoint_every > 0 && d.since_checkpoint >= d.checkpoint_every then
      write_checkpoint t d

(* Lane-local ingest: append to this lane's WAL (the acknowledgement —
   crash-durability is decided here, under the lane lock, before the
   element is visible anywhere), buffer locally, and hand off a full
   batch.  Callable from any thread; lanes never take each other's
   locks, so D lanes ingest with no shared state but the per-batch
   propagation lock. *)
let observe_domain t ~domain v =
  let nd = Array.length t.lanes in
  if nd = 0 then observe_single t v
  else begin
    let ln = t.lanes.(((domain mod nd) + nd) mod nd) in
    Mutex.lock ln.lane_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock ln.lane_lock)
      (fun () ->
        if t.closed then invalid_arg "Engine.observe_domain: engine is closed";
        (match ln.lane_wal with
        | Some w -> ignore (Hsq_storage.Wal.append w (Hsq_storage.Wal.Observe v))
        | None -> ());
        if ln.llen = Array.length ln.lbuf then begin
          let bigger = Array.make (2 * ln.llen) 0 in
          Array.blit ln.lbuf 0 bigger 0 ln.llen;
          ln.lbuf <- bigger
        end;
        ln.lbuf.(ln.llen) <- v;
        ln.llen <- ln.llen + 1;
        ln.observed <- ln.observed + 1;
        if ln.llen >= t.config.Config.ingest_batch then propagate_locked t ln)
  end

let observe t v =
  if Array.length t.lanes = 0 then observe_single t v else observe_domain t ~domain:0 v

let save_meta t path =
  Meta.write ~path
    (Meta.render ~config:t.config ~descriptors:(Hsq_hist.Level_index.describe t.hist))

(* Load the batch into the warehouse and reset the stream sketch
   (HistUpdate + StreamReset).

   Durable rollover protocol (exactly-once):
     1. append an [End_step] marker carrying the prospective step
        number and force a sync — whatever the policy, a commit is a
        flush;
     2. add the batch to the level index and write the warehouse
        sidecar — the sidecar rename is THE commit point;
     3. rotate the WAL (atomic truncation) and drop the checkpoint.
   A crash between 1 and 2 replays the step from the log; between 2
   and 3 the marker's step number is <= the recovered warehouse's step
   count, so replay skips the re-ingest — never a double archive.

   Multi-lane engines first seal every lane (all lane locks taken, all
   buffers propagated), then write an [End_step_cuts] marker to lane 0
   carrying each extra lane's last acknowledged sequence number — the
   exact membership of the archived batch.  Every extra lane's log is
   synced *before* the marker lands (a commit marker must never cover
   records that could still vanish with the buffer cache), and rotation
   goes extra lanes first, the marker-bearing lane 0 last: once lane 0
   rotates the marker is gone, so no covered record may outlive it (it
   would replay into the next open step and double-count). *)
let end_time_step t =
  with_sealed_lanes t @@ fun () ->
  if t.batch_len = 0 then invalid_arg "Engine.end_time_step: empty batch";
  let commit () =
    let batch = Array.sub t.batch 0 t.batch_len in
    let report = Hsq_hist.Level_index.add_batch t.hist batch in
    t.batch_len <- 0;
    t.gk <- fresh_gk t.config;
    report
  in
  match t.durable with
  | None -> commit ()
  | Some d ->
    let step = Hsq_hist.Level_index.time_steps t.hist + 1 in
    let extra_wals =
      if Array.length t.lanes <= 1 then [||]
      else
        Array.init
          (Array.length t.lanes - 1)
          (fun i ->
            match t.lanes.(i + 1).lane_wal with
            | Some w -> w
            | None -> invalid_arg "Engine.end_time_step: durable lane without a log")
    in
    (if Array.length extra_wals = 0 then
       ignore
         (Hsq_storage.Wal.append d.wal (Hsq_storage.Wal.End_step { step; count = t.batch_len }))
     else begin
       Array.iter Hsq_storage.Wal.sync extra_wals;
       let cuts = Array.map Hsq_storage.Wal.last_seq extra_wals in
       ignore
         (Hsq_storage.Wal.append d.wal
            (Hsq_storage.Wal.End_step_cuts { step; count = t.batch_len; cuts }))
     end);
    Hsq_storage.Wal.sync d.wal;
    let report = commit () in
    save_meta t d.meta_path;
    for i = Array.length extra_wals - 1 downto 0 do
      Hsq_storage.Wal.rotate extra_wals.(i)
    done;
    Hsq_storage.Wal.rotate d.wal;
    (try Sys.remove d.ckpt_path with Sys_error _ -> ());
    d.last_checkpoint_seq <- 0;
    d.since_checkpoint <- 0;
    report

let ingest_batch t batch =
  Array.iter (observe t) batch;
  end_time_step t

(* Retention passthrough: keep only the last [keep_steps] archived
   steps (whole partitions; see Level_index.expire). *)
let expire t ~keep_steps = Hsq_hist.Level_index.expire t.hist ~keep_steps

(* Extracting from the sketch while a lane could be mid-hand-off would
   read a half-merged tuple array: every extraction (and the count that
   keys the cache) happens under the propagation lock on a multi-lane
   engine.  Hand-offs are atomic w.r.t. the lock, so what a query sees
   is always "the sketch after some whole set of propagated batches" —
   the snapshot-consistency contract. *)
let stream_summary_unlocked t = Stream_summary.extract t.gk
let stream_summary t = with_prop t (fun () -> stream_summary_unlocked t)

let sketch_kind t = Stream_sketch.kind t.gk
let sketch_label t = Stream_sketch.kind_label t.gk

(* A private deep copy of the open step's KLL sketch (None under GK),
   taken under the propagation lock so it is snapshot-consistent with
   concurrent lane hand-offs.  Shard_group merges these to compose
   fused stream summaries. *)
let kll_snapshot t =
  with_prop t (fun () -> Option.map Hsq_sketch.Kll.copy (Stream_sketch.as_kll t.gk))

(* The cached historical aggregate, rebuilt only when the level index's
   epoch moved since it was computed (partition add / merge / expire /
   restore all bump it).  Steady-state full-set queries therefore cost
   O(S_stream + S_hist) instead of O(S·P·log β1). *)
let hist_aggregate t =
  let epoch = Hsq_hist.Level_index.epoch t.hist in
  match t.hist_cache with
  | Some (e, agg) when e = epoch -> agg
  | _ ->
    (* Active partitions only: a quarantined partition's summary may be
       degenerate (restored without reading its bad blocks), so queries
       exclude it and widen their reported bound instead.  Quarantine
       transitions bump the epoch, so the cache refreshes. *)
    let agg =
      Union_summary.hist_aggregate
        ~partitions:(Hsq_hist.Level_index.active_partitions t.hist)
    in
    t.hist_cache <- Some (epoch, agg);
    agg

(* The built summary pair, reused verbatim while neither side of TS has
   moved (see the us_cache field comment).  Re-extracting from an
   unchanged GK sketch is pure, so a hit returns exactly what a rebuild
   would produce. *)
let cached_summaries t =
  with_prop t @@ fun () ->
  let epoch = Hsq_hist.Level_index.epoch t.hist in
  let count = stream_size t in
  match t.us_cache with
  | Some (e, c, pair) when e = epoch && c = count ->
    Atomic.incr t.metrics.sc_hits;
    (match t.tracer with
    | Some tr ->
      Trace.with_span tr ~attrs:[ ("result", "hit") ] "summary_cache" (fun _ -> ())
    | None -> ());
    pair
  | _ ->
    Atomic.incr t.metrics.sc_misses;
    let build () =
      let ss = stream_summary_unlocked t in
      let pair = (ss, Union_summary.build_from_agg ~agg:(hist_aggregate t) ~stream:ss) in
      t.us_cache <- Some (epoch, count, pair);
      pair
    in
    (match t.tracer with
    | Some tr ->
      Trace.with_span tr ~attrs:[ ("result", "miss") ] "summary_cache" (fun _ -> build ())
    | None -> build ())

let cached_union_summary t = snd (cached_summaries t)

let not_quarantined t p = not (Hsq_hist.Level_index.is_quarantined t.hist p)

(* Cache-bypassing build over the full active partition set; the fuzz
   suite compares this against the cached path entry for entry. *)
let fresh_union_summary t =
  with_prop t @@ fun () ->
  Union_summary.build ~partitions:(Hsq_hist.Level_index.active_partitions t.hist)
    ~stream:(stream_summary_unlocked t)

(* Explicit partition subsets (windows, ranges) bypass the cache: the
   aggregate covers the full set and per-suffix bounds are not
   recoverable from it.  Those queries are rare next to full-set ones,
   and still benefit from the array build path.  Quarantined members of
   the subset are dropped here too — never build a union over a
   summary that may be degenerate. *)
let union_summary ?partitions t =
  match partitions with
  | Some ps ->
    Union_summary.build
      ~partitions:(List.filter (not_quarantined t) ps)
      ~stream:(stream_summary t)
  | None -> cached_union_summary t

(* Algorithm 5. *)
let quick_us us ~rank =
  let n = Union_summary.n_total us in
  if n = 0 then invalid_arg "Engine.quick: no data";
  Union_summary.quick_select us ~rank:(Bisection.clamp_rank ~n rank)

(* The union the quick path answers from.  Normally the cached
   active-set summary; when quarantine has emptied the active view
   while the stream is empty (yet archived data exists), fall back to a
   memory-only union over the *full* partition set.  Quarantine marks a
   partition's disk blocks unreadable, but its in-memory summary still
   describes the archived elements — so the fallback answers with
   honest (possibly wide: a sidecar-restored quarantined partition
   contributes a maximal [0, size] window) Lemma 2 bounds at zero
   device reads.  Returns the summary and [true] iff it is the
   fallback, whose bound must not be double-widened by the quarantined
   element count the summary already covers. *)
let quick_view t =
  let us = cached_union_summary t in
  if Union_summary.n_total us > 0 then (us, false)
  else
    let full =
      Union_summary.build
        ~partitions:(Hsq_hist.Level_index.partitions t.hist)
        ~stream:(stream_summary t)
    in
    if Union_summary.size full > 0 then (full, true) else (us, false)

let quick_over t ~partitions ~rank = quick_us (union_summary ~partitions t) ~rank

(* Quick answer plus the rank window it can be off by — what a caller
   holding an exact oracle (the chaos harness) checks, and what the
   degraded paths of the accurate query report.  The bound is
   [max (U - r) (r - L)] from the union summary's Lemma 2 windows,
   widened by the element count of any quarantined partitions (their
   ranks are unknown in [0, size]). *)
let quick_with_bound t ~rank =
  let us, fallback = quick_view t in
  if Union_summary.n_total us = 0 then invalid_arg "Engine.quick: no data";
  let widen = if fallback then 0 else Hsq_hist.Level_index.quarantined_elements t.hist in
  Bisection.memory_answer us ~rank ~widen

let quick t ~rank =
  let em = t.metrics in
  Atomic.incr em.quick_total;
  match t.tracer with
  | None ->
    (* ~140ns steady state: the instrumentation here must stay to a
       couple of machine operations — latency is sampled, not always
       measured (see engine_metrics). *)
    if Atomic.get em.quick_total land quick_sample_mask = 0 then begin
      let t0 = Metrics.now_s () in
      let v = quick_us (fst (quick_view t)) ~rank in
      Metrics.Histogram.observe em.quick_hist (Metrics.now_s () -. t0);
      v
    end
    else quick_us (fst (quick_view t)) ~rank
  | Some tr ->
    Trace.with_span tr ~attrs:[ ("rank", string_of_int rank) ] "query.quick" (fun _ ->
        let t0 = Metrics.now_s () in
        let v = quick_us (fst (quick_view t)) ~rank in
        Metrics.Histogram.observe em.quick_hist (Metrics.now_s () -. t0);
        v)

(* Algorithms 6-8 as the one-source case of the shared bisection
   (Bisection): this engine's active partitions plus its stream summary.
   The failure policy is the engine's own: every probe failure either
   quarantines its partition (shrinking the probe set) or advances its
   consecutive-failure count toward [quarantine_after], so the retry
   loop terminates; the retry cap is belt and braces.  A breaker-open
   device means the fault is not this partition's — answer from memory
   and leave healthy partitions alone. *)
let accurate_over ?(tolerance_factor = 0.5) ?deadline_ms ?summaries ?refresh t ~partitions
    ~rank =
  let tr = t.tracer in
  let tq0 = Metrics.now_s () in
  (* Summaries for a retry after the active set changed underneath a
     quarantine: the full-set path supplies the engine's summary cache
     (the quarantine bumped the epoch, so the cached union rebuilds
     over the new active set for free on later queries too); subset
     paths rebuild over the surviving members. *)
  let refetch =
    match refresh with
    | Some f -> f
    | None ->
      fun () ->
        let act = List.filter (not_quarantined t) partitions in
        let ss = stream_summary t in
        (ss, Union_summary.build ~partitions:act ~stream:ss)
  in
  let quarantined_elems () =
    List.fold_left
      (fun acc p ->
        if Hsq_hist.Level_index.is_quarantined t.hist p then acc + Hsq_hist.Partition.size p
        else acc)
      0 partitions
  in
  let view_of (ss, us) =
    let probes = List.map (fun p -> ((), p)) (List.filter (not_quarantined t) partitions) in
    { Bisection.summary = us; streams = [ ss ]; probes; meta = () }
  in
  (* The widening is re-read at answer time: a quarantine earlier in
     this query widens every later answer too. *)
  let from_memory view =
    Bisection.From_memory (view.Bisection.summary, `Device_open, quarantined_elems ())
  in
  let max_retries = (List.length partitions * t.config.Config.quarantine_after) + 2 in
  let policy =
    {
      Bisection.outcome =
        (fun _ ending ->
          let q = quarantined_elems () in
          match ending with
          | `Completed -> ((if q > 0 then `Quarantined q else `None), q)
          | `Deadline -> (`Deadline, q));
      note_success = (fun () p -> Hsq_hist.Level_index.note_probe_success t.hist p);
      on_failure =
        (fun ~tries view () p ->
          if
            Hsq_storage.Block_device.breaker_state t.dev = Hsq_storage.Breaker.Open
            || tries >= max_retries
          then from_memory view
          else if
            Hsq_hist.Level_index.note_probe_failure t.hist p
              ~threshold:t.config.Config.quarantine_after
          then begin
            (* The active set changed: refetch the summaries.  If the
               quarantine just consumed the last element in view (empty
               stream, every partition bad), answer from the summaries
               still in hand — degraded to memory, bound widened by
               everything quarantined — rather than failing the query. *)
            let ((_, us') as pair') = refetch () in
            if Union_summary.n_total us' = 0 then from_memory view
            else Bisection.Bisect (view_of pair')
          end
          else Bisection.Bisect view);
    }
  in
  (* Memory-only union over the query's full partition scope, including
     quarantined members: the last resort when quarantine has emptied
     the active view (see [quick_view] for why the in-memory summaries
     remain honest).  No extra widening — the summary covers the
     quarantined elements itself, wide windows and all. *)
  let first () =
    let ((_, us) as pair) = match summaries with Some p -> p | None -> refetch () in
    if Union_summary.n_total us > 0 then Bisection.Bisect (view_of pair)
    else begin
      let us = Union_summary.build ~partitions ~stream:(stream_summary t) in
      if Union_summary.size us = 0 then invalid_arg "Engine.accurate: no data";
      Bisection.From_memory (us, `Device_open, 0)
    end
  in
  let deadline_at = Bisection.deadline_at ~start:tq0 ?deadline_ms t.config in
  let run_query trace =
    Bisection.run ?trace ?deadline_at ~pool:t.query_pool
      ~stats:[ Hsq_storage.Block_device.stats t.dev ]
      ~tolerance_factor ~policy ~rank (first ())
  in
  let { Bisection.answer; degradation; bound = rank_error_bound; iterations; io }, span =
    match tr with
    | Some trc ->
      Trace.with_span trc
        ~attrs:
          [
            ("rank", string_of_int rank);
            ("partitions", string_of_int (List.length partitions));
          ]
        "query.accurate"
        (fun sp ->
          let res = run_query (Some (trc, sp)) in
          Trace.add_attr trc sp "iterations" (string_of_int res.Bisection.iterations);
          if res.degradation <> `None then
            Trace.add_attr trc sp "degradation" (degradation_label res.degradation);
          (res, Some sp))
    | None -> (run_query None, None)
  in
  note_accurate t ~seconds:(Metrics.now_s () -. tq0) ~iterations ~degraded:(degradation <> `None);
  (answer, { io; iterations; degradation; rank_error_bound; span })

let accurate ?tolerance_factor ?deadline_ms t ~rank =
  accurate_over ?tolerance_factor ?deadline_ms ~summaries:(cached_summaries t)
    ~refresh:(fun () -> cached_summaries t)
    t
    ~partitions:(Hsq_hist.Level_index.partitions t.hist)
    ~rank

(* Inverse query: estimated rank of an arbitrary value in T.  The
   historical part is exact (summary-bounded binary searches); the
   stream part comes from SS, so the error is at most ~eps2*m. *)
let rank_of t v =
  let hist = Hsq_hist.Level_index.rank t.hist v in
  let ss = stream_summary t in
  hist + int_of_float (Float.round (Stream_summary.rank_estimate ss v))

(* Empirical CDF point: P(X <= v) over T. *)
let cdf t v =
  let n = total_size t in
  if n = 0 then invalid_arg "Engine.cdf: no data";
  float_of_int (rank_of t v) /. float_of_int n

let rank_of_phi = Bisection.rank_of_phi ~who:"Engine"

let quantile t phi =
  let n = total_size t in
  if n = 0 then invalid_arg "Engine.quantile: no data";
  accurate t ~rank:(rank_of_phi ~n phi)

let quick_quantile t phi =
  let n = total_size t in
  if n = 0 then invalid_arg "Engine.quick_quantile: no data";
  quick t ~rank:(rank_of_phi ~n phi)

(* Windowed queries (Section 2.4): the window covers the last [w]
   archived time steps plus the live stream.  Only partition-aligned
   windows are answerable. *)
type window_error = Window_not_aligned of int list

let window_sizes t = Hsq_hist.Level_index.available_window_sizes t.hist

let with_window t ~window k =
  match Hsq_hist.Level_index.partitions_for_window t.hist window with
  | Some parts -> Ok (k parts)
  | None -> Error (Window_not_aligned (window_sizes t))

let window_total t ~window =
  with_window t ~window (fun parts ->
      List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) (stream_size t) parts)

let accurate_window ?tolerance_factor ?deadline_ms t ~window ~rank =
  with_window t ~window (fun parts ->
      accurate_over ?tolerance_factor ?deadline_ms t ~partitions:parts ~rank)

let quick_window t ~window ~rank =
  with_window t ~window (fun parts -> quick_over t ~partitions:parts ~rank)

(* Historical range queries over archived steps [first, last] — the
   "compare against the same period in the past" use case of the
   introduction.  Purely historical: the live stream is excluded, so
   with the exact partition ranks the answers are near-exact. *)
type range_error = Range_not_aligned of (int * int) list

let with_range t ~first ~last k =
  match Hsq_hist.Level_index.partitions_for_range t.hist ~first ~last with
  | Some parts -> Ok (k parts)
  | None -> Error (Range_not_aligned (Hsq_hist.Level_index.partition_boundaries t.hist))

let range_total t ~first ~last =
  with_range t ~first ~last (fun parts ->
      List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) 0 parts)

let accurate_range ?tolerance_factor t ~first ~last ~rank =
  with_range t ~first ~last (fun parts ->
      (* Build against an empty stream: the range is purely historical.
         The gk swap would race lane hand-offs (elements propagated into
         the placeholder sketch would vanish on restore), so the whole
         range query runs under the seal — ingest blocks for its
         duration, which is acceptable for this rare query type. *)
      with_sealed_lanes t @@ fun () ->
      let saved = t.gk in
      t.gk <- fresh_gk t.config;
      Fun.protect
        ~finally:(fun () -> t.gk <- saved)
        (fun () -> accurate_over ?tolerance_factor t ~partitions:parts ~rank))

let quantile_range t ~first ~last phi =
  match range_total t ~first ~last with
  | Error e -> Error e
  | Ok n ->
    if n = 0 then invalid_arg "Engine.quantile_range: empty range";
    accurate_range t ~first ~last ~rank:(rank_of_phi ~n phi)

let quantile_window t ~window phi =
  match window_total t ~window with
  | Error e -> Error e
  | Ok n ->
    if n = 0 then invalid_arg "Engine.quantile_window: empty window";
    accurate_window t ~window ~rank:(rank_of_phi ~n phi)

(* ------------------------------------------------------------------ *)
(* Durable ingest: the recovery manager.                               *)
(* ------------------------------------------------------------------ *)

type recovery_report = {
  replayed : int; (* WAL records re-applied (past any checkpoint) *)
  steps_reingested : int; (* End_step markers re-archived *)
  steps_skipped : int; (* End_step markers already in the warehouse *)
  checkpoint_used : bool;
  wal_tail : string option; (* why the log tail was floored, if it was *)
}

type durability_status = {
  wal_path : string;
  wal_start_seq : int;
  wal_next_seq : int;
  wal_pending : int;
  checkpoint_path : string;
  last_checkpoint_seq : int;
  since_checkpoint : int;
}

let device_file = "device.blocks"
let meta_file = "meta"
let wal_file = "wal.log"
let checkpoint_file = "checkpoint"

let durable_paths dir =
  ( Filename.concat dir device_file,
    Filename.concat dir meta_file,
    Filename.concat dir wal_file,
    Filename.concat dir checkpoint_file )

let store_paths ~dir = durable_paths dir

(* Adopt a checkpoint's frozen stream side.  A structurally invalid GK
   image means the file lied despite its checksum (or versions skewed):
   treat the checkpoint as absent, full replay is always correct. *)
let restore_from_checkpoint t c =
  match Stream_sketch.deserialize c.Checkpoint.gk with
  | exception Invalid_argument _ -> false
  | gk ->
    (* A checkpoint carrying the other sketch kind (the store was last
       written under a different --sketch) cannot seed this engine:
       treat it as absent and rebuild the open step from the WAL. *)
    if Stream_sketch.kind gk <> t.config.Config.stream_sketch then false
    else begin
      let len = Array.length c.Checkpoint.batch in
      let batch = Array.make (max 1024 len) 0 in
      Array.blit c.Checkpoint.batch 0 batch 0 len;
      t.gk <- gk;
      t.batch <- batch;
      t.batch_len <- len;
      true
    end

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
  let device_path, meta_path, wal_path, ckpt_path = durable_paths dir in
  (* Warehouse first.  The sidecar is the commit record: without it the
     device file holds no committed state and is reinitialised. *)
  let t =
    if Sys.file_exists meta_path then begin
      let block_size = Meta.peek_block_size meta_path in
      let device = Hsq_storage.Block_device.open_file ~block_size ~path:device_path () in
      let stored, hist = Meta.load_hist ~device ~path:meta_path in
      (* Structural fields come from the sidecar (they describe the
         on-disk layout); durability settings are runtime policy and
         stay the caller's. *)
      let merged =
        {
          stored with
          Config.wal_dir = config.Config.wal_dir;
          wal_sync = config.Config.wal_sync;
          checkpoint_every = config.Config.checkpoint_every;
          query_domains = config.Config.query_domains;
          ingest_domains = config.Config.ingest_domains;
          ingest_batch = config.Config.ingest_batch;
          stream_sketch = config.Config.stream_sketch;
        }
      in
      of_restored ~device merged hist
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
  let stats = Hsq_storage.Block_device.stats t.dev in
  let wal, records, tail =
    if Sys.file_exists wal_path then
      Hsq_storage.Wal.open_existing ~sync:config.Config.wal_sync ~stats ~path:wal_path ()
    else
      ( Hsq_storage.Wal.create ~sync:config.Config.wal_sync ~stats ~path:wal_path ~start_seq:1
          (),
        [],
        Hsq_storage.Wal.Clean )
  in
  (* Extra ingest-lane logs (wal-1.log, wal-2.log, ...): the contiguous
     run from 1 defines how many lanes the store was last written with.
     Consolidation (below) deletes stale lane files top-down, so the
     contiguity scan can never adopt an orphaned log from an older,
     wider lane layout. *)
  let lane_file d = Filename.concat dir (Printf.sprintf "wal-%d.log" d) in
  let lanes_on_disk =
    let rec go d = if Sys.file_exists (lane_file d) then go (d + 1) else d in
    go 1
  in
  let extra_opened =
    Array.init (lanes_on_disk - 1) (fun i ->
        Hsq_storage.Wal.open_existing ~sync:config.Config.wal_sync ~stats ~path:(lane_file (i + 1))
          ())
  in
  (* Checkpoint: usable only if its warehouse step count matches the
     warehouse we actually recovered — otherwise it froze a step that
     was since archived (or rolled back) — AND its lane-cut vector
     matches the lane layout on disk (a checkpoint from a different
     layout cannot pin per-lane replay positions).  Unusable means
     replay starts from seq 1 of every log, which is always correct. *)
  let steps_committed = Hsq_hist.Level_index.time_steps t.hist in
  let checkpoint_used, replay_after =
    match Checkpoint.load ~path:ckpt_path with
    | Ok (Some c)
      when c.Checkpoint.steps_done = steps_committed
           && Array.length c.Checkpoint.lane_seqs = lanes_on_disk - 1
           && restore_from_checkpoint t c ->
      (true, Array.append [| c.Checkpoint.seq |] c.Checkpoint.lane_seqs)
    | Ok _ | Error _ -> (false, Array.make lanes_on_disk min_int)
  in
  let replayed = ref 0 and reingested = ref 0 and skipped = ref 0 in
  (* Per-lane record arrays with cursors: lane 0 drives the replay; an
     [End_step_cuts] marker first consumes each extra lane's records up
     to its cut (they belong to the step being archived), and whatever
     survives all markers is the open step, applied lane-major — a
     deterministic order covering exactly the acknowledged records. *)
  let lane_records =
    Array.init lanes_on_disk (fun d ->
        if d = 0 then Array.of_list records
        else
          let _, recs, _ = extra_opened.(d - 1) in
          Array.of_list recs)
  in
  let cursors = Array.make lanes_on_disk 0 in
  let apply_record d (seq, record) =
    match record with
    | Hsq_storage.Wal.Observe v ->
      if seq > replay_after.(d) then begin
        incr replayed;
        Hsq_storage.Io_stats.note_wal_replayed stats;
        apply_observe t v
      end
    | Hsq_storage.Wal.End_step _ | Hsq_storage.Wal.End_step_cuts _ ->
      (* Markers live only in lane 0 (handled by the driver below);
         one in an extra lane would be a damaged log — ignore it. *)
      ()
  in
  (* Records of lane [d] with seq <= [upto] belong to the current
     marker's step (or, with [upto] = max_int, to the open step). *)
  let consume_lane d ~upto =
    let recs = lane_records.(d) in
    while cursors.(d) < Array.length recs && fst recs.(cursors.(d)) <= upto do
      apply_record d recs.(cursors.(d));
      cursors.(d) <- cursors.(d) + 1
    done
  in
  let marker_logic step =
    if step <= Hsq_hist.Level_index.time_steps t.hist then begin
      (* The step committed before the crash (sidecar written, WAL not
         yet rotated): drop the replayed batch, never archive twice. *)
      t.batch_len <- 0;
      t.gk <- fresh_gk t.config;
      incr skipped
    end
    else if t.batch_len = 0 then
      (* A marker with no surviving elements (damaged log): nothing to
         archive. *)
      incr skipped
    else begin
      let batch = Array.sub t.batch 0 t.batch_len in
      ignore (Hsq_hist.Level_index.add_batch t.hist batch);
      t.batch_len <- 0;
      t.gk <- fresh_gk t.config;
      save_meta t meta_path;
      incr reingested
    end
  in
  Array.iter
    (fun ((seq, record) as r) ->
      match record with
      | Hsq_storage.Wal.Observe _ -> apply_record 0 r
      | Hsq_storage.Wal.End_step { step; count = _ } ->
        if seq > replay_after.(0) then begin
          incr replayed;
          Hsq_storage.Io_stats.note_wal_replayed stats;
          marker_logic step
        end
      | Hsq_storage.Wal.End_step_cuts { step; count = _; cuts } ->
        (* Consume the covered extra-lane records even when the marker
           itself predates the checkpoint (their cursors must advance
           past them; the per-lane [replay_after] already skips any the
           checkpoint covers). *)
        for d = 1 to lanes_on_disk - 1 do
          let cut = if d - 1 < Array.length cuts then cuts.(d - 1) else min_int in
          consume_lane d ~upto:cut
        done;
        if seq > replay_after.(0) then begin
          incr replayed;
          Hsq_storage.Io_stats.note_wal_replayed stats;
          marker_logic step
        end)
    lane_records.(0);
  for d = 1 to lanes_on_disk - 1 do
    consume_lane d ~upto:max_int
  done;
  (* The logs are deliberately left un-rotated after replay: committed
     markers replay as skips, so a crash during recovery just recovers
     again.  The next end_time_step rotates them. *)
  if not (Sys.file_exists meta_path) then save_meta t meta_path;
  let runtime_lanes = config.Config.ingest_domains in
  (* Reconcile the on-disk lane layout with the runtime lane count.
     Shrinking consolidates: everything is already replayed into memory,
     so one checkpoint carrying the surviving lanes' cut vector makes
     the dropped lanes' records durable in sketch-image form, after
     which their files can go.  Deletion runs top-down so a crash
     mid-consolidation leaves a *contiguous* wider layout — the next
     open finds the cut vector too short for it, discards the
     checkpoint, and replays the still-intact files in full. *)
  let surviving_extra =
    Array.init
      (min (runtime_lanes - 1) (lanes_on_disk - 1))
      (fun i ->
        let w, _, _ = extra_opened.(i) in
        w)
  in
  let consolidated =
    if lanes_on_disk <= runtime_lanes then false
    else begin
      let lane_seqs = Array.map Hsq_storage.Wal.last_seq surviving_extra in
      Checkpoint.save ~path:ckpt_path
        {
          Checkpoint.seq = Hsq_storage.Wal.last_seq wal;
          steps_done = Hsq_hist.Level_index.time_steps t.hist;
          batch = Array.sub t.batch 0 t.batch_len;
          gk = Stream_sketch.serialize t.gk;
          lane_seqs;
        };
      Hsq_storage.Io_stats.note_checkpoint stats;
      for d = lanes_on_disk - 1 downto runtime_lanes do
        let w, _, _ = extra_opened.(d - 1) in
        Hsq_storage.Wal.close w;
        try Sys.remove (lane_file d) with Sys_error _ -> ()
      done;
      true
    end
  in
  (* Growing just creates fresh logs for the new lanes. *)
  let created_extra =
    Array.init
      (max 0 (runtime_lanes - lanes_on_disk))
      (fun i ->
        Hsq_storage.Wal.create ~sync:config.Config.wal_sync ~stats
          ~path:(lane_file (lanes_on_disk + i)) ~start_seq:1 ())
  in
  if runtime_lanes > 1 then
    install_lanes t
      (Array.append [| Some wal |]
         (Array.map Option.some (Array.append surviving_extra created_extra)));
  t.durable <-
    Some
      {
        wal;
        meta_path;
        ckpt_path;
        checkpoint_every = config.Config.checkpoint_every;
        since_checkpoint = 0;
        last_checkpoint_seq =
          (if consolidated then Hsq_storage.Wal.last_seq wal
           else if checkpoint_used then replay_after.(0)
           else 0);
      };
  (* Recovery depth stays readable after the report is dropped: status
     tooling (hsq status --health, the serve health verb) shows how much
     replay the last open needed, per engine registry — and therefore
     per shard once engines are grouped. *)
  let reg = Hsq_storage.Io_stats.registry stats in
  Metrics.Gauge.set
    (Metrics.gauge ~help:"WAL records replayed by the last open" reg "hsq_recovery_wal_replayed")
    (float_of_int !replayed);
  Metrics.Gauge.set
    (Metrics.gauge ~help:"1 when the last open restored a sketch checkpoint" reg
       "hsq_recovery_checkpoint_used")
    (if checkpoint_used then 1.0 else 0.0);
  Metrics.Gauge.set
    (Metrics.gauge ~help:"Time steps re-archived by the last open" reg
       "hsq_recovery_steps_reingested")
    (float_of_int !reingested);
  ( t,
    {
      replayed = !replayed;
      steps_reingested = !reingested;
      steps_skipped = !skipped;
      checkpoint_used;
      wal_tail =
        (match tail with Hsq_storage.Wal.Clean -> None | Hsq_storage.Wal.Torn why -> Some why);
    } )

let is_closed t = t.closed

(* Mark the engine closed under every lane lock: an in-flight
   [observe_domain] either completes (WAL-appended — recovery replays
   it) or observes [closed] and raises, so no observe can ever append to
   a released channel.  Returns whether this call did the transition. *)
let mark_closed t =
  Array.iter (fun ln -> Mutex.lock ln.lane_lock) t.lanes;
  let was_closed = t.closed in
  t.closed <- true;
  Array.iter (fun ln -> Mutex.unlock ln.lane_lock) t.lanes;
  not was_closed

let extra_lane_wals t d =
  Array.to_list t.lanes
  |> List.filter_map (fun ln ->
         match ln.lane_wal with Some w when w != d.wal -> Some w | _ -> None)

let close t =
  if mark_closed t then begin
    Bisection.shutdown_pool t.query_pool;
    (match t.durable with
    | None -> ()
    | Some d ->
      List.iter Hsq_storage.Wal.close (extra_lane_wals t d);
      Hsq_storage.Wal.close d.wal);
    Hsq_storage.Block_device.close t.dev
  end

(* Simulated power cut (crash harness): drop what the WALs had not
   flushed and release the handles — block writes are synchronous in
   this model, so only the log tails are at stake. *)
let crash t =
  if mark_closed t then begin
    Bisection.shutdown_pool t.query_pool;
    (match t.durable with
    | None -> ()
    | Some d ->
      List.iter Hsq_storage.Wal.crash (extra_lane_wals t d);
      Hsq_storage.Wal.crash d.wal);
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
        checkpoint_path = d.ckpt_path;
        last_checkpoint_seq = d.last_checkpoint_seq;
        since_checkpoint = d.since_checkpoint;
      }

(* Structured fault injection on the engine's own WAL (tests). *)
let set_wal_injector t inj =
  match t.durable with None -> () | Some d -> Hsq_storage.Wal.set_injector d.wal inj
