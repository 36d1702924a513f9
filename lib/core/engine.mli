(** The integrated historical + streaming quantile engine — the paper's
    primary contribution.

    Feed stream elements with {!observe}; close a time step with
    {!end_time_step} (the batch is sorted into the warehouse and the
    stream sketch reset). Query any time with {!quick} (Algorithm 5,
    memory-only, O(εN) rank error) or {!accurate} (Algorithms 6–8, a
    few dozen disk probes, O(εm) rank error — proportional to the
    stream size only, per Theorem 2). *)

type t

(** How far an accurate answer fell from the full O(εm) contract
    (replaces the former bare [degraded : bool]):
    - [`None] — the bisection completed normally;
    - [`Quarantined q] — it completed, but [q] elements sit in
      quarantined partitions the probes excluded, widening the bound;
    - [`Deadline] — the deadline cut the bisection and the answer is
      the best-so-far (quick answer clamped into the surviving filter
      interval);
    - [`Device_open] — the device's circuit breaker is open (or probe
      retries were exhausted without isolating a partition) and the
      answer came from the in-memory union summary (Algorithm 5). *)
type degradation = [ `None | `Quarantined of int | `Deadline | `Device_open ]

(** Cost and fidelity of one accurate query: exact I/O counters, the
    number of value-domain bisection steps (recursive calls of
    Algorithm 8), what degraded it (if anything), and an upper bound on
    [|rank(answer) − rank|] under that degradation — the stopping band
    plus the stream estimate's ±ε₂·m uncertainty when the bisection
    completed, a Lemma 2 rank window otherwise, widened by the
    quarantined element count either way. The chaos harness checks this
    bound against an exact oracle under every fault schedule. *)
type query_report = {
  io : Hsq_storage.Io_stats.counters;
  iterations : int;
  degradation : degradation;
  rank_error_bound : float;
  span : Hsq_obs.Trace.span option;
      (** The query's root trace span ([query.accurate], with [bisect] /
          [probe] children) when tracing is on via {!set_tracer}; [None]
          otherwise. *)
}

(** Stable lowercase label ("none" / "quarantined" / "deadline" /
    "device_open") for logs and the CLI. *)
val degradation_label : degradation -> string

(** [create ?device config] — a fresh engine. Without [device] an
    in-memory simulated block device of [config.block_size] is used. *)
val create : ?device:Hsq_storage.Block_device.t -> Config.t -> t

(** Adopt a restored historical index (recovery; used by {!Persist}).
    The stream side starts empty — the live stream is volatile. *)
val of_restored :
  device:Hsq_storage.Block_device.t -> Config.t -> Hsq_hist.Level_index.t -> t

val config : t -> Config.t
val device : t -> Hsq_storage.Block_device.t

(** {2 Observability}

    Every engine registers its metrics in the device's registry (the
    one behind [Io_stats.registry (Block_device.stats (device t))]):
    query counters ([hsq_query_quick_total], [hsq_query_accurate_total],
    [hsq_query_degraded_total], summary-cache hits/misses), latency
    histograms ([hsq_query_quick_seconds] — sampled 1-in-64 —,
    [hsq_query_accurate_seconds]) and the bisection-iteration histogram,
    alongside the I/O, WAL, merge, device and pool metrics of the layers
    below. See DESIGN.md §11 for the full metric and span taxonomy. *)

(** The engine's metric registry (the device's). *)
val metrics : t -> Hsq_obs.Metrics.t

(** Record, in this engine's query metrics, a query answered over its
    state by a caller that keeps its own summaries (a shard group's
    fused query): a hit or miss of that caller's summary cache, and an
    accurate query's latency, bisection iterations and whether it
    degraded. *)
val note_summary_cache : t -> hit:bool -> unit

val note_accurate : t -> seconds:float -> iterations:int -> degraded:bool -> unit

(** Turn per-query tracing on ([Some trace]) or off ([None]). The
    tracer is mirrored onto the device's {!Hsq_storage.Io_stats} so WAL
    append/sync, merge and checkpoint spans record too. Queries then
    carry their root span in [query_report.span] (accurate path) and
    record [query.quick] root spans (quick path). Tracing is meant for
    single-threaded diagnosis sessions: the engine is single-submitter
    by contract, and only the parallel probe spans attach from worker
    domains (safely, via explicit parents). *)
val set_tracer : t -> Hsq_obs.Trace.t option -> unit

val tracer : t -> Hsq_obs.Trace.t option
val hist : t -> Hsq_hist.Level_index.t
val stream_sketch : t -> Stream_sketch.t

(** Which ε₂ sketch kind the open step runs ([`Gk] or [`Kll]), and its
    label ("gk"/"kll") for status and metrics surfaces. *)
val sketch_kind : t -> [ `Gk | `Kll ]

val sketch_label : t -> string

(** Snapshot-consistent deep copy of the open step's KLL sketch;
    [None] when the engine runs GK.  {!Hsq_shard.Shard_group} merges
    these to compose fused stream summaries by sketch merge. *)
val kll_snapshot : t -> Hsq_sketch.Kll.t option

(** m, n, N = n + m, and T (time steps archived). *)
val stream_size : t -> int

val hist_size : t -> int
val total_size : t -> int
val time_steps : t -> int

(** Current ε₂ (stream summary spacing) and the overall ε = 4·ε₂. In
    memory mode these reflect the capped sketch's adaptive ε. *)
val eps2 : t -> float

val epsilon : t -> float

(** Summary footprint: HS + GK, in words. *)
val memory_words : t -> int

(** StreamUpdate (Algorithm 4) plus batch spooling. On a durable engine
    (see {!open_or_recover}) the element is appended to the write-ahead
    log first: if the append raises, the element is unacknowledged and
    in-memory state is untouched.

    With [config.ingest_domains = 1] (the default) the engine is
    single-submitter: this is the classic paper path. With
    [ingest_domains > 1] the call routes to lane 0 of
    {!observe_domain} and may be issued concurrently with other
    lanes. *)
val observe : t -> int -> unit

(** {2 Concurrent ingest lanes (DESIGN.md §15)}

    With [config.ingest_domains = D > 1] the engine carries D
    shard-local stream buffers. {!observe_domain} is safe to call from
    any thread, concurrently across lanes (and even on the same lane —
    the lane lock serializes); each lane buffers [config.ingest_batch]
    elements and hands the sorted run into the GK sketch under one
    propagation lock, so contention is per batch, not per element. On a
    durable engine each lane appends to its own WAL
    ([wal.log], [wal-1.log], …) before buffering — the acknowledged
    prefix is exactly what recovery reproduces, in deterministic
    lane-major order within each step.

    Everything else — queries, {!end_time_step}, {!checkpoint_now},
    {!close} — remains single-submitter ("the engine thread"): those
    calls may run concurrently with [observe_domain], but not with each
    other. Queries are snapshot-consistent: they seal nothing and see
    only whole propagated batches ([end_time_step] and range queries
    seal-and-drain all lanes first). *)

(** [observe_domain t ~domain v] — observe [v] on lane
    [domain mod ingest_domains]. Equal to {!observe} when
    [ingest_domains = 1]. Raises [Invalid_argument] after {!close} /
    {!crash}. *)
val observe_domain : t -> domain:int -> int -> unit

(** Configured lane count (≥ 1). *)
val ingest_domains : t -> int

(** Seal every lane and propagate all buffered elements into the
    sketch, then release. Call from the engine thread before reading
    exact totals; {!end_time_step} does this implicitly. *)
val flush_ingest : t -> unit

(** Elements currently buffered in lanes (not yet in the sketch).
    Approximate under concurrency — for gauges, not invariants. *)
val buffered_ingest : t -> int

(** [true] when lane hand-offs have accumulated enough WAL records
    since the last checkpoint ([config.checkpoint_every]) that the
    engine thread should call {!checkpoint_if_due}. Lanes never
    checkpoint themselves — the engine thread settles the debt, which
    keeps the lock order (lanes before propagation) acyclic. *)
val ingest_checkpoint_due : t -> bool

(** Take the due checkpoint (a {!checkpoint_now}) if
    {!ingest_checkpoint_due}; returns whether one was taken. *)
val checkpoint_if_due : t -> bool

(** HistUpdate (Algorithm 3) + StreamReset. Raises [Invalid_argument]
    on an empty batch — before any WAL write, so an empty rollover is a
    pure no-op on a durable engine too. On a durable engine the
    rollover is exactly-once: commit marker + forced WAL sync, then the
    warehouse archive and sidecar write (the commit point), then an
    atomic WAL rotation. *)
val end_time_step : t -> Hsq_hist.Level_index.update_report

(** [observe] each element, then [end_time_step]. *)
val ingest_batch : t -> int array -> Hsq_hist.Level_index.update_report

(** Retention: drop partitions entirely older than the last
    [keep_steps] archived steps. Returns (partitions, elements)
    dropped. *)
val expire : t -> keep_steps:int -> int * int

(** Current SS (rebuilt on each call — the stream moves on every
    [observe]). *)
val stream_summary : t -> Stream_summary.t

(** Current TS. Without [partitions] the historical half comes from a
    cached aggregate keyed on {!Hsq_hist.Level_index.epoch} (rebuilt
    only after a partition add / merge / expire / recovery), merged
    with a fresh stream summary — the steady-state O(S) query path.
    With an explicit [partitions] subset (windows, ranges) the summary
    is built fresh. Both paths produce identical entries. *)
val union_summary : ?partitions:Hsq_hist.Partition.t list -> t -> Union_summary.t

(** TS built from scratch over the full partition set, bypassing the
    cache — the reference the consistency fuzz suite compares
    {!union_summary} against. *)
val fresh_union_summary : t -> Union_summary.t

(** Algorithm 5. Rank is clamped to [1, N]. Raises on an empty engine. *)
val quick : t -> rank:int -> int

(** Quick answer plus an upper bound on its rank error: the Lemma 2
    rank window of the answer around the requested rank, widened by the
    quarantined element count. The oracle-checked bound the chaos
    harness asserts against. *)
val quick_with_bound : t -> rank:int -> int * float

(** Algorithms 6–8. Returns the answer and its cost.
    [tolerance_factor] sets Algorithm 8's stopping band as a multiple
    of ε₂·m: the paper's band is factor 4 (= ε·m); the default 0.5
    trades a few (mostly cached) extra probes for ~4× better accuracy.
    This is the accuracy/disk-access axis of the tradeoff space the
    paper's conclusion discusses.

    [deadline_ms] (default [config.query_deadline_ms]) bounds the
    query's wall clock: the bisection checks it between iterations (and
    parallel probe rounds are cooperatively cancelled), and a cut query
    returns its best-so-far answer with [degradation = `Deadline] and
    an honest [rank_error_bound]. Probe failures are contained rather
    than surfaced: the failing partition's counter advances toward
    quarantine ([config.quarantine_after]), the query retries without
    it, and a breaker-open device degrades to the in-memory answer
    ([`Device_open]) without quarantining healthy partitions. *)
val accurate :
  ?tolerance_factor:float -> ?deadline_ms:float -> t -> rank:int -> int * query_report

(** Estimated rank(v, T): exact over the history, ±ε₂·m over the
    stream. *)
val rank_of : t -> int -> int

(** Empirical CDF point P(X ≤ v) over T. Raises on an empty engine. *)
val cdf : t -> int -> float

(** φ-quantile of Definition 1 (rank = ⌈φN⌉), accurate / quick path. *)
val quantile : t -> float -> int * query_report

val quick_quantile : t -> float -> int

(** {2 Windowed queries (Section 2.4)}

    A window covers the last [w] archived time steps plus the live
    stream; only partition-aligned windows are answerable. *)

type window_error = Window_not_aligned of int list

(** Window sizes currently answerable, ascending. *)
val window_sizes : t -> int list

(** Elements in the window (including the stream). *)
val window_total : t -> window:int -> (int, window_error) result

(** Same [tolerance_factor] / [deadline_ms] contract as {!accurate}:
    a deadline-cut windowed query degrades honestly rather than
    overrunning its budget. *)
val accurate_window :
  ?tolerance_factor:float ->
  ?deadline_ms:float ->
  t ->
  window:int ->
  rank:int ->
  (int * query_report, window_error) result
val quick_window : t -> window:int -> rank:int -> (int, window_error) result
val quantile_window : t -> window:int -> float -> (int * query_report, window_error) result

(** {2 Historical range queries}

    Quantiles over the archived steps [first, last] only (the live
    stream excluded) — "compare current trends with those observed over
    different time periods" from the paper's introduction. Answerable
    iff the range is partition-aligned; errors carry the current
    partition extents so callers can snap. With exact partition ranks
    and no stream, answers are near-exact. *)

type range_error = Range_not_aligned of (int * int) list

val range_total : t -> first:int -> last:int -> (int, range_error) result

val accurate_range :
  ?tolerance_factor:float ->
  t ->
  first:int ->
  last:int ->
  rank:int ->
  (int * query_report, range_error) result

val quantile_range :
  t -> first:int -> last:int -> float -> (int * query_report, range_error) result

(** {2 Durable ingest (write-ahead log + sketch checkpoints)}

    {!open_or_recover} opens (or creates) a crash-safe store rooted at
    [config.wal_dir]: a block-device file, its warehouse sidecar, a
    write-ahead log, and an optional sketch checkpoint. Every
    {!observe} is WAL-logged before it is applied; {!end_time_step}
    archives the batch with an exactly-once commit protocol; recovery
    composes the warehouse load, the checkpoint, and a WAL replay into
    one consistent state. Under [wal_sync = Always] a crash loses no
    acknowledged element; under [Group k] at most the last [k]. *)

(** What recovery did. [replayed] counts WAL records re-applied (only
    those past the checkpoint — the {!Hsq_storage.Io_stats}
    [wal_replayed] counter agrees); [steps_skipped] counts commit
    markers whose step was already in the warehouse (crash between the
    sidecar write and the WAL rotation); [wal_tail] is why the log tail
    was floored, if it was torn. *)
type recovery_report = {
  replayed : int;
  steps_reingested : int;
  steps_skipped : int;
  checkpoint_used : bool;
  wal_tail : string option;
}

(** Open the durable store at [config.wal_dir], recovering any state a
    previous process left behind. Raises [Invalid_argument] if
    [config.wal_dir] is [None], and {!Hsq_storage.Block_device.Device_error}
    / [Meta.Corrupt_metadata] on unrecoverable store damage (a corrupt
    checkpoint is NOT damage: it falls back to a full replay). *)
val open_or_recover : Config.t -> t * recovery_report

(** Flush the WAL and close the log and device files. Never called in
    the crash tests — a crash is, by definition, not closing.
    Idempotent: a second [close] (or a [close] after {!crash}) is a
    no-op, so overlapping shutdown paths are safe. *)
val close : t -> unit

(** Simulate a power cut (test helper): unflushed WAL records vanish
    and file handles are released. What survives on disk is exactly
    what the sync policy had made durable. Idempotent, like {!close}. *)
val crash : t -> unit

(** [true] once {!close} or {!crash} has run. *)
val is_closed : t -> bool

(** Force a sketch checkpoint right now (also taken automatically every
    [config.checkpoint_every] WAL records). No-op on a volatile
    engine, and on a closed one. *)
val checkpoint_now : t -> unit

(** Live durability introspection for status tooling; [None] on a
    volatile engine. [last_checkpoint_seq] = 0 means no live
    checkpoint. *)
type durability_status = {
  wal_path : string;
  wal_start_seq : int;
  wal_next_seq : int;
  wal_pending : int;
  checkpoint_path : string;
  last_checkpoint_seq : int;
  since_checkpoint : int;
}

val durability_status : t -> durability_status option

(** The four files of a durable store directory, in order:
    (device, warehouse sidecar, WAL, checkpoint). For status tooling
    that inspects a store without opening it. *)
val store_paths : dir:string -> string * string * string * string

(** Inject faults into the engine's WAL appends (crash fuzzing). *)
val set_wal_injector :
  t -> (int -> Hsq_storage.Block_device.fault_action option) option -> unit
