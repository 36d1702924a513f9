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
          [round] children) when tracing is on via {!set_tracer}; [None]
          otherwise. *)
}

(** Stable lowercase label ("none" / "quarantined" / "deadline" /
    "device_open") for logs and the CLI. *)
val degradation_label : degradation -> string

(** [create ?device config] — a fresh engine. Without [device] an
    in-memory simulated block device of [config.block_size] is used. *)
val create : ?device:Hsq_storage.Block_device.t -> Config.t -> t

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

(** Turn per-query tracing on ([Some trace]) or off ([None]). The
    tracer is mirrored onto the device's {!Hsq_storage.Io_stats} so WAL
    append/sync and merge spans record too. Queries then
    carry their root span in [query_report.span] (accurate path) and
    record [query.quick] root spans (quick path). Tracing is meant for
    single-threaded diagnosis sessions: the engine is single-submitter
    by contract. *)
val set_tracer : t -> Hsq_obs.Trace.t option -> unit

val hist : t -> Hsq_hist.Level_index.t

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
    log first — the acknowledgement: if the append raises, the element
    is unacknowledged and in-memory state is untouched. It is then
    buffered, and every 512 buffered elements are handed off, sorted, to
    the sketch ({!Hsq_sketch.Gk.insert_sorted_batch}) and the step spool
    in one merge; {!end_time_step} hands off the rest. Reads (sizes,
    summaries, answers) count the buffer and merge it into a copy of the
    sketch, so each acknowledged element is visible to the next call and
    no read changes the sketch: its state is a function of the observed
    values and the step ends alone, which a WAL replay repeats. The
    engine is single-submitter: one thread at a time calls into it. *)
val observe : t -> int -> unit

(** [observe] for a run of elements, in order, as one WAL append call
    ({!Hsq_storage.Wal.append_observes}): under [Always] the run costs
    one physical flush. On a WAL fault at element [j] the first [j]
    elements are acknowledged and buffered, the rest are not, and
    [Hsq_storage.Wal.Partial (j, e)] is raised. {!observe} is its
    one-element case, raising the fault itself. *)
val observe_batch : t -> int array -> unit

(** HistUpdate (Algorithm 3) + StreamReset. Raises [Invalid_argument]
    on an empty batch — before any WAL write, so an empty rollover is a
    pure no-op on a durable engine too. On a durable engine the
    rollover is exactly-once: commit marker + forced WAL sync, then the
    warehouse archive and sidecar write (the commit point), then an
    atomic WAL rotation. *)
val end_time_step : t -> Hsq_hist.Level_index.update_report

(** {2 Scrub} *)

type scrub_report = {
  partitions_checked : int; (** active partitions cursor-scanned *)
  blocks_read : int;
  errors : string list; (** empty iff the warehouse is healthy *)
  quarantined : int; (** partitions this scrub moved into quarantine
                         (always 0 without [repair]) *)
  reinstated : int; (** quarantined partitions this scrub verified and
                        returned to service (always 0 without [repair]) *)
  still_quarantined : int; (** quarantined partitions remaining *)
}

(** Re-read every active partition front to back, verifying per-block
    checksums (any flipped bit surfaces here as a checksum failure) and
    cross-block sortedness and element counts. Returns a report instead
    of raising: a damaged partition yields one error entry and the scan
    continues with the rest.

    With [repair] (the [hsq scrub --repair] path) the scrub also acts:
    a failing active partition is quarantined on the spot, every
    previously quarantined partition goes through
    {!Hsq_hist.Level_index.reinstate} — re-verified end to end and
    returned to service if clean — and deferred merges are retried; a
    durable engine then commits the changed layout to its sidecar
    (atomically, as a step commit does; the open step stays in the
    WAL).
    The outcome is exported as [hsq_scrub_last_*] gauges in the
    engine's metric registry. *)
val scrub : ?repair:bool -> t -> scrub_report

(** {!observe_batch} the elements, then [end_time_step]. A WAL fault
    raises its cause, as {!observe} does. *)
val ingest_batch : t -> int array -> Hsq_hist.Level_index.update_report

(** Retention: drop partitions entirely older than the last
    [keep_steps] archived steps. Returns (partitions, elements)
    dropped. *)
val expire : t -> keep_steps:int -> int * int

(** Current SS (rebuilt on each call — the stream moves with every
    hand-off). *)
val stream_summary : t -> Stream_summary.t

(** The open step's GK sketch with the ingest buffer merged in (the
    live sketch itself when the buffer is empty, else a copy; read it,
    never insert into it), and the open step's elements in a fresh
    sorted array (anti-entropy hashes them). Neither changes the
    engine. *)
val stream_sketch : t -> Hsq_sketch.Gk.t
val open_step : t -> int array

(** Current TS over the active partitions: {!quick}'s and
    {!accurate}'s summary, from the one summary cache (see
    {!quick_over}): the cached TS is reused while the level-index
    {!Hsq_hist.Level_index.epoch} and the stream size stand still, and
    rebuilt over its cached historical aggregate while only the stream
    size moved (the aggregate is rebuilt only after a partition add /
    merge / expire / quarantine / recovery) — the steady-state O(S)
    query path. Entry-for-entry {!Union_summary.equal} to
    [Union_summary.build] over a fresh [Union_summary.hist_aggregate] of
    the active partitions and {!stream_summary}. *)
val union_summary : t -> Union_summary.t

(** Algorithm 5. Rank is clamped to [1, N]. Raises on an empty engine.
    The one-source case of {!quick_over}, counted and traced the same,
    without the rank bound: [quick t ~rank] is
    [fst (quick_with_bound t ~rank)]. *)
val quick : t -> rank:int -> int

(** Quick answer plus an upper bound on its rank error: the Lemma 2
    rank window of the answer around the requested rank, widened by the
    quarantined element count. The oracle-checked bound the chaos
    harness asserts against. The one-source case of {!quick_over}. *)
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

(** {2 Query views}

    {!quick} and {!accurate} read one engine. A shard group reads one
    replica per shard, and a step range reads some partitions and maybe
    no stream: both are views over several sources, answered by the
    same code. *)

(** One source of a view: [engine]'s archived partitions ([parts =
    None]) or the given ones among them, plus its open step's stream
    when [stream]. *)
type source = { engine : t; parts : Hsq_hist.Partition.t list option; stream : bool }

(** A view's sources and the elements none of them holds (a shard
    group's shards with no live replica): every answer's bound widens by
    [widen]. *)
type view = { sources : source list; widen : int }

(** [engine] whole: every partition and the stream. *)
val source : t -> source

(** Algorithm 5 over the view's union summary, whose Lemma 2 windows
    sum the sources' ({!Union_summary.build}). Returns the answer,
    its rank-error bound and the quarantined elements that bound was
    widened by. Quarantined partitions leave the summary and widen the
    bound by their size. When that leaves nothing in view while
    archived data exists, the answer comes from a summary over every
    selected partition, whose windows already cover the quarantined
    elements (the count returned is then 0). The bound also widens by
    [widen].

    A view that reads every source whole is cached in its first
    source's engine, keyed by each source's engine (by identity),
    level-index epoch and stream size, so no caller invalidates it.
    Each call counts one quick query in every source's metrics
    ([hsq_query_quick_total], sampled [hsq_query_quick_seconds]) and,
    when the first source's engine traces, records a [query.quick]
    span. Raises [Invalid_argument] when no data is in view. *)
val quick_over : view -> rank:int -> int * float * int

(** How an accurate query reads past a failed engine: [reach] is every
    engine a view may name (their devices' I/O counts in the report,
    and their partitions set the retry cap), and [condemn e] drops [e]
    from the views the query fetches next, returning whether any view
    is left. *)
type failover = { reach : t list; condemn : t -> bool }

(** {!accurate} over [choose ()]'s view, which is fetched again after
    every quarantine and every condemned engine. The policy is the
    engine's: a probe failure counts toward its partition's quarantine
    ([config.quarantine_after]); a breaker-open device, or retries
    exhausted, condemns the engine — without [failover], the answer
    then comes from the view's summary in memory ([`Device_open]),
    widened by the quarantined elements. A view whose active summary is
    empty answers from the whole selection's summary in memory, as
    {!quick_over} does. Every bound widens by the view's [widen]. The
    deadline comes from [deadline_ms], else [config]. The query counts
    in the metrics of each source of the last view fetched. *)
val accurate_over :
  ?tolerance_factor:float ->
  ?deadline_ms:float ->
  ?failover:failover ->
  config:Config.t ->
  (unit -> view) ->
  rank:int ->
  int * query_report

(** Estimated rank(v, T): exact over the history, ±ε₂·m over the
    stream. *)
val rank_of : t -> int -> int

(** φ-quantile of Definition 1 (rank = ⌈φN⌉), accurate path. *)
val quantile : t -> float -> int * query_report

(** Refusals of the step-range selectors. Windows (the last [w]
    archived steps plus the live stream, Section 2.4) and historical
    ranges (archived steps [first, last], stream excluded) are answered
    by {!Hsq_shard.Shard_group} at any shard count; an unaligned window
    is refused with the answerable window sizes, an unaligned range with
    the partition extents every read replica shares. *)

type window_error = Window_not_aligned of int list
type range_error = Range_not_aligned of (int * int) list

(** {2 Durable ingest (write-ahead log)}

    {!open_or_recover} opens (or creates) a crash-safe store rooted at
    [config.wal_dir]: a block-device file, its warehouse sidecar, and a
    write-ahead log, the open step's one durable copy. Every
    {!observe} is WAL-logged before it is applied; {!end_time_step}
    archives the batch with an exactly-once commit protocol; recovery
    loads the warehouse and replays the whole log, which leaves the
    engine exactly as the acknowledged operations left the live one.
    Under [wal_sync = Always] a crash loses no acknowledged element;
    under [Group k] at most the last [k]. *)

(** What recovery did. [replayed] counts WAL records re-applied (the
    {!Hsq_storage.Io_stats} [wal_replayed] counter agrees);
    [steps_skipped] counts commit
    markers whose step was already in the warehouse (crash between the
    sidecar write and the WAL rotation); [wal_tail] is why the log tail
    was floored, if it was torn. *)
type recovery_report = {
  replayed : int;
  steps_reingested : int;
  steps_skipped : int;
  wal_tail : string option;
}

(** Raised by {!open_or_recover} and {!check_store} on a store written
    with the removed multi-lane ingest ([--ingest-domains > 1]): it
    holds [wal-<d>.log] files next to [wal.log], with acknowledged
    elements nothing here replays. The message names the file and the
    way out: open the store once with an hsq build that still has
    [--ingest-domains], at [--ingest-domains 1], which consolidates the
    lane logs. *)
exception Unsupported_store of string

(** Raise {!Unsupported_store} if the store directory [dir] holds a
    lane log; a no-op on a missing directory. *)
val check_store : dir:string -> unit

(** Open the durable store at [config.wal_dir], recovering any state a
    previous process left behind: the whole WAL, replayed through the
    same ingest buffer as {!observe}, so every hand-off falls where it
    fell live. A sketch checkpoint file that an older build left is
    deleted unread.
    Raises [Invalid_argument] if [config.wal_dir] is [None],
    {!Unsupported_store} on a lane store (before touching any file), and
    {!Hsq_storage.Block_device.Device_error} / [Meta.Corrupt_metadata]
    on unrecoverable store damage. *)
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

(** Flush the WAL now, whatever the sync policy: every acknowledged
    element is then in the log's file. No-op on a volatile engine, and
    on a closed one. *)
val sync : t -> unit

(** Live durability introspection for status tooling; [None] on a
    volatile engine. *)
type durability_status = {
  wal_path : string;
  wal_start_seq : int;
  wal_next_seq : int;
  wal_pending : int;
}

val durability_status : t -> durability_status option

(** The three files of a durable store directory, in order:
    (device, warehouse sidecar, WAL). For status tooling that inspects a
    store without opening it. *)
val store_paths : dir:string -> string * string * string

(** Reopen the warehouse of the store at [dir] — its device file and
    sidecar, each partition's summary rebuilt with at most β₁ block
    reads — as an engine with an empty stream side and no WAL: the open
    step stays in the log, unread, and nothing is written. The engine's
    config is the sidecar's (durability fields at their defaults); its
    metrics live in the device's private registry. Raises
    [Meta.Corrupt_metadata] on a version / parse / checksum / invariant
    mismatch, including unsorted on-disk partitions and partitions
    whose blocks fail their device checksums, and
    {!Hsq_storage.Block_device.Device_error} without a device file. *)
val load_warehouse : dir:string -> t

(** Whether [dir] holds a store: its sidecar or its WAL exists (an open
    writes both before it returns). *)
val store_exists : dir:string -> bool

(** Inject faults into the engine's WAL appends (crash fuzzing). *)
val set_wal_injector :
  t -> (int -> Hsq_storage.Block_device.fault_action option) option -> unit
