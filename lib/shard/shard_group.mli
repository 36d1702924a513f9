(** A sharded, replicated warehouse: K logical shards × R replicas,
    one fused query surface.

    [observe] hash-partitions the stream across the shards; within a
    shard each op is applied synchronously to every live replica —
    each a complete single-submitter {!Hsq.Engine} with its own block
    device, WAL directory, circuit breaker, quarantine
    state, and metrics registry.  An observe is acknowledged iff at
    least one live replica of its shard accepted it; per-replica WAL
    sequence numbers advance in lockstep, which keeps the ack
    semantics exactly-once across replica crashes and rejoins.

    Queries are the engine's own ({!Hsq.Engine.quick_over},
    {!Hsq.Engine.accurate_over}: one view, one summary cache, one
    failure policy) over ONE live read replica per shard, their Lemma 2
    windows summed (DESIGN.md §14). The group adds only what is about
    shards: which replica each shard is read through, which partitions
    a step range selects, and the failover rule — a replica whose
    breaker opens or whose probes exhaust their retries is dropped and
    the query re-fetches its view through a sibling. Answers keep the
    full ±ε·m precision through any loss that leaves ≥ 1 replica per
    shard, and only a shard losing its whole replica set degrades to
    [`Shard_down] with the honest element-count widening.

    Hinted handoff: while a replica is down, its shard-mates buffer
    every acked op into a durable per-peer hint log
    ({!Hint_log}); {!rejoin_replica} drains it into the recovered
    replica — exactly-once, by main-WAL sequence arithmetic — before
    the replica re-enters the read set.

    Anti-entropy: replicas applying identical op sequences converge
    bit-for-bit, so {!anti_entropy} compares per-replica state
    digests ({!Anti_entropy.digest}), flags mismatches as
    [`Replica_diverged], and (with [repair]) converges the minority
    onto the healthiest sibling by file copy.

    [replicas = 1] is the classic layout — bit-compatible on disk and
    in metrics with stores written before replication existed.

    Concurrency: the group is single-submitter.  With R > 1 the write
    paths additionally serialize on an internal mutex; R = 1 takes no
    locks at all. *)

type t

exception Shard_unavailable of int * string
(** Raised by {!observe} routing to a shard with
    no live replica (or whose every live replica failed the write):
    the element is explicitly unacknowledged. *)

(** {1 Degradation}

    {!Hsq.Engine.degradation} extended with the replication and
    sharding cases. Severity order (worst wins in fused reports):
    [`None < `Replica_diverged < `Quarantined < `Deadline <
    `Device_open < `Shard_down].

    [`Replica_diverged ps] means the answer was served through
    replicas flagged by anti-entropy with no clean live sibling to
    fail over to — still within the summary's window, but built on a
    replica whose digest disagrees with its shard-mates'. *)

type degradation =
  [ `None
  | `Replica_diverged of (int * int) list  (** (shard, replica) pairs served while flagged *)
  | `Quarantined of int
  | `Deadline
  | `Device_open
  | `Shard_down of int list ]

val degradation_label : degradation -> string

(** The more severe of the two (severity order above). [`Quarantined]
    counts merge; [`Shard_down] / [`Replica_diverged] lists union
    (sorted, deduplicated). *)
val worst_degradation : degradation -> degradation -> degradation

val severity : degradation -> int

type query_report = {
  io : Hsq_storage.Io_stats.counters;  (** summed over every live replica *)
  iterations : int;
  degradation : degradation;
  rank_error_bound : float;
}

(** {1 Construction} *)

(** [create config] — [config.shards] × [config.replicas] volatile
    engines, each on its own in-memory device (and therefore its own
    metrics registry). Volatile replicas cannot rejoin or hint (their
    data dies with them), but failover reads work. *)
val create : Hsq.Config.t -> t

(** [of_engine e] — a volatile K = 1, R = 1 group over an engine built
    elsewhere (on a file device, or restored by
    {!Hsq.Engine.load_warehouse}); the group takes [e]'s config, closes
    [e] on {!close}, and answers exactly as [e] would. *)
val of_engine : Hsq.Engine.t -> t

type shard_recovery = {
  shard : int;
  replica : int;
  outcome : (Hsq.Engine.recovery_report, string) result;
      (** [Error reason]: that replica failed to recover and starts
          down (the shard still serves through its siblings; a shard
          whose every replica failed has its element count estimated
          from sidecars + WALs, an overcount-safe widening); the group
          still opens. *)
}

(** Open (or create) a durable group rooted at [config.wal_dir]:
    replica [j] of shard [i] is a standard durable store in
    {!store_dir}. [shards = 1] uses the root as the shard directory
    and [replicas = 1] uses the shard directory as the replica store —
    so K = 1, R = 1 is bit-compatible with a store written by a
    non-sharded build. Recovery runs per replica; stale hint logs
    found on disk are drained (or trigger sibling repair) before the
    owning replica serves reads.

    The store is the source of its {!layout}. A root that holds no
    store is created at [config]'s K and R, which a non-flat store
    records in [root/layout] first. Otherwise a [config] that
    disagrees with the layout raises [Invalid_argument], an inferred
    layout is recorded, and a store directory holding neither sidecar
    nor log opens down ("store missing"), nothing created in it. *)
val open_or_recover : Hsq.Config.t -> t * shard_recovery list

(** [Some (shards, replicas)] of the store rooted at [root]: recorded
    in its layout file, else inferred from its [shard-<i>] /
    [replica-<j>] directories (one past the largest index), else
    (1, 1) when the root itself holds a store; [None] when it holds
    none. Reads only. *)
val layout : root:string -> (int * int) option

(** The directory replica [replica] of shard [shard] stores itself in
    (see {!open_or_recover} for the collapsing at K = 1 / R = 1). *)
val store_dir :
  root:string -> shards:int -> replicas:int -> shard:int -> replica:int -> string

(** {1 Topology} *)

val config : t -> Hsq.Config.t

(** Set every live replica's tracer ({!Hsq.Engine.set_tracer}); [None]
    turns tracing off. A fused query records its spans ([query.accurate]
    roots, see {!Hsq.Bisection.run}; [query.quick]) in its first read
    replica's tracer. Replicas that rejoin later are not traced. *)
val set_tracer : t -> Hsq_obs.Trace.t option -> unit

val shard_count : t -> int
val replica_count : t -> int

(** Deterministic shard for a value (splitmix-style hash mod K). *)
val route : t -> int -> int

(** Shards with no live replica, ascending. *)
val shards_down : t -> int list

(** Dead replicas as (shard, replica) pairs, lexicographic. *)
val replicas_down : t -> (int * int) list

(** Replicas currently flagged by anti-entropy, lexicographic. *)
val diverged_replicas : t -> (int * int) list

(** The replica shard [i] currently serves reads through ([None] when
    the whole replica set is down). Callers must respect the
    single-submitter contract. *)
val engine : t -> int -> Hsq.Engine.t option

(** The engine behind one specific replica ([None] when dead). *)
val replica_engine : t -> shard:int -> replica:int -> Hsq.Engine.t option

(** One read replica per serving shard, ascending by shard index. *)
val engines : t -> (int * Hsq.Engine.t) list

(** Last known element count of a shard (live when it serves, frozen
    at the value seen when its last replica died). *)
val shard_elements : t -> int -> int

(** {1 Ingest} *)

(** Ingest one request's elements, in order. At K > 1 they are routed
    into per-shard sub-batches (request order kept within each); each
    sub-batch reaches every live replica of its shard as one WAL append
    call ({!Hsq.Engine.observe_batch}), so under [Always] a request
    costs one flush per replica it touches. A replica that fails its
    append is taken down instead of failing the ack, and its hint log
    gets exactly the acked elements its own log lacks. On a failure the
    call raises [Hsq_storage.Wal.Partial (applied, e)]: [applied] is the
    longest prefix of [vs] that is acknowledged (durable), and [e] is
    {!Shard_unavailable} (no live replica of a shard accepted an
    element) or the WAL fault. Elements past that prefix may be
    applied too, unacknowledged. *)
val observe_batch : t -> int array -> unit

(** {!observe_batch} of one element, raising the failure itself:
    {!Shard_unavailable} when no live replica accepted it. *)
val observe : t -> int -> unit

(** Close the time step on every live replica holding open-step
    elements; the cut is hinted to dead replicas so their drains
    archive the same step boundary.  A step that reaches some shards
    but not all resets window alignment (see Windows and ranges below). Failures are contained per
    replica (the shard reports [Error msg] only if every live replica
    failed its cut); healthy replicas still archive. *)
val end_time_step :
  t -> (int * (Hsq_hist.Level_index.update_report, string) result) list

(** {1 Sizes}

    [total_size] counts downed shards at their last known element
    count — the population the fused bounds are honest against.
    [hist_size] / [stream_size] sum over the read replicas;
    [memory_words] sums over every live replica (true footprint). *)

val total_size : t -> int

val hist_size : t -> int
val stream_size : t -> int
val down_elements : t -> int

(** Max over read replicas. *)
val time_steps : t -> int

val epsilon : t -> float
val memory_words : t -> int

(** {1 Fused queries} *)

(** {!Hsq.Engine.quick_over} the read replicas. Returns
    (value, rank-error bound, degradation): the bound is the fused
    Lemma 2 window widened by every quarantined element and every
    element of shards with no live replica — a shard that merely lost
    SOME replicas serves through a sibling at full precision. With the
    stream empty and every partition quarantined it answers from the
    whole selection's summary, as the engine does.
    Raises [Invalid_argument] when no data is reachable. *)
val quick_with_bound : t -> rank:int -> int * float * degradation

val quick : t -> rank:int -> int

(** {!Hsq.Engine.accurate_over} the read replicas: one bisection over
    the fused filters, probing each shard's read replica, with the shared
    stopping band [tolerance_factor · Σ_s ε₂·m_s] and one deadline.
    A replica whose breaker opens (or whose probes exhaust their
    retries) mid-query is dropped and the bisection restarts with its
    shard FAILED OVER to a live sibling — the bound does not widen,
    because the sibling holds the same logical data. Only when a
    shard's every replica is dropped does the restart exclude the
    shard and widen by its element count ([`Shard_down]). Deadline
    cuts return the fused quick answer clamped into the surviving
    filter interval. The report's degradation composes worst-wins.
    Probe rounds batch the reads of every shard's partitions together,
    as for the engine. *)
val accurate :
  ?tolerance_factor:float -> ?deadline_ms:float -> t -> rank:int -> int * query_report

(** φ-quantile (rank = ⌈φ·N⌉ over the fused population). Raises
    [Invalid_argument] unless φ ∈ (0, 1], as {!Hsq.Engine.quantile}. *)
val quantile : t -> float -> int * query_report

(** {1 Windows and ranges}

    Both select archived time steps by one step range and run through
    the same fused summary and bisection as a full query.
    {!end_time_step} skips a shard that is down or whose open step is
    empty, so equal step counts need not mean equal periods: the group
    keeps each shard's step count b{_i} at the last step that skipped
    some shard (in [root/step-baseline] when durable).  Group step g is
    step b{_i} + g on shard i — at K = 1 the engine's own numbering —
    and only the d steps every read replica has archived since then are
    numbered.  A range [first, last] is answerable when 1 <= first <=
    last <= d and every read replica tiles it with partitions.  A
    window of [w] steps (Section 2.4) is the range [d - w + 1, d] plus
    the live streams; a historical range leaves the streams out, so with
    exact partition ranks its answers are near-exact.  Down shards widen
    the bound by their whole element count, as for full queries. *)

(** Window sizes every read replica can answer, ascending; [[]] until a
    step after the last skip has reached every shard. *)
val window_sizes : t -> int list

(** Elements in the window over the serving shards, streams included. *)
val window_total : t -> window:int -> (int, Hsq.Engine.window_error) result

(** {!quick_with_bound} over the window. *)
val quick_window :
  t -> window:int -> rank:int -> (int * float * degradation, Hsq.Engine.window_error) result

(** {!accurate} over the window. An unanswerable window is refused with
    {!window_sizes}. *)
val accurate_window :
  ?tolerance_factor:float ->
  ?deadline_ms:float ->
  t ->
  window:int ->
  rank:int ->
  (int * query_report, Hsq.Engine.window_error) result

(** The (first, last) group-step extents of the partitions every read
    replica shares, oldest first; [[]] while the replicas disagree on
    d. At K = 1 these are the engine's partition boundaries. *)
val range_boundaries : t -> (int * int) list

(** Elements in group steps [first, last] over the serving shards,
    streams excluded. *)
val range_total : t -> first:int -> last:int -> (int, Hsq.Engine.range_error) result

(** {!accurate} over group steps [first, last], streams excluded. An
    unanswerable range is refused with {!range_boundaries}. *)
val accurate_range :
  ?tolerance_factor:float ->
  ?deadline_ms:float ->
  t ->
  first:int ->
  last:int ->
  rank:int ->
  (int * query_report, Hsq.Engine.range_error) result

(** {1 Fault domains} *)

(** Take one replica down (its device died, its process was killed):
    the engine is crash-released, and — for durable groups — a hint
    log is started at the replica's current WAL
    sequence so shard-mates buffer subsequent acked ops for it. The
    shard keeps serving through its siblings at full precision.
    No-op on a dead replica. *)
val mark_replica_down : t -> shard:int -> replica:int -> reason:string -> unit

(** Take a whole shard down: {!mark_replica_down} on every replica.
    Subsequent routing to it raises {!Shard_unavailable} and fused
    bounds widen by its element count. *)
val mark_down : t -> int -> reason:string -> unit

(** Reason a shard serves nothing (every replica dead), if so. *)
val down_reason : t -> int -> string option

(** Reason one replica is dead, if it is. *)
val replica_down_reason : t -> shard:int -> replica:int -> string option

(** Records buffered in a dead replica's hint log ([None] when the
    replica is live or has no drainable log). *)
val hints_pending : t -> shard:int -> replica:int -> int option

(** Bring one dead replica back: per-replica
    {!Hsq.Engine.open_or_recover} (of a copy of the healthiest live
    sibling's store when the replica's store is lost or fails to
    open), hint-log drain (exactly-once via
    WAL sequence arithmetic), consistency check against a live
    sibling with file-copy repair as the fallback, then a repair
    scrub — zero acknowledged-observation loss. The replica re-enters
    the read/write set only on [Ok]. Durable groups only. *)
val rejoin_replica :
  t ->
  shard:int ->
  replica:int ->
  (Hsq.Engine.recovery_report * Hsq.Engine.scrub_report, string) result

(** Shard-level {!rejoin_replica} over every dead replica of the
    shard; [Ok] if at least one came back (reports are the first
    successful replica's). *)
val rejoin :
  t -> int -> (Hsq.Engine.recovery_report * Hsq.Engine.scrub_report, string) result

(** {1 Anti-entropy} *)

type entropy_report = {
  entropy_shard : int;
  digests : (int * Anti_entropy.digest) list;  (** per live replica, ascending *)
  flagged : (int * string) list;
      (** replicas whose digest disagrees with the reference (majority,
          ties to the healthiest), with the offending digest rendered *)
  repaired : int list;
  repair_failed : (int * string) list;  (** replica is down with this reason *)
}

(** Compare per-replica state digests within each shard (the digest
    covers the open step's elements), flag the minority as diverged,
    and — with [repair] — converge each flagged replica onto the
    healthiest sibling by byte-identical file copy + recovery: the
    source's WAL is synced first, and the replay leaves the copy's
    sketch equal to the source's. Healthy replicas digest
    equal: they apply identical op sequences (see {!Anti_entropy}).
    Returns [[]] for unreplicated or volatile groups. *)
val anti_entropy : ?repair:bool -> t -> entropy_report list

(** {1 Scrub} *)

(** Repair-scrub every live replica. *)
val scrub_all : ?repair:bool -> t -> ((int * int) * Hsq.Engine.scrub_report) list

(** {1 Lifecycle} *)

(** Close every live replica ({!Hsq.Engine.close}: the WAL flushes) and
    any open hint logs. Idempotent. *)
val close : t -> unit

(** Test helper: power-cut every live replica (hint logs crash-closed
    too, their flushed prefix intact on disk). *)
val crash : t -> unit

val is_closed : t -> bool

(** {1 Metrics}

    Each replica keeps its own registry (reachable via
    {!replica_engine}); creation also sets an [hsq_shard_index] gauge
    (and, when R > 1, [hsq_replica_index]) in each. The group
    exporters merge them, labelling per-replica metrics with
    [shard="<k>"] — plus [replica="<j>"] when R > 1 — (Prometheus) or
    nesting them under ["shards"] (and ["replicas"] when R > 1)
    (JSON). R = 1 output is byte-compatible with the pre-replication
    exporters. [extra] adds another registry's metrics unlabelled —
    the serve daemon passes its own — under ["group"] in JSON.  Every
    fused query counts in each read replica's [hsq_query_*] metrics,
    as the engine's own queries do.

    K = 1, R = 1 exports flat: the one engine's registry merged with
    [extra] into one unlabelled dump
    ({!Hsq_obs.Metrics.to_json_merged}),
    exactly as a lone engine would print it (while that engine is down
    only [extra] is printed; {!shards_down} and the health rollup say
    why). *)

val metrics_json : ?extra:Hsq_obs.Metrics.t -> t -> string

val metrics_prometheus : ?extra:Hsq_obs.Metrics.t -> t -> string
