(** Engine configuration (Algorithm 1 and the experimental setup of
    Section 3.1).

    [Epsilon e] sizes the structures from an error parameter:
    ε₁ = e/2 for historical summaries, ε₂ = e/4 for the stream sketch.
    [Memory_words w] sizes them from a word budget split 50/50 between
    the stream summary and the historical summaries, as in the paper's
    experiments.

    Durability ([wal_dir], [wal_sync]) is runtime policy, never
    persisted. The WAL is the open step's only durable copy; there is
    no sketch-checkpoint setting (see {!make} for the ignored
    [?checkpoint_every]). *)

type sizing =
  | Epsilon of float
  | Memory_words of int

type t = {
  sizing : sizing;
  kappa : int;              (** merge threshold κ *)
  block_size : int;         (** elements per block (B) *)
  steps_hint : int;         (** expected number of time steps (T) *)
  stream_fraction : float;  (** share of a memory budget given to the stream sketch (paper: 0.5) *)
  wal_dir : string option;
      (** durable-ingest directory (WAL + warehouse files, used by
          {!Engine.open_or_recover}); [None] = the stream
          side is volatile, as in the paper's Figure 1 *)
  wal_sync : Hsq_storage.Wal.sync_policy;
      (** group-commit policy for the write-ahead log (default
          [Always]: zero acknowledged-record loss) *)
  query_deadline_ms : float option;
      (** default deadline for accurate queries, in milliseconds: the
          bisection stops at the deadline and returns its best-so-far
          answer with the current rank-error bound
          ([degradation = `Deadline] in the report). [None] =
          unbounded. Runtime policy, like the [wal_*] fields: never
          persisted. Per-call [?deadline_ms] overrides it. *)
  quarantine_after : int;
      (** consecutive unrecoverable probe failures (per partition)
          before the partition is quarantined; default 3 *)
  shards : int;
      (** number of independent engine shards when the store is driven
          through {!Shard_group} (hash-partitioned [observe], fused
          answers); 1 = a single engine, the paper's setting. No
          engine sidecar holds it: a durable group records it, with
          [replicas], in its root's layout file, and a reopen must
          agree with that *)
  replicas : int;
      (** independent engine replicas per logical shard when the store
          is driven through {!Shard_group}: writes are applied
          synchronously to every live replica, reads take one live
          replica per shard and fail over to a sibling on faults, so
          answers keep full ±ε·m precision through any loss that leaves
          ≥1 replica per shard. 1 = unreplicated (the classic layout,
          bit-compatible with stores written before replication
          existed). Recorded like [shards]. Validated to [1, 8]. *)
}

val default : t

(** Validated constructor. Raises [Invalid_argument] on out-of-range
    parameters (ε ∉ (0,1), budget < 128 words, κ < 2, group-commit
    window < 1, …).

    [?checkpoint_every] is a compatibility shim for callers written
    when the engine took sketch checkpoints: it is still rejected when
    negative, and otherwise ignored. Recovery always replays the whole
    open step from the WAL. *)
val make :
  ?kappa:int ->
  ?block_size:int ->
  ?steps_hint:int ->
  ?stream_fraction:float ->
  ?wal_dir:string ->
  ?wal_sync:Hsq_storage.Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?query_deadline_ms:float ->
  ?quarantine_after:int ->
  ?shards:int ->
  ?replicas:int ->
  sizing ->
  t

(** Upper bound on simultaneous partitions: κ · (⌈log_κ T⌉ + 1). *)
val max_partitions : t -> int

(** Per-partition summary length β₁. *)
val beta1 : t -> int

(** Stream sketch word budget (memory mode only). *)
val stream_words : t -> int option

(** Fixed GK ε (epsilon mode only; = ε/8, see the module comment). *)
val gk_epsilon : t -> float option
