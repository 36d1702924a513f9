(** Failure-containment health, collected once and rendered two ways.

    `hsq status --health` builds the summary through {!collect} and
    derives text lines and the healthy/exit-code verdict from it; the
    daemon's `health` wire verb rolls the same per-engine record up
    over its shard group ({!collect_group}), so the two surfaces cannot
    drift. *)

type scrub_info = {
  errors : int;
  quarantined : int;
  reinstated : int;
}

type recovery_info = {
  wal_replayed : int;  (** WAL records replayed by the last open *)
  steps_reingested : int;  (** time steps re-archived by the last open *)
}

type t = {
  breaker : string;  (** closed / open / half_open *)
  breaker_transitions : int;
  quarantined_partitions : int;
  quarantined_elements : int;
  per_level : (int * int) list;
      (** (level, quarantined partitions); only nonzero levels listed *)
  last_scrub : scrub_info option;  (** [None]: no scrub in this process *)
  recovery : recovery_info option;
      (** [None]: the engine was created fresh, not opened from disk *)
}

(** Snapshot the engine's containment state (breaker, quarantine,
    last-scrub gauges). *)
val collect : Hsq.Engine.t -> t

(** Fully un-degraded: breaker closed and nothing quarantined. *)
val healthy : t -> bool

(** 0 healthy, 1 degraded — the scrub/status damage convention. *)
val exit_code : t -> int

(** The exact "health: ..." lines `hsq status --health` prints. *)
val to_lines : t -> string list

(** {1 Sharded stores}

    The same collect/render split, rolled up over a
    {!Hsq_shard.Shard_group} with a two-tier verdict:

    - {b full precision} (exit 0): every shard serves reads through a
      live, healthy, non-diverged replica — answers keep the complete
      ±ε·m contract even if sibling replicas are down, draining hints,
      or flagged diverged.  Those surface as warnings.
    - {b answers degraded} (exit 1): some shard cannot produce an
      undegraded answer (whole replica set down, serving replica
      quarantined/breaker-open, or only a diverged replica left).

    With R = 1 this collapses exactly to the pre-replication contract:
    exit 0 iff every shard is up and individually healthy. *)

type replica_health = {
  replica : int;
  state : [ `Up of t | `Down of string ];
  diverged : bool;  (** flagged by anti-entropy; excluded from reads *)
  hints_pending : int option;
      (** [Some n] while a dead replica has [n] hint records waiting *)
}

type shard_health = {
  serving : (int * t) option;
      (** the read replica's index and health; [None] = shard dark *)
  elements : int;  (** live count while serving, frozen when dark *)
  reason : string option;  (** why the shard is dark, when it is *)
  replicas : replica_health list;  (** ascending; singleton when R = 1 *)
}

type group = (int * shard_health) list

val collect_group : Hsq_shard.Shard_group.t -> group

(** Warning-free: every replica of every shard live, healthy,
    non-diverged. Equals the old all-up-and-healthy at R = 1. *)
val group_healthy : group -> bool

(** 0 iff answers keep full ±ε·m precision (serving replicas all
    healthy and non-diverged); warnings alone do not fail it. *)
val group_exit_code : group -> int

val group_to_fields : group -> (string * Json.t) list
