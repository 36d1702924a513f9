(** The historical store HD with in-memory summaries HS
    (Section 2.1, Algorithm 3, Figure 2).

    Sorted partitions are organised into levels; a level never holds
    more than κ partitions — exceeding that, all of its partitions are
    multi-way merged into one partition a level up, recursively. Each
    partition carries a {!Partition_summary.t} built during the same
    pass that writes it (no extra I/O). *)

(** Cost breakdown of one [add_batch], matching the four components the
    paper plots in Figure 6 (load, sort, merge, summary), plus exact
    I/O counters overall and for the merge cascade alone (Figures 7–8).
    [deferred_merge] is [Some msg] when a device fault interrupted the
    merge cascade: the batch itself is safely archived, the failing
    merge rolled back (a level is temporarily over κ), and the merge
    will be retried by a later cascade or {!run_deferred_merges}. *)
type update_report = {
  sort_seconds : float;
  load_seconds : float;
  merge_seconds : float;
  summary_seconds : float;
  io_total : Hsq_storage.Io_stats.counters;
  io_merge : Hsq_storage.Io_stats.counters;
  merges_performed : int;
  highest_level_after : int;
  deferred_merge : string option;
}

type t

(** [create ~kappa ~beta1 dev]. Raises [Invalid_argument] if
    [kappa < 2] or [beta1 < 2]. *)
val create : kappa:int -> beta1:int -> Hsq_storage.Block_device.t -> t

val device : t -> Hsq_storage.Block_device.t
val kappa : t -> int
val beta1 : t -> int
val total_elements : t -> int

(** Time steps ingested so far (T in the paper). *)
val time_steps : t -> int

(** Version counter of the partition set: bumped by every mutation that
    changes which partitions exist ([add_batch] — including its merge
    cascade, [expire], [restore]). A derivative of the partition
    summaries (e.g. the engine's cached historical aggregate) is valid
    iff the epoch it was computed at still matches. *)
val epoch : t -> int

(** Number of non-empty levels (≤ ⌈log_κ T⌉ + 1). *)
val num_levels : t -> int

(** All partitions, newest time range first. *)
val partitions : t -> Partition.t list

val partition_count : t -> int

(** {2 Partition quarantine}

    A partition whose probes keep failing unrecoverably is quarantined:
    it stays in its level (coverage, windows and persistence still see
    it) but query paths exclude it via {!active_partitions}, widening
    their reported rank-error bound by its element count — the per-
    partition Lemma 2 interval collapsing to [\[0, size\]]. A level
    holding a quarantined partition defers its merges (they would read
    the bad blocks), so it may temporarily exceed κ;
    {!check_invariants} tolerates exactly that case. All quarantine
    calls are single-domain by contract (the query/scrub caller). *)

(** Partitions the query paths may probe — {!partitions} minus the
    quarantined ones, newest first. *)
val active_partitions : t -> Partition.t list

val is_quarantined : t -> Partition.t -> bool

(** Quarantined partitions, newest first. *)
val quarantined : t -> Partition.t list

val quarantined_count : t -> int

(** Total elements across quarantined partitions — the error-bound
    widening queries that exclude them must report. O(1): recounted at
    every epoch bump. *)
val quarantined_elements : t -> int

(** Move a partition to quarantine unconditionally (scrub found it
    corrupt). No-op if already quarantined. Bumps the epoch. *)
val quarantine_partition : t -> Partition.t -> unit

(** Record one unrecoverable probe failure against the partition;
    returns [true] iff this crossed [threshold] consecutive failures
    and the partition was just quarantined (epoch bumped). *)
val note_probe_failure : t -> Partition.t -> threshold:int -> bool

(** A successful probe resets the partition's consecutive-failure
    count. *)
val note_probe_success : t -> Partition.t -> unit

(** Re-verify a quarantined partition (full sequential re-read:
    sortedness + element count), rebuild its summary, return it to
    service, and run any merge the quarantine deferred. [Error] —
    device fault or verification failure — leaves it quarantined. *)
val reinstate : t -> Partition.t -> (unit, string) result

(** Retry every merge a quarantine or a device fault deferred: merge
    any over-full level whose members are all healthy, at any level.
    Returns the number of merges performed (epoch bumped if nonzero).
    A device fault during the sweep is contained — the remaining
    levels wait for the next attempt. Called by the repair scrub after
    reinstating partitions, so a warehouse degraded by mid-merge
    faults converges back to the ≤ κ invariant. *)
val run_deferred_merges : t -> int

(** Total HS footprint in words. *)
val memory_words : t -> int

(** HistUpdate (Algorithm 3): ingest one time step's batch, the first
    [len] elements (default: all) of the array. They are sorted in place
    ({!Hsq_util.Sorted.sort_runs}: one scan if already sorted, else a
    radix sort of the engine's spool of sorted hand-off runs) and
    written as a new level-0 partition; the index keeps no reference to
    the array, and its slots past [len] are left untouched. A failure
    leaves the batch sorted, the same multiset. Raises
    [Invalid_argument] on an empty batch. *)
val add_batch : ?len:int -> t -> int array -> update_report

(** Exact rank of [v] in H via one summary-bounded binary search per
    partition (the ρ₁ computation of Algorithm 8). *)
val rank : t -> int -> int

(** Partitions tiling exactly the archived step range [first, last]
    (1-based, inclusive), newest first, or [None] if not aligned.
    A window of the last [w] steps (Section 2.4) is the suffix case
    [steps - w + 1, steps]. *)
val partitions_for_range : t -> first:int -> last:int -> Partition.t list option

(** The (first_step, last_step) extent of every live partition, oldest
    first — the alignment boundaries for range queries. *)
val partition_boundaries : t -> (int * int) list

(** Retention: drop every partition entirely older than the last
    [keep_steps] steps (whole partitions only, so one straddling the
    cutoff is kept). Returns (partitions, elements) dropped. Raises
    [Invalid_argument] if [keep_steps < 1]. *)
val expire : t -> keep_steps:int -> int * int

(** Last time step dropped by retention (0 = nothing expired). *)
val expired_through : t -> int

(** Structural invariant violations (empty = healthy); used by tests. *)
val check_invariants : t -> string list

(** {2 Sidecar support}

    Enough metadata to re-attach to partitions already on a device
    (used by [Hsq.Meta]). *)

type partition_descriptor = {
  first_block : int;
  length : int;
  first_step : int;
  last_step : int;
  level : int;
  quarantined : bool;
}

(** Descriptors for every live partition, newest first. *)
val describe : t -> partition_descriptor list

(** Rebuild an index over partitions already present on [dev],
    re-reading each summary from disk (≤ β₁ block reads per
    partition). A descriptor marked [quarantined] is restored with a
    degenerate {!Partition_summary.unavailable} summary — zero reads of
    its (possibly bad) blocks — and re-enters quarantine. Raises
    [Invalid_argument] if the descriptors violate the structural
    invariants. *)
val restore :
  kappa:int ->
  beta1:int ->
  Hsq_storage.Block_device.t ->
  partition_descriptor list ->
  t
