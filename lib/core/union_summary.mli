(** The merged summary TS of T = H ∪ R with rank bounds L/U
    (Section 2.3.1, Figure 3, Lemma 2), over any number K ≥ 1 of stream
    summaries: a sharded store has one per shard, a lone engine one.

    Guarantees (checked by the property suites): for each entry,
    [lower ≤ rank(value, T) ≤ upper], and consecutive bound windows
    overlap within ε·N. Historical contributions use the exact indices
    stored in partition summaries, which only tightens the paper's
    bounds. *)

type t

(** {2 Historical aggregate}

    The summed historical bounds A(v) = (Σ_P lower_P(v), Σ_P upper_P(v))
    form a step function changing only at distinct partition-summary
    values, so they can be materialised once — a k-way merge of the P
    summary-entry arrays with incrementally maintained prefix sums,
    O(S_hist·log P) — and reused across queries until the partition set
    changes (see [Level_index.epoch]). *)

type hist_agg

(** Merge the given partitions' summaries into an aggregate. *)
val hist_aggregate : partitions:Hsq_hist.Partition.t list -> hist_agg

(** TS over the aggregate [agg] and the stream summaries [streams].
    Each entry's stream contribution is the sum of the per-stream
    Lemma 2 bounds, added in list order from 0 — valid because each
    sketch brackets its own rank, so the sums bracket the union rank,
    with the per-entry window widening additively to Σ_s ε₂·m_s = ε₂·m
    when all streams share ε₂. One merge walk over the K + 1 sorted
    value runs (the aggregate's and each stream's), with one cursor per
    run that doubles as the run's count of values ≤ the current one:
    O(S·K) for S values. The engine's cached TS and one built here over
    the same inputs are {!equal}. *)
val build : agg:hist_agg -> streams:Stream_summary.t list -> t

(** The columns [(values, lower, upper)], of {!size} entries each:
    distinct values ascending, and their L and U, with
    [lower.(i) ≤ rank(values.(i), T) ≤ upper.(i)]. Shared with [t]:
    read them, do not write them. *)
val columns : t -> int array * float array * float array

val size : t -> int

(** Column-for-column equality, comparing floats exactly — the cache
    consistency contract checked by the fuzz suite. *)
val equal : t -> t -> bool

(** |T| = n + m over the aggregate and streams given to {!build}. *)
val n_total : t -> int

val m_stream : t -> int
val hist_elements : t -> int

(** The stream summaries given to {!build}, in order. *)
val streams : t -> Stream_summary.t list

(** Algorithm 5 (quick response): value of the smallest entry whose L
    reaches [rank], else the last entry. Error ≤ 1.5·ε·N (Lemma 3). *)
val quick_select : t -> rank:int -> int

(** Algorithm 7 (GenerateFilters): values [(u, v)] with
    rank(u,T) ≤ rank ≤ rank(v,T) and rank(v) − rank(u) < 4εN (Lemma 4).
    [u] may be [global min − 1] when even the minimum's U exceeds
    [rank], or [min_int] itself when that is the minimum. *)
val filters : t -> rank:int -> int * int

(** [(L, U)] rank window of an arbitrary value [v]:
    L ≤ rank(v, T) ≤ U, from the entries bracketing [v] (0 below the
    union minimum, N above its maximum). The current rank-error bound
    of a best-so-far answer [v] for target rank [r] is
    [max (U − r) (r − L)] — what a deadline-cut or degraded query
    reports. *)
val rank_window : t -> int -> float * float
