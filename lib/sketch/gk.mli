(** Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001) —
    the stream sketch the paper builds on (Theorem 1).

    Deterministic: for any rank [r], [query_rank] returns a value whose
    true rank lies within [±ε·n]. The minimum tuple is kept exact (never
    merged), as required for SS[0] of Algorithm 4. Compression is the
    simplified successor-merge (no band construction); the ε guarantee is
    unchanged, only the constant-factor space differs. *)

type t

(** Fixed-ε sketch. Raises [Invalid_argument] unless ε ∈ (0, 1). *)
val create : epsilon:float -> t

(** Memory-capped sketch for fixed-budget experiments: ε starts at the
    finest value the budget allows and grows geometrically whenever the
    summary would exceed [words]; [error_bound] reports the current ε.
    Raises [Invalid_argument] for budgets too small to hold 8 tuples. *)
val create_capped : words:int -> t

val insert : t -> int -> unit

(** An independent sketch in the same state: inserts into either leave
    the other unchanged. *)
val copy : t -> t

(** [insert_sorted_batch t b] inserts every element of [b], which MUST be
    sorted ascending, in one O(size + k) merge pass — equivalent (same ε
    guarantee, same count) to [Array.iter (insert t) b] but without the
    per-element O(size) shift, and compresses the summary after every
    call. The engine's ingest buffer hands off through it. *)
val insert_sorted_batch : t -> int array -> unit

(** Merge each tuple into its successor wherever the invariant
    g + Δ ≤ ⌊2εn⌋ allows (the exact minimum is never merged). Inserts
    call it on their own schedule; a second call right after one
    removes nothing. *)
val compress : t -> unit

val count : t -> int

(** Number of live tuples. *)
val size : t -> int

(** Current ε (grows only in capped mode). *)
val epsilon : t -> float

val error_bound : t -> float
val memory_words : t -> int

(** [query_rank t r] — value whose rank is within ε·n of [r] (clamped to
    [1, n]). Raises [Invalid_argument] on an empty sketch. *)
val query_rank : t -> int -> int

(** [query_ranks t rs] is [Array.map (query_rank t) rs] in one walk of
    the tuples. Raises [Invalid_argument] on an empty sketch or if [rs]
    decreases anywhere. *)
val query_ranks : t -> int array -> int array

(** Estimated rank of a value (midpoint of its bracketing tuple's rank
    interval); 0 for values below the minimum. *)
val rank_of : t -> int -> int

(** Exact stream minimum / maximum. Raise on an empty sketch. *)
val min_value : t -> int

val max_value : t -> int

(** Live tuples as [(value, rmin, rmax)], for tests. *)
val dump : t -> (int * int * int) list

(** Merge two fixed-ε summaries into a summary of the union of their
    streams (Agarwal et al., "Mergeable Summaries"): rank error of the
    result is at most ε_A·n_A + ε_B·n_B. The building block for
    sketching several ingest streams independently and combining at
    query time. Raises [Invalid_argument] on memory-capped sketches. *)
val merge : t -> t -> t

(** This sketch as a {!Quantile_sketch.S} instance. *)
val sketch : (module Quantile_sketch.S with type t = t)
