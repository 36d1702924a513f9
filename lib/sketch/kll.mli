(** KLL quantile sketch (Karnin, Lang, Liberty; arXiv 1603.05346) with
    the lazy sweep-compactor update of Ivkin et al. (arXiv 1907.00236).

    The sketch is a stack of weighted compactors: an item stored at
    level [h] stands for [2^h] original elements.  Inserts append to
    level 0 in O(1); nothing is compacted until the total item count
    exceeds the total capacity, at which point the lowest over-full
    level compacts just enough pairs — sweeping through value space
    with one random parity coin per sweep round — to fit again.

    Unlike GK, the sketch is fully mergeable: {!merge} combines two
    sketches level-by-level and re-compacts, and the merged rank error
    is bounded by the weighted average of the two inputs' error
    parameters, so per-shard stream summaries can be composed by merge
    instead of summed rank windows.

    Coin flips are derived deterministically from a per-sketch seed and
    a flip counter, both of which serialize, so a deserialized sketch
    replays bit-identically. *)

type t

val create : ?seed:int -> epsilon:float -> unit -> t
(** [create ~epsilon ()] sizes the compactor stack so that the rank
    error of any query stays within [epsilon * count] for the adversary-
    free streams this engine feeds it.  Raises [Invalid_argument]
    unless [epsilon] lies in (0, 1).  [seed] fixes the coin sequence
    (default 0). *)

val create_capped : ?seed:int -> words:int -> unit -> t
(** [create_capped ~words ()] derives the compactor capacity from a
    memory budget of [words] machine words instead of a target epsilon;
    {!epsilon} reports the error parameter the budget buys.  Raises
    [Invalid_argument] if the budget cannot hold the minimum stack. *)

val insert : t -> int -> unit

val insert_sorted_batch : t -> int array -> unit
(** [insert_sorted_batch t b] inserts every element of [b], which must
    be sorted ascending.  The sorted run merges into level 0 in one
    pass, so an ingest hand-off costs O(size + length b) instead of
    [length b] separate inserts. *)

val count : t -> int
(** Elements observed (the stream length [n], not the stored size). *)

val size : t -> int
(** Items currently stored across all compactor levels. *)

val epsilon : t -> float
val error_bound : t -> float
val memory_words : t -> int

val query_rank : t -> int -> int
(** [query_rank t r] returns a value whose rank is within
    [error_bound t * count t] of [r] (1-based; clamped to [1, count]).
    Raises [Invalid_argument] on an empty sketch. *)

val rank_of : t -> int -> int
(** Estimated number of observed elements [<= v]. *)

val min_value : t -> int
(** Exact minimum observed (tracked outside the compactors, which may
    drop extremes).  Raises [Invalid_argument] on an empty sketch. *)

val max_value : t -> int
(** Exact maximum observed.  Raises [Invalid_argument] if empty. *)

val copy : t -> t
(** Deep copy; the copy's future coin flips replay the original's. *)

val merge : t -> t -> t
(** [merge a b] is a sketch summarizing the concatenation of the two
    input streams; the inputs are not modified.  The result's error
    parameter is the count-weighted average of the inputs', so
    [error_bound (merge a b) * count (merge a b)] never exceeds the sum
    of the inputs' absolute error budgets. *)

val check_invariants : t -> string list
(** Structural invariant violations (empty when healthy): weight
    conservation (sum of [2^level] over stored items equals [count]),
    per-level sortedness, capacity compliance, and min/max envelope. *)

val serialize : t -> int array
(** Checkpoint image: configuration, coin state, and every stored item.
    Restoring with {!deserialize} yields a sketch that answers and
    behaves identically. *)

val deserialize : int array -> t
(** Raises [Invalid_argument] on any structural damage: bad header,
    length mismatch, weight-conservation failure, unsorted level, or
    items outside the recorded min/max envelope. *)

val dump : t -> string
(** Debug rendering of the compactor stack. *)

val sketch : (module Quantile_sketch.S with type t = t)
