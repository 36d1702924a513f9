(** Rank and selection primitives over sorted [int array]s.

    The rank convention follows the paper's Definition 1:
    [rank e d] is the number of elements of [d] less than or equal to
    [e]. These functions are the in-memory reference implementation that
    every approximate structure is tested against. *)

(** Whether [a]'s first [len] elements (default: all) ascend. *)
val is_sorted : ?len:int -> int array -> bool

(** [rank a v] = |{x ∈ a : x ≤ v}|; [a] must be sorted ascending. *)
val rank : int array -> int -> int

(** [rank_strict a v] = |{x ∈ a : x < v}|. *)
val rank_strict : int array -> int -> int

(** [select a r] is the smallest element with rank ≥ r (1-indexed [r],
    clamped to [1, length a]). Raises [Invalid_argument] on empty input. *)
val select : int array -> int -> int

(** [quantile a phi] is the φ-quantile of Definition 1, i.e.
    [select a (ceil (phi * n))]. Raises [Invalid_argument] if [a] is
    empty or [phi] outside (0, 1]. *)
val quantile : int array -> float -> int

(** [sort_runs ?len a] sorts [a]'s first [len] elements (default: all)
    in place, ascending, by merging their ascending runs pairwise,
    bottom-up (a natural merge sort): k sorted runs cost O(n log k), a
    sorted prefix a single scan. Correct for any input; uses one scratch
    array of [len] words unless the prefix is already sorted, and leaves
    the rest of [a] untouched. *)
val sort_runs : ?len:int -> int array -> unit

(** [sort_into src n dst] writes [src.(0 .. n-1)] into [dst.(0 .. n-1)]
    in ascending order, using [src]'s first [n] words as merge scratch
    (they are left permuted). Allocates nothing; both arrays must hold
    at least [n] words. *)
val sort_into : int array -> int -> int array -> unit
