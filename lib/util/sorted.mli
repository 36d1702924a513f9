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
    in place, ascending, and leaves the rest of [a] untouched. Correct
    for any input. A sorted prefix costs one scan and no allocation.
    Any other is radix-sorted as {!sort_into} does, in O(n) per byte in
    which the values differ, through one scratch array of [len] words
    and a fresh histogram.
    Raises [Invalid_argument] if [len] is negative or past the end. *)
val sort_runs : ?len:int -> int array -> unit

(** A fresh histogram for {!sort_into}: 256 words. *)
val radix_counts : unit -> int array

(** [sort_into ~counts src n dst] writes [src.(0 .. n-1)] into
    [dst.(0 .. n-1)] in ascending order by an LSD radix sort on the
    8-bit digits of [x lxor min_int]: one counting pass and one stable
    scatter per byte in which two of the values differ, ping-ponging
    between [src] and [dst]. [src]'s first [n] words are left permuted,
    and neither array is touched past [n]. [counts] is the histogram's
    scratch, at least 256 words ({!radix_counts}), which the caller
    owns and reuses, so the sort allocates nothing. Raises
    [Invalid_argument] if [counts] is shorter than 256 words or either
    array shorter than [n]. *)
val sort_into : counts:int array -> int array -> int -> int array -> unit
