(** In-memory summary of one sorted partition (Algorithm 2).

    β₁ elements evenly spaced by rank: slot 0 is the minimum, slot i the
    element at rank ⌈i·η/(β₁−1)⌉ of an η-element partition. Each entry
    stores its exact 0-based index in the partition, which yields exact
    rank bounds (tightening Lemma 2) and the binary-search windows of
    Algorithm 8. Built from the sorted batch in memory, or through the
    observe hook of {!Hsq_storage.Kway_merge}, i.e. at zero additional
    disk I/O. *)

type entry = { value : int; index : int }
type t

(** Incremental builder fed every partition element in order. *)
type builder

(** Raises [Invalid_argument] if [beta1 < 2] or [size < 1]. *)
val builder : beta1:int -> size:int -> builder

val builder_feed : builder -> int -> int -> unit

(** Raises [Invalid_argument] if the builder did not see all declared
    elements. *)
val builder_finish : builder -> t

(** The summary of a partition holding the first [len] elements
    (default: all) of a sorted array. *)
val of_sorted_array : beta1:int -> ?len:int -> int array -> t

(** Rebuild from an on-disk run by probing the β₁ target positions
    (recovery path; ≤ β₁ block reads). *)
val of_run : beta1:int -> Hsq_storage.Run.t -> t

(** Degenerate summary for a partition whose blocks cannot be read (a
    quarantined partition restored from the sidecar): no entries, so
    {!rank_bounds} answers [(0, size)] for every value — maximal
    uncertainty, costing zero disk reads. Raises [Invalid_argument] if
    [size < 1]. *)
val unavailable : size:int -> t
val entries : t -> entry array
val partition_size : t -> int

(** Number of entries (≤ β₁; small partitions deduplicate slots). *)
val length : t -> int

(** 3 words per entry (value, rank, disk pointer) plus a small header. *)
val memory_words : t -> int

(** α_P of Lemma 2: summary entries with value ≤ v. *)
val count_le : t -> int -> int

(** Exact bounds (lower, upper) on rank(v, P) from stored indices. *)
val rank_bounds : t -> int -> int * int

(** A window [\[lo, hi\]] of ranks within the partition and its
    anchors: [ylo], the element at index [lo - 1], and [yhi], the
    element at [hi], each [None] where the window reaches the
    partition's end (or, for [yhi], when the window is empty). *)
type window = { lo : int; hi : int; ylo : int option; yhi : int option }

(** [search_window t ~u ~v] is the window holding rank(z) for every z
    in [\[u, v\]] (Algorithm 8's binary-search window), with the
    summary entries that bound it as anchors. At [u = v] its ends are
    {!rank_bounds}. *)
val search_window : t -> u:int -> v:int -> window
