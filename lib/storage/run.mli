(** Sorted on-disk runs.

    A run stores a non-empty ascending sequence of integers across
    contiguous blocks of a {!Block_device.t}. Searches settle each block
    they read in full (the paper's Section 2.4 optimization: no more
    reads once the search is inside one block), and random access goes
    through a one-block cache that saves the reads repeated across
    searches. *)

type t

(** Write the first [len] elements (default: all) of a sorted array as
    a new run (sequential writes, one per block). Raises
    [Invalid_argument] if they are none or not sorted ascending. *)
val of_sorted_array : ?len:int -> Block_device.t -> int array -> t

(** Re-attach to a run already on the device (recovery). Raises
    [Invalid_argument] if the address range is not allocated. *)
val of_existing : Block_device.t -> addr:int -> length:int -> t

val length : t -> int
val nblocks : t -> int
val first_block : t -> int
val device : t -> Block_device.t

(** Reclaim the run's blocks. Further access raises
    [Invalid_argument]. Idempotent. *)
val free : t -> unit

(** Drop the one-block cache (e.g. to charge full I/O to a fresh query). *)
val drop_cache : t -> unit

(** Disable/enable the one-block cache — the ablation switch for the
    reads it saves across searches of the same run. Enabled by
    default. *)
val set_cache_enabled : t -> bool -> unit

(** [get t i] is the element at index [i] (0-based). One block read
    unless the containing block is cached. *)
val get : t -> int -> int

(** [rank t v] = number of elements ≤ [v]; binary search over the run. *)
val rank : t -> int -> int

(** [rank_between t ?ylo ?yhi ~lo ~hi v] is [rank t v] when the answer
    is known to lie in [\[lo, hi\]]; only probes inside the range
    (Algorithm 8 uses summary entries to bound the search). [ylo] and
    [yhi], when given, must be the run's elements at [lo - 1] and [hi]
    (a summary's entries bounding the window are). The search first
    settles the block the one-block cache holds, if it meets the window,
    at no read, and settles every block it reads in full. Once it knows
    the values at both ends of its window, from the anchors or from
    blocks it settled, it reads the block interpolation points at, as
    long as midpoint steps on either side it could leave still fit its
    read budget; otherwise it reads the block holding the window's
    midpoint. A window spanning [k] blocks therefore costs at most
    [ceil(log2 k) + 2] reads, none when the answer lies in the cached
    block, and an empty window ([lo = hi]) costs none. Raises
    [Invalid_argument] on a bad range or a freed run. *)
val rank_between : t -> ?ylo:int -> ?yhi:int -> lo:int -> hi:int -> int -> int

(** {2 Resumable rank search}

    The search {!rank_between} runs, in a form that stops at each block
    it lacks, so a caller can read the next blocks of many searches
    together. [rank_between] is exactly: [start], then [advance] and
    [feed] one read block at a time until [advance] returns [-1]; it
    reads the same blocks in the same order. *)
type search

(** An idle search over the run, reusable across [start]s. *)
val search : t -> search

(** [start s ?ylo ?yhi ~lo ~hi v] begins the search for
    [rank_between t ?ylo ?yhi ~lo ~hi v], with a budget of
    [ceil(log2 k) + 2] reads for a window spanning [k] blocks. Raises
    [Invalid_argument] on a bad range or a freed run. *)
val start : search -> ?ylo:int -> ?yhi:int -> lo:int -> hi:int -> int -> unit

(** Step on the blocks in hand — the one last fed, then the run's
    one-block cache if it meets the window — until the search settles
    ([-1]) or needs a block it does not hold, whose absolute device
    address it returns. With both anchors known and distinct, that is
    the block holding [lo + (v - ylo) / (yhi - ylo) * (hi - lo)] if
    midpoint steps on either side of it, [ceil(log2 k') + 1] reads for
    a side spanning [k'] blocks, fit what its read leaves of the
    budget; otherwise the block holding the window's midpoint. *)
val advance : search -> int

(** [feed s block] hands [s] the block its last [advance] named (and
    puts it in the run's cache, when enabled), spending one read of its
    budget. Raises [Invalid_argument] if [s] is not waiting on a
    block. *)
val feed : search -> int array -> unit

(** [(lo, hi)]: the search's answer lies in [\[lo, hi\]]. The window
    only shrinks as the search advances; [lo = hi], the rank, once
    [advance] returned [-1]. *)
val window : search -> int * int

(** [(ylo, yhi)]: the run's elements at [lo - 1] and [hi] of the
    current {!window}, each [None] while unknown (at the run's ends, or
    when [start] was not given it and no settled block has shown it). *)
val anchors : search -> int option * int option

(** {3 Framed searches}

    A caller that probes one run for a sequence of values, each on a
    known side of the last (a bisection), starts each search from a
    frame the search keeps, so it allocates nothing per value: the
    frame's anchors are two ints and a set of flags saying which of
    them are known. *)

(** Flags of a frame's [known]: the anchor at [lo - 1], and the one at
    [hi]. *)
val ylo_known : int

val yhi_known : int

(** [frame s ~lo ~hi ~ylo ~yhi ~known] sets the window [restart] starts
    from, with each anchor given exactly when [known] has its flag. *)
val frame : search -> lo:int -> hi:int -> ylo:int -> yhi:int -> known:int -> unit

(** [restart s v] is {!start} for [v] over the frame. A closed frame
    ([lo = hi]) gives a search that is settled at once. *)
val restart : search -> int -> unit

(** [keep s ~left] narrows the frame for the next value: to the frame
    up to the current window's end, with its anchor, when the next value
    is below the current one ([left]), else from the window's start.
    Sound because rank(v') for v' < v is at most the end of v's window,
    and at least its start for v' > v. *)
val keep : search -> left:bool -> unit

(** The two ends of {!window}. *)
val lo : search -> int

val hi : search -> int

(** Whether the block the last {!advance} named came from
    interpolation rather than the midpoint fallback. *)
val guided : search -> bool

val to_array : t -> int array

(** Streaming writers build a run with one block of buffer memory.
    Values must be pushed ascending; the declared [length] must be met
    exactly before [writer_finish]. *)
type writer

val writer : Block_device.t -> length:int -> writer
val writer_push : writer -> int -> unit
val writer_finish : writer -> t

(** [read_seq t b] reads the run's block [b] (0-based) as sequential
    I/O, as merges and cursors do. Slots past the run's last element
    hold padding. Raises [Invalid_argument] on a freed run or a block
    outside it. *)
val read_seq : t -> int -> int array

(** Sequential cursors for scans; each cursor owns a one-block
    readahead buffer and reports its reads as sequential I/O. *)
type cursor

val cursor : t -> cursor
val cursor_peek : cursor -> int option
val cursor_advance : cursor -> unit
val cursor_next : cursor -> int option
