(** Single-pass multi-way merge of sorted runs (Algorithm 3, line 10).

    Memory footprint is one block buffer per input plus one output
    buffer; every input block is read once sequentially and every output
    block written once. *)

(** Binary min-heap of source indices [0 .. n-1] over a key array the
    caller owns and updates: ordered by [keys.(src)] and then by [src],
    so equal keys leave in source order. Each source is in the heap at
    most once. *)
module Heap : sig
  type t

  (** An empty heap over [keys], with room for every index of it. The
      heap reads [keys] and never writes it. *)
  val create : int array -> t

  val is_empty : t -> bool

  (** [push h src] adds [src] at its current key. Raises
      [Invalid_argument] if the heap already holds [Array.length keys]
      sources. *)
  val push : t -> int -> unit

  (** The least source, left in place. Raises [Invalid_argument] on an
      empty heap, as [pop] and [fix_top] do. *)
  val top : t -> int

  val pop : t -> int

  (** Re-seat the least source after its key was raised: the same heap
      as [pop] then [push] of it, without leaving it. *)
  val fix_top : t -> unit
end

(** [merge ?observe dev runs] merges at least two runs living on [dev]
    into a new run on [dev]. [observe i v] is called for each output
    element [v] at output index [i], in order — partition summaries are
    built through this hook so they cost no additional I/O (Section 2.1).
    Inputs are not freed (the caller — the level index — frees them once
    the merged partition is installed). Raises [Invalid_argument] on
    fewer than two runs or on a run from another device. *)
val merge : ?observe:(int -> int -> unit) -> Block_device.t -> Run.t list -> Run.t
