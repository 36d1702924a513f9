(** Single-pass multi-way merge of sorted runs (Algorithm 3, line 10).

    Memory footprint is one block buffer per input plus one output
    buffer; every input block is read once sequentially and every output
    block written once. *)

(** Binary min-heap over [(value, src)] pairs, ordered by value and
    then by [src], so equal values leave in source order. *)
module Heap : sig
  type entry = { value : int; src : int }
  type t

  (** An empty heap with room for [capacity] entries; it grows past
      that on demand. *)
  val create : int -> t

  val is_empty : t -> bool
  val push : t -> entry -> unit

  (** The least entry, left in place. Raises [Invalid_argument] on an
      empty heap, as [pop] does. *)
  val top : t -> entry

  val pop : t -> entry
end

(** [merge ?observe dev runs] merges at least two runs living on [dev]
    into a new run on [dev]. [observe i v] is called for each output
    element [v] at output index [i], in order — partition summaries are
    built through this hook so they cost no additional I/O (Section 2.1).
    Inputs are not freed (the caller — the level index — frees them once
    the merged partition is installed). Raises [Invalid_argument] on
    fewer than two runs or on a run from another device. *)
val merge : ?observe:(int -> int -> unit) -> Block_device.t -> Run.t list -> Run.t
