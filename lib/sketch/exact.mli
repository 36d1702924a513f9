(** Exact quantiles over all inserted elements — the Θ(n)-memory oracle
    used by tests, and a reference implementation of the sketch
    interface. *)

type t

val create : unit -> t
val of_array : int array -> t
val insert : t -> int -> unit
val count : t -> int
val memory_words : t -> int
val error_bound : t -> float

(** Exact element of rank [r] (1-based, clamped). Raises on empty. *)
val query_rank : t -> int -> int

(** Exact rank(v). *)
val rank_of : t -> int -> int

(** Exact φ-quantile of Definition 1. *)
val quantile : t -> float -> int

val sketch : (module Quantile_sketch.S with type t = t)
