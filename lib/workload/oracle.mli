(** Exact ground truth and the relative-error metric of Section 3.1.

    The rank error of answering rank [r] with value [v] is the distance
    from [r] to the interval of ranks [v] legitimately answers
    ([|{x < v}| + 1, |{x ≤ v}|]); relative error divides by φ·N. *)

type t

val create : unit -> t
val add : t -> int -> unit
val add_batch : t -> int array -> unit
val count : t -> int

(** Exact rank(v) = |{x ≤ v}|. *)
val rank_of : t -> int -> int

(** Exact φ-quantile (Definition 1). *)
val quantile : t -> float -> int

(** Exact element of rank r (1-based, clamped). *)
val select : t -> int -> int

val rank_error : t -> rank:int -> value:int -> int

(** |r − r̂| / (φ·N) for the φ-quantile query answered with [value]. *)
val relative_error : t -> phi:float -> value:int -> float
