(** xoshiro256** pseudo-random number generator.

    The workhorse generator used by workload synthesis.  Deterministic
    given its seed; seeding goes through {!Splitmix} as recommended by
    the xoshiro authors. *)

type t

val create : int -> t
val copy : t -> t

(** Non-negative 62-bit integer. *)
val next : t -> int

(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [\[0, 1)]. *)
val float : t -> float

val bool : t -> bool

(** Standard normal deviate (Marsaglia polar method). The spare deviate
    is cached per generator, so streams from distinct generators are
    fully independent and reproducible. *)
val gaussian : t -> float
