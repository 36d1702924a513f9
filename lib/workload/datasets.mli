(** The four evaluation datasets of Section 3.1 (Normal, Uniform,
    Wikipedia-like, network-trace-like), as stateful per-time-step batch
    generators. The two real traces are synthetic equivalents — see
    DESIGN.md "Substitutions". Deterministic per seed. *)

type t

val name : t -> string

(** All generated values fit in [\[0, 2^universe_bits)] (used to size
    Q-Digest). *)
val universe_bits : t -> int

(** [next_batch t size] generates the next time step's batch. Raises
    [Invalid_argument] if [size < 1]. *)
val next_batch : t -> int -> int array

val normal : seed:int -> t
val uniform : seed:int -> t
val wikipedia : seed:int -> t
val network : seed:int -> t

(** Raises [Invalid_argument] for names outside {!names}. *)
val by_name : seed:int -> string -> t

val names : string list
