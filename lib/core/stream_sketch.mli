(** The engine's pluggable ε₂ stream sketch: GK (the paper's choice,
    smaller but not mergeable) or KLL (mergeable, so per-shard stream
    summaries can compose by sketch merge).  One dispatch layer keeps
    Engine, Checkpoint, and Union_summary agnostic of the kind.

    Serialization is tagged so checkpoints self-describe: word 0 is 1
    for a GK payload and 2 for a KLL payload.  Legacy GK images never
    start with 1 or 2 (their first word is 0 for Fixed mode or a word
    budget >= 32 for Capped), so untagged checkpoints from older stores
    deserialize as GK. *)

type kind = [ `Gk | `Kll ]

type t = Gk of Hsq_sketch.Gk.t | Kll of Hsq_sketch.Kll.t

val create : ?seed:int -> kind:kind -> epsilon:float -> unit -> t
(** Raises [Invalid_argument] unless [epsilon] lies in (0, 1). *)

val create_capped : ?seed:int -> kind:kind -> words:int -> unit -> t

val kind : t -> kind
val kind_label : t -> string
(** ["gk"] or ["kll"], for status and metrics surfaces. *)

val insert_sorted_batch : t -> int array -> unit
val count : t -> int
val size : t -> int
val epsilon : t -> float
val error_bound : t -> float
val memory_words : t -> int
val query_rank : t -> int -> int
val rank_of : t -> int -> int
val min_value : t -> int
val max_value : t -> int

val as_kll : t -> Hsq_sketch.Kll.t option
(** The underlying KLL sketch when that is the kind, for merge-based
    composition; [None] for GK. *)

val serialize : t -> int array
(** Tagged image: [[| tag; payload... |]]. *)

val deserialize : int array -> t
(** Dispatches on the tag; untagged (legacy) images parse as GK.
    Raises [Invalid_argument] on structural damage. *)
