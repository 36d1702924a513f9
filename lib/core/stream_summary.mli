(** The stream summary SS (Algorithm 4, Lemma 1).

    Extracted on demand from the engine's GK sketch: β₂ = ⌈1/ε₂⌉ + 1
    values whose ranks are approximately evenly spaced in the stream,
    with SS[0] the exact minimum; entry [i]'s true rank lies in
    [i·ε₂·m, (i+1)·ε₂·m]. *)

type t

(** Extract SS from the stream sketch. ε₂ is taken as twice the
    sketch's ε (the engine builds the sketch at half precision so the
    one-sided Lemma 1 interval holds). Every entry also records the
    guaranteed interval on its own rank, from which the Lemma 2 bounds
    are computed — never weaker than the paper's spacing formulas, and
    robust at the clamped tail entries. *)
val extract : Hsq_sketch.Gk.t -> t

(** Per-entry guaranteed rank intervals [(rlo, rhi)]. *)
val intervals : t -> (float * float) array

val beta2 : eps2:float -> int
val size : t -> int

(** Stream size [m] at extraction time. *)
val stream_size : t -> int

val eps2 : t -> float
val values : t -> int array
val memory_words : t -> int

(** α_S of Lemma 2. *)
val count_le : t -> int -> int

(** [add_bounds t a lower upper i] adds to [lower.(i)] and [upper.(i)]
    the Lemma 2 lower and upper bounds on rank(v, R) for any [v] with
    α_S = [a] ([count_le t v]): the terms {!rank_lower} and
    {!rank_upper} return at [v]. *)
val add_bounds : t -> int -> float array -> float array -> int -> unit

(** Lower / upper bounds and the ρ₂ estimate on rank(v, R); all clamped
    to [0, m]. *)
val rank_lower : t -> int -> float

val rank_upper : t -> int -> float
val rank_estimate : t -> int -> float
