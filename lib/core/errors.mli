(** Error bounds from the paper's lemmas — pass/fail thresholds for the
    property tests and the "Relative Error in Theory" curve of
    Figure 5. *)

(** Lemma 2(2): width of a TS rank window, ε₁·n + 2·ε₂·m (+ integer
    slack of one per partition). *)
val summary_window : eps1:float -> eps2:float -> n:int -> m:int -> partitions:int -> float

(** Lemma 3: quick-response rank error ≤ 1.5·ε·N. *)
val quick_rank_bound : eps1:float -> eps2:float -> n:int -> m:int -> partitions:int -> float

(** Lemma 5 / Theorem 2: accurate-response rank error, O(ε·m). *)
val accurate_rank_bound : eps:float -> eps2:float -> m:int -> float

val theory_relative_accurate :
  eps:float -> eps2:float -> m:int -> phi:float -> total:int -> float
