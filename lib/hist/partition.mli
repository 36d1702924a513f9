(** A historical partition: sorted run + summary + covered time steps
    (the P_{i,j} of Figure 2). *)

type t

(** Raises [Invalid_argument] if the step range is inverted or the
    summary was built for a different size. *)
val create :
  run:Hsq_storage.Run.t ->
  summary:Partition_summary.t ->
  first_step:int ->
  last_step:int ->
  level:int ->
  t

val run : t -> Hsq_storage.Run.t
val summary : t -> Partition_summary.t
val size : t -> int
val first_step : t -> int
val last_step : t -> int
val level : t -> int

(** Release the underlying run's blocks. *)
val free : t -> unit

val memory_words : t -> int
val pp : Format.formatter -> t -> unit
