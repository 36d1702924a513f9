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

(** The partition's own search of its run, made with the partition, so
    an accurate query allocates no search per probe. Like the run's
    one-block cache, it serves one query at a time. *)
val probe : t -> Hsq_storage.Run.search

val size : t -> int
val first_step : t -> int
val last_step : t -> int
val level : t -> int

(** [rank p v] is the exact number of elements ≤ [v] in the partition:
    the summary bounds the window and anchors its ends
    ({!Partition_summary.search_window}), then
    {!Hsq_storage.Run.rank_between} searches it on disk — with no read
    when the summary pins the rank. *)
val rank : t -> int -> int

(** Release the underlying run's blocks. *)
val free : t -> unit

val memory_words : t -> int
val pp : Format.formatter -> t -> unit
