(** Sketch checkpoints for the durable ingest path: the open time
    step's GK sketch state, frozen at a WAL sequence number. The WAL
    holds the step's elements; recovery refills the spool from it and
    re-inserts only the suffix past that number.

    Written with the Persist sidecar idiom (plain text, trailing
    whole-file checksum, temp file + rename): a torn or tampered
    checkpoint reads as absent, never as wrong state. *)

type t = {
  seq : int;          (** last WAL sequence number covered *)
  steps_done : int;   (** warehouse time steps committed at save time *)
  gk : int array;     (** {!serialize_sketch} of the stream sketch *)
}

(** The sketch image a checkpoint carries: tag word 1, then
    {!Hsq_sketch.Gk.serialize}. *)
val serialize_sketch : Hsq_sketch.Gk.t -> int array

(** Inverse of {!serialize_sketch}; also reads the untagged GK images
    of older stores. Raises [Invalid_argument] on structural damage and
    on tag 2, the KLL image older builds wrote: a caller treats either as
    "no checkpoint" and replays the whole WAL. *)
val deserialize_sketch : int array -> Hsq_sketch.Gk.t

(** The file image {!save} writes: text lines, the sketch image in
    decimal, then the checksum line. *)
val render : t -> string

(** Atomically write the checkpoint to [path]. *)
val save : path:string -> t -> unit

(** [Ok None] — no checkpoint file; [Ok (Some c)] — a valid one;
    [Error why] — present but unreadable (torn write, bit rot, version
    skew: version 1 carried the spool, version 2 the lane cuts of the
    removed multi-lane ingest). Callers must treat [Error] like
    [Ok None] and fall back to a full WAL replay. *)
val load : path:string -> (t option, string) result
