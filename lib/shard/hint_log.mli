(** Hinted handoff buffer: the durable per-peer log a shard keeps while
    one of its replicas is down.

    Every op the shard acknowledges while replica [peer] is dead is
    appended here (same sync policy as the main WALs, so the ack still
    implies delivery-eventually); on rejoin the log is drained into the
    recovered replica before it re-enters the read set.

    Exactly-once drain: the base file records the replica's main-WAL
    [next_seq] when hints began, each drained op appends exactly one
    main-WAL record, so the number of hints already applied is the
    replica's recovered [next_seq - base_seq] — stable across crashes
    mid-drain. *)

type t

val wal_path : dir:string -> peer:int -> string
val base_path : dir:string -> peer:int -> string

(** Both files of a (possibly stale) hint pair exist. *)
val exists : dir:string -> peer:int -> bool

(** Fresh pair for [peer], truncating any stale one. [base_seq] is the
    dead replica's main-WAL next_seq (its durable op cursor). Raises
    [Block_device.Device_error] / [Sys_error] if the files cannot be
    written. *)
val start :
  dir:string -> peer:int -> sync:Hsq_storage.Wal.sync_policy -> base_seq:int -> t

(** Reattach to an existing pair; [None] if absent, mismatched, or
    corrupt — the caller must then repair the replica from a sibling. *)
val reopen : dir:string -> peer:int -> sync:Hsq_storage.Wal.sync_policy -> t option

val base_seq : t -> int
val peer : t -> int
val record_count : t -> int

(** Append a run of acked observes (one WAL append call) / one
    end-of-step cut. Raise on failure ([Hsq_storage.Wal.Partial] for a
    run) — convert to {!mark_broken}. *)
val observe_batch : t -> int array -> unit

val end_step : t -> step:int -> count:int -> unit

(** Flush, then fold over every record in append order (read back one
    at a time, never as a list). *)
val fold : t -> ('a -> Hsq_storage.Wal.record -> 'a) -> 'a -> 'a

val close : t -> unit
val crash : t -> unit

(** Close and delete the pair (drain complete). *)
val discard : t -> unit

(** The log lost an acked op (append failure): delete the pair so no
    future reopen can drain it; rejoin must repair instead. *)
val mark_broken : t -> unit
