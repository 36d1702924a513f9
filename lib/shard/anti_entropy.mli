(** Anti-entropy primitives for replicated shards: per-replica state
    digests and the file-level copy a repair uses to converge a
    diverged replica onto a healthy sibling.

    Replicas of a shard apply identical op sequences and the warehouse
    is deterministic in that sequence (the merge cascade), so healthy
    siblings hold bit-identical historical state and the same open-step
    elements — making structural digests a sound divergence detector
    and byte-identical file copy a sound repair. The stream sketch is
    not hashed: hand-offs happen only at 512 pending elements and at
    step ends, and reads work on a copy, so the sketch follows from the
    open step's values in arrival order, which replicas apply alike; a
    lost or gained op shows in the open step's sorted elements, which
    are hashed. *)

type digest = {
  elements : int;  (** total logical elements *)
  steps : int;  (** archived time steps *)
  hist_hash : int;  (** checksum over all partition descriptors *)
  levels : (int * int) list;  (** (level, checksum over that level's descriptors) *)
  sketch_hash : int;  (** checksum of the open step's sorted elements *)
}

(** Digest an engine's state, the open step included: its elements
    are checksummed in sorted order from the engine's memory
    ({!Hsq.Engine.open_step}); no file is written or read. *)
val digest : Hsq.Engine.t -> digest

val equal : digest -> digest -> bool
val to_string : digest -> string

(** Replace [dst]'s store files with byte-identical copies of
    [src]'s (hint logs and [.tmp] droppings excluded; stale [dst]
    files removed first). Both engines must be closed or
    crash-released; the caller reopens [dst] afterwards. Copies are
    fsynced, and the destination directory fsynced last. *)
val copy_store : src:string -> dst:string -> unit
