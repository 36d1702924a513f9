(** Warehouse metadata sidecar machinery (render / parse / atomic write
    / historical-index restore), shared by {!Persist} (save, load,
    scrub) and by {!Engine}'s durable-ingest recovery manager.

    Deliberately below [Engine] in the module graph. The on-file format
    is Persist format 2; durable-ingest settings are runtime policy and
    are never persisted here. *)

exception Corrupt_metadata of string

(** Checksum of a sidecar body, as stored on its trailing
    [checksum <hex>] line (exposed for external tooling and tests). *)
val checksum : string -> int

(** Render the sidecar text (trailing checksum line included) for a
    configuration and partition table. *)
val render :
  config:Config.t -> descriptors:Hsq_hist.Level_index.partition_descriptor list -> string

(** Atomically write rendered contents to [path] (temp file + rename). *)
val write : path:string -> string -> unit

(** Read a file as lines (the sidecar and hint-log parsers). *)
val read_lines : string -> string list

(** Verify the trailing [checksum <hex>] line against the body and
    return the body lines. Raises {!Corrupt_metadata} on a missing or
    mismatching line. *)
val verify_checksum : string list -> string list

(** Read a sidecar's block-size field without a full parse, so the
    device file can be opened first. Raises {!Corrupt_metadata}. *)
val peek_block_size : string -> int

(** Parse and verify the sidecar at [path] and restore the historical
    index from [device] (≤ β₁ block reads per partition; on-disk
    summary sortedness verified). Returns the persisted configuration
    (durability fields at their defaults) and the index. Raises
    {!Corrupt_metadata} on any version / parse / checksum / device
    mismatch. *)
val load_hist :
  device:Hsq_storage.Block_device.t -> path:string -> Config.t * Hsq_hist.Level_index.t
