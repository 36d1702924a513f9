(** The one codec of a store's text files: the warehouse metadata
    sidecar (render / parse / atomic write / historical-index restore)
    and the checksummed-file framing ({!seal} / {!read_sealed}) that
    every other text file of a store shares — a shard group's [layout]
    and [step-baseline], a hint log's base.

    Deliberately below [Engine] in the module graph: {!Engine}'s loader
    and recovery manager read the sidecar through it. The sidecar
    format is version 2; durable-ingest settings are runtime policy and
    are never persisted here. *)

exception Corrupt_metadata of string

(** Checksum of a file body, as stored on its trailing
    [checksum <hex>] line (exposed for external tooling and tests). *)
val checksum : string -> int

(** [seal body] — [body] (newline-terminated lines) followed by its
    [checksum <hex>] line: the contents of a checksummed text file. *)
val seal : string -> string

(** Read the checksummed text file at [path] and return its body lines.
    Raises {!Corrupt_metadata} on a missing or mismatching checksum
    line, [Sys_error] if the file cannot be read. *)
val read_sealed : string -> string list

(** Render the sidecar text (sealed) for a configuration and partition
    table. *)
val render :
  config:Config.t -> descriptors:Hsq_hist.Level_index.partition_descriptor list -> string

(** Atomically write rendered contents to [path] (temp file + rename). *)
val write : path:string -> string -> unit

(** Read, verify and parse the sidecar at [path]: the persisted
    configuration (durability fields at their defaults) and partition
    table. Raises {!Corrupt_metadata} on any version / parse / checksum
    mismatch. *)
val read :
  string -> Config.t * Hsq_hist.Level_index.partition_descriptor list

(** Restore the historical index a sidecar describes from [device]
    (≤ β₁ block reads per partition; on-disk summary sortedness
    verified). Raises {!Corrupt_metadata} on any device mismatch. *)
val restore :
  device:Hsq_storage.Block_device.t ->
  Config.t ->
  Hsq_hist.Level_index.partition_descriptor list ->
  Hsq_hist.Level_index.t
