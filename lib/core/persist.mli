(** Warehouse persistence across process restarts, with crash atomicity
    and corruption detection.

    The block-device file holds every partition's data; a plain-text
    metadata sidecar records the configuration and partition table.
    [load_files] re-attaches the partitions and rebuilds each summary
    with at most β₁ block reads. The live stream is volatile by design
    (Figure 1): a restored engine starts with an empty stream.

    [save] is crash-atomic (temp file + whole-file checksum + rename)
    and doubles as the durable commit record of the merge commit
    protocol: a crash during ingestion or a multi-way merge leaves every
    block named by the last checkpoint physically intact, so
    [load_files] rolls uncommitted work back by re-attaching the
    checkpointed partition table. [scrub] verifies the warehouse end to
    end. *)

(** Alias of {!Meta.Corrupt_metadata} (the sidecar machinery lives
    there); both names match the same exception. *)
exception Corrupt_metadata of string

(** Checksum of a sidecar body, as stored on its trailing
    [checksum <hex>] line (exposed for external tooling and tests). *)
val meta_checksum : string -> int

(** Write the metadata sidecar for [engine] to [path], atomically: the
    sidecar is rendered with a trailing whole-file checksum line,
    written to [path ^ ".tmp"], and renamed into place. The engine's
    device should be file-backed for the data itself to survive. Each
    successful call is a durable checkpoint that [load_files] can roll
    back to. *)
val save : Engine.t -> path:string -> unit

(** Reopen [device_path] (block size taken from the metadata) and
    restore an engine from it and its metadata; the store's metrics
    live in a private registry reachable via [Engine.metrics]. Raises
    {!Corrupt_metadata} on version/parse/checksum/invariant mismatches,
    including unsorted on-disk partitions and partitions whose blocks
    fail their device checksums. *)
val load_files : device_path:string -> meta_path:string -> unit -> Engine.t

(** {2 Scrub} *)

type scrub_report = {
  partitions_checked : int; (** active partitions cursor-scanned *)
  blocks_read : int;
  errors : string list; (** empty iff the warehouse is healthy *)
  quarantined : int; (** partitions this scrub moved into quarantine
                         (always 0 without [repair]) *)
  reinstated : int; (** quarantined partitions this scrub verified and
                        returned to service (always 0 without [repair]) *)
  still_quarantined : int; (** quarantined partitions remaining *)
}

(** Re-read every active partition front to back, verifying per-block
    checksums (any flipped bit surfaces here as a checksum failure) and
    cross-block sortedness and element counts. Returns a report instead
    of raising: a damaged partition yields one error entry and the scan
    continues with the rest.

    With [repair] (the [hsq scrub --repair] path) the scrub also acts:
    a failing active partition is quarantined on the spot, and every
    previously quarantined partition goes through
    {!Hsq_hist.Level_index.reinstate} — re-verified end to end and
    returned to service if clean. The outcome is exported as
    [hsq_scrub_last_*] gauges in the engine's metric registry. Callers
    that persist the warehouse should {!save} afterwards so the sidecar
    records the new quarantine set. *)
val scrub : ?repair:bool -> Engine.t -> scrub_report
