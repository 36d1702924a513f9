(* Crash/restart persistence for the warehouse.

   The block-device file already holds every partition's data; the
   {!Meta} module owns the plain-text metadata sidecar (render, parse,
   atomic write, index restore) so that Engine's recovery manager can
   share it.  This module keeps the engine-facing API: [save] renders
   the current engine, [load_files] re-attaches a restored index to a
   fresh engine, [scrub] verifies the warehouse end to end.

   Crash safety (DESIGN.md, "Fault model & recovery"):
   - [save] is crash-atomic: the sidecar is written to a temp file with
     a whole-file checksum line and renamed into place, so a crash
     during save leaves the previous checkpoint intact and a torn
     sidecar is detected as a checksum mismatch;
   - each successful [save] is the durable commit record of the merge
     commit protocol (Level_index.merge_level): a crash during a merge
     or batch load leaves the blocks named by the last checkpoint
     physically intact, so [load_files] rolls the uncommitted work back
     simply by re-attaching that checkpoint's partition table;
   - [scrub] re-reads every live partition block, verifying the
     per-block checksums and cross-block sortedness, turning latent bit
     rot into a report instead of a wrong answer.

   The live stream is volatile here by design (Figure 1): a restored
   engine starts with an empty stream.  Stream-side durability is the
   write-ahead log's job — see Engine.open_or_recover. *)

exception Corrupt_metadata = Meta.Corrupt_metadata

let meta_checksum = Meta.checksum

let render_metadata engine =
  Meta.render
    ~config:(Engine.config engine)
    ~descriptors:(Hsq_hist.Level_index.describe (Engine.hist engine))

let save engine ~path = Meta.write ~path (render_metadata engine)

(* Reopen the device file and the metadata together. *)
let load_files ~device_path ~meta_path () =
  let block_size = Meta.peek_block_size meta_path in
  let device = Hsq_storage.Block_device.open_file ~block_size ~path:device_path () in
  let config, hist = Meta.load_hist ~device ~path:meta_path in
  Engine.of_restored ~device config hist

(* --- Scrub ------------------------------------------------------------- *)

module Metrics = Hsq_obs.Metrics

type scrub_report = {
  partitions_checked : int;
  blocks_read : int;
  errors : string list;
  quarantined : int;
  reinstated : int;
  still_quarantined : int;
}

(* Re-read every live partition front to back.  Each block read verifies
   its embedded checksum (Block_device), and the scan checks the
   partition is globally sorted and element-complete — so bit rot, torn
   writes, and shuffled blocks all surface here as errors rather than as
   silently wrong quantiles.  Cost: one sequential pass over the live
   data, charged to the device counters like everything else. *)
let scrub ?(repair = false) engine =
  let hist = Engine.hist engine in
  let dev = Engine.device engine in
  let stats = Hsq_storage.Block_device.stats dev in
  let registry = Hsq_storage.Io_stats.registry stats in
  let before = Hsq_storage.Io_stats.snapshot stats in
  (* Already-quarantined partitions are not cursor-scanned here (their
     blocks are presumed bad); with [repair] they go through
     [Level_index.reinstate], which performs this same verification
     itself and swaps a rebuilt summary in on success. *)
  let parts = Hsq_hist.Level_index.active_partitions hist in
  let pre_quarantined = Hsq_hist.Level_index.quarantined hist in
  let check p =
    let run = Hsq_hist.Partition.run p in
    let first_block = Hsq_storage.Run.first_block run in
    try
      let c = Hsq_storage.Run.cursor run in
      let prev = ref min_int in
      let count = ref 0 in
      let bad_order = ref None in
      let rec scan () =
        match Hsq_storage.Run.cursor_next c with
        | None -> ()
        | Some v ->
          if v < !prev && !bad_order = None then bad_order := Some !count;
          prev := v;
          incr count;
          scan ()
      in
      scan ();
      match !bad_order with
      | Some i ->
        Some (Printf.sprintf "partition at block %d: unsorted at element %d" first_block i)
      | None ->
        if !count <> Hsq_storage.Run.length run then
          Some
            (Printf.sprintf "partition at block %d: read %d of %d elements" first_block
               !count (Hsq_storage.Run.length run))
        else None
    with Hsq_storage.Block_device.Device_error msg ->
      Some (Printf.sprintf "partition at block %d: %s" first_block msg)
  in
  let newly_quarantined = ref 0 in
  let scan_errors =
    List.filter_map
      (fun p ->
        match check p with
        | None -> None
        | Some e ->
          if repair then begin
            Hsq_hist.Level_index.quarantine_partition hist p;
            incr newly_quarantined
          end;
          Some e)
      parts
  in
  let reinstated = ref 0 in
  let reinstate_errors =
    if not repair then []
    else
      List.filter_map
        (fun p ->
          match Hsq_hist.Level_index.reinstate hist p with
          | Ok () ->
            incr reinstated;
            None
          | Error msg ->
            Some
              (Printf.sprintf "partition at block %d: still quarantined: %s"
                 (Hsq_storage.Run.first_block (Hsq_hist.Partition.run p))
                 msg))
        pre_quarantined
  in
  (* A device fault mid-ingest can leave a level over κ with the merge
     deferred; a repairing scrub is the convergence point, so retry
     those merges now that the partitions are (re-)verified. *)
  let merged = if repair then Hsq_hist.Level_index.run_deferred_merges hist else 0 in
  (* A repair that changed the archived layout commits it, as a step
     commit would: the quarantine set must survive a reopen, or the
     store serves the damaged partition again. *)
  if !newly_quarantined > 0 || !reinstated > 0 || merged > 0 then Engine.commit_meta engine;
  let errors = scan_errors @ reinstate_errors in
  let io = Hsq_storage.Io_stats.diff (Hsq_storage.Io_stats.snapshot stats) before in
  let report =
    {
      partitions_checked = List.length parts;
      blocks_read = io.Hsq_storage.Io_stats.reads;
      errors;
      quarantined = !newly_quarantined;
      reinstated = !reinstated;
      still_quarantined = Hsq_hist.Level_index.quarantined_count hist;
    }
  in
  (* Last-scrub outcome, exported for `hsq status --health`. *)
  let set name help v = Metrics.Gauge.set (Metrics.gauge ~help registry name) v in
  set "hsq_scrub_last_errors" "Errors found by the most recent scrub"
    (float_of_int (List.length errors));
  set "hsq_scrub_last_reinstated" "Partitions reinstated by the most recent scrub"
    (float_of_int !reinstated);
  set "hsq_scrub_last_quarantined" "Partitions quarantined by the most recent scrub"
    (float_of_int !newly_quarantined);
  set "hsq_scrub_last_time_s" "Wall-clock time of the most recent scrub" (Metrics.now_s ());
  report
