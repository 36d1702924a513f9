(* Durable ingest path: WAL + recovery manager.

   Deterministic scenario tests (the randomized kill-at-random-point
   fuzz lives in test_crash_recovery):

   - a recovered engine is bit-identical in its answers to one that
     never crashed (replay reproduces the exact insert sequence);
   - empty rollovers ([ingest_batch [||]] / [end_time_step] with no
     open element) raise before any WAL write and corrupt nothing;
   - group-commit loss is exactly the unflushed window, and [Never]
     loses the whole unsynced open step;
   - the End_step marker protocol is exactly-once: a marker for an
     already-committed step replays as a skip, never a double archive,
     and recovery itself is idempotent;
   - torn WAL tails are floored and physically truncated;
   - a sketch checkpoint an older build left, of any version and in any
     state, is deleted unread and the whole WAL replays;
   - a store written with ingest lanes is refused before any file is
     touched, while a lane-format checkpoint is deleted unread and a
     lane commit marker replays as End_step. *)

module E = Hsq.Engine
module W = Hsq_storage.Wal

(* Every valid record of a log with its sequence number, in order. *)
let read_path ~path =
  let rev, start_seq, tail = W.fold_path ~path (fun acc seq r -> (seq, r) :: acc) [] in
  (List.rev rev, start_seq, tail)

let eps = 0.05
let block_size = 16

let with_store f =
  let dir = Filename.temp_file "hsq_durable" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let config ?(wal_sync = W.Always) dir =
  Hsq.Config.make ~kappa:3 ~block_size ~wal_dir:dir ~wal_sync (Hsq.Config.Epsilon eps)

let el seed i = (i * 2654435761) lxor seed

(* Reference: the same element sequence through a volatile engine. *)
let reference_engine elements step_breaks =
  let eng = E.create (Hsq.Config.make ~kappa:3 ~block_size (Hsq.Config.Epsilon eps)) in
  List.iteri
    (fun i v ->
      E.observe eng v;
      if List.mem (i + 1) step_breaks then ignore (E.end_time_step eng))
    elements;
  eng

let check_matches_reference ~msg recovered reference =
  Alcotest.(check int) (msg ^ ": total size") (E.total_size reference) (E.total_size recovered);
  Alcotest.(check int) (msg ^ ": time steps") (E.time_steps reference) (E.time_steps recovered);
  let n = E.total_size recovered in
  if n > 0 then
    List.iter
      (fun phi ->
        let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
        let expect, _ = E.accurate reference ~rank:r in
        let got, _ = E.accurate recovered ~rank:r in
        Alcotest.(check int) (Printf.sprintf "%s: rank %d" msg r) expect got)
      [ 0.1; 0.5; 0.9; 1.0 ]

(* --- round trip: recovery == never crashed --------------------------- *)

let test_round_trip_close () =
  with_store (fun dir ->
      let elements = List.init 700 (el 11) in
      let breaks = [ 200; 400; 550 ] in
      let eng, _ = E.open_or_recover (config dir) in
      List.iteri
        (fun i v ->
          E.observe eng v;
          if List.mem (i + 1) breaks then ignore (E.end_time_step eng))
        elements;
      E.close eng;
      let recovered, report = E.open_or_recover (config dir) in
      Alcotest.(check (option string)) "clean tail" None report.E.wal_tail;
      check_matches_reference ~msg:"close/reopen" recovered (reference_engine elements breaks);
      E.close recovered)

let test_round_trip_crash () =
  with_store (fun dir ->
      (* sync=Always: even a power cut loses nothing acknowledged. *)
      let elements = List.init 500 (el 23) in
      let breaks = [ 150; 300 ] in
      let eng, _ = E.open_or_recover (config dir) in
      List.iteri
        (fun i v ->
          E.observe eng v;
          if List.mem (i + 1) breaks then ignore (E.end_time_step eng))
        elements;
      E.crash eng;
      let recovered, _ = E.open_or_recover (config dir) in
      check_matches_reference ~msg:"crash/recover" recovered (reference_engine elements breaks);
      Alcotest.(check (list string))
        "invariants" []
        (Hsq_hist.Level_index.check_invariants (E.hist recovered));
      E.close recovered)

(* --- empty rollovers are pure no-ops --------------------------------- *)

let test_empty_rollover_is_noop () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      let batch = Array.init 120 (el 41) in
      ignore (E.ingest_batch eng batch);
      let wal_before =
        match E.durability_status eng with Some s -> s.E.wal_next_seq | None -> assert false
      in
      Alcotest.check_raises "end_time_step on empty open step"
        (Invalid_argument "Engine.end_time_step: empty batch") (fun () ->
          ignore (E.end_time_step eng));
      Alcotest.check_raises "ingest_batch [||]"
        (Invalid_argument "Engine.end_time_step: empty batch") (fun () ->
          ignore (E.ingest_batch eng [||]));
      (match E.durability_status eng with
      | Some s ->
        Alcotest.(check int) "no WAL records written by empty rollovers" wal_before
          s.E.wal_next_seq
      | None -> assert false);
      (* The store must still commit further steps and recover cleanly. *)
      let batch2 = Array.init 90 (fun i -> el 43 (i + 1000)) in
      ignore (E.ingest_batch eng batch2);
      E.crash eng;
      let recovered, report = E.open_or_recover (config dir) in
      Alcotest.(check int) "both steps committed" 2 (E.time_steps recovered);
      Alcotest.(check int) "no replay of committed data" 0 report.E.replayed;
      Alcotest.(check int) "all elements" 210 (E.total_size recovered);
      E.close recovered)

(* --- loss bounds per sync policy ------------------------------------- *)

let test_group_commit_loss_bound () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config ~wal_sync:(W.Group 10) dir) in
      for i = 1 to 57 do
        E.observe eng (el 47 i)
      done;
      E.crash eng;
      (* 50 flushed by five full windows; the 7-record tail was pending. *)
      let recovered, _ = E.open_or_recover (config ~wal_sync:(W.Group 10) dir) in
      Alcotest.(check int) "exactly the flushed prefix survives" 50 (E.total_size recovered);
      check_matches_reference ~msg:"group-commit prefix" recovered
        (reference_engine (List.init 50 (fun i -> el 47 (i + 1))) []);
      E.close recovered)

let test_never_sync_loses_open_tail () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config ~wal_sync:W.Never dir) in
      let batch = Array.init 80 (el 53) in
      ignore (E.ingest_batch eng batch);
      (* The commit marker forces a sync even under Never … *)
      for i = 1 to 30 do
        E.observe eng (el 59 i)
      done;
      (* … but the open tail after it was never flushed. *)
      E.crash eng;
      let recovered, _ = E.open_or_recover (config ~wal_sync:W.Never dir) in
      Alcotest.(check int) "committed step survives" 1 (E.time_steps recovered);
      Alcotest.(check int) "open tail lost" 80 (E.total_size recovered);
      E.close recovered)

(* --- exactly-once rollover ------------------------------------------- *)

(* Fabricate the crash window between the sidecar write (commit) and
   the WAL rotation: the warehouse already holds the step, but the log
   still carries its observes and End_step marker. *)
let fabricate_unrotated_wal ~dir ~observes ~step =
  let _, _, wal_path = E.store_paths ~dir in
  let stats = Hsq_storage.Io_stats.create () in
  let wal = W.create ~stats ~path:wal_path ~start_seq:1 () in
  Array.iter (fun v -> ignore (W.append wal (W.Observe v))) observes;
  ignore (W.append wal (W.End_step { step; count = Array.length observes }));
  W.close wal

let test_committed_marker_skipped () =
  with_store (fun dir ->
      let batch = Array.init 100 (el 61) in
      let eng, _ = E.open_or_recover (config dir) in
      ignore (E.ingest_batch eng batch);
      E.close eng;
      fabricate_unrotated_wal ~dir ~observes:batch ~step:1;
      let recovered, report = E.open_or_recover (config dir) in
      Alcotest.(check int) "marker replayed as a skip" 1 report.E.steps_skipped;
      Alcotest.(check int) "nothing re-archived" 0 report.E.steps_reingested;
      Alcotest.(check int) "records replayed" 101 report.E.replayed;
      Alcotest.(check int) "still one step" 1 (E.time_steps recovered);
      Alcotest.(check int) "never a double archive" 100 (E.total_size recovered);
      E.close recovered)

let test_uncommitted_marker_reingested () =
  with_store (fun dir ->
      let batch = Array.init 100 (el 67) in
      let eng, _ = E.open_or_recover (config dir) in
      ignore (E.ingest_batch eng batch);
      E.close eng;
      (* A marker for step 2, whose sidecar write never happened. *)
      let batch2 = Array.init 70 (fun i -> el 71 (i + 500)) in
      fabricate_unrotated_wal ~dir ~observes:batch2 ~step:2;
      let recovered, report = E.open_or_recover (config dir) in
      Alcotest.(check int) "step re-archived from the log" 1 report.E.steps_reingested;
      Alcotest.(check int) "no skips" 0 report.E.steps_skipped;
      Alcotest.(check int) "two steps" 2 (E.time_steps recovered);
      Alcotest.(check int) "both batches" 170 (E.total_size recovered);
      check_matches_reference ~msg:"re-archived step" recovered
        (reference_engine (Array.to_list batch @ Array.to_list batch2) [ 100; 170 ]);
      E.close recovered)

let test_recovery_idempotent () =
  with_store (fun dir ->
      let batch = Array.init 100 (el 73) in
      let eng, _ = E.open_or_recover (config dir) in
      ignore (E.ingest_batch eng batch);
      E.close eng;
      fabricate_unrotated_wal ~dir ~observes:batch ~step:1;
      (* Crash immediately after recovery, twice: each pass must land in
         the same state (the un-rotated log replays as skips). *)
      let first, r1 = E.open_or_recover (config dir) in
      let size1 = E.total_size first and steps1 = E.time_steps first in
      E.crash first;
      let second, r2 = E.open_or_recover (config dir) in
      Alcotest.(check int) "same size either pass" size1 (E.total_size second);
      Alcotest.(check int) "same steps either pass" steps1 (E.time_steps second);
      Alcotest.(check int) "same skips either pass" r1.E.steps_skipped r2.E.steps_skipped;
      E.close second)

(* --- torn tails ------------------------------------------------------- *)

let test_torn_tail_floored () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 20 do
        E.observe eng (el 79 i)
      done;
      E.crash eng;
      let _, _, wal_path = E.store_paths ~dir in
      (* Tear the last record mid-word: 5 bytes off the end. *)
      let size = (Unix.stat wal_path).Unix.st_size in
      let fd = Unix.openfile wal_path [ Unix.O_RDWR ] 0 in
      Unix.ftruncate fd (size - 5);
      Unix.close fd;
      let recovered, report = E.open_or_recover (config dir) in
      (match report.E.wal_tail with
      | Some _ -> ()
      | None -> Alcotest.fail "torn tail not reported");
      Alcotest.(check int) "floored to the valid prefix" 19 (E.total_size recovered);
      (* The tear was physically truncated: appends keep working and the
         next recovery is clean. *)
      for i = 1 to 5 do
        E.observe recovered (el 83 i)
      done;
      E.crash recovered;
      let again, report2 = E.open_or_recover (config dir) in
      Alcotest.(check (option string)) "clean after truncation" None report2.E.wal_tail;
      Alcotest.(check int) "prefix plus new appends" 24 (E.total_size again);
      E.close again)

(* --- checkpoints older builds left -------------------------------------- *)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let checkpoint_path dir = Filename.concat dir "checkpoint"

(* The sketch checkpoint file older builds kept beside the WAL: text
   lines, then a checksum line over them.  Version 3 held [seq],
   [steps_done] and the GK image (tag word 1, or 2 before a KLL image);
   version 2 added the lane cuts of the multi-lane ingest, version 1 the
   open step's spool. *)
let write_checkpoint dir lines =
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  write_file (checkpoint_path dir) (Printf.sprintf "%schecksum %x\n" body (Hsq.Meta.checksum body))

let words name ws = String.concat " " (name :: List.map string_of_int ws)

(* A sketch image as those files held it: a tag word, then the GK words
   (mode, epsilon bits, count, size, since-compress, tuples).  Fixed
   words, an empty sketch: an open deletes these files unread. *)
let gk_image ?(tag = 1) () = [ tag; 0; Int64.to_int (Int64.bits_of_float 0.05); 0; 0; 0 ]

(* The version-3 checkpoint an older build would have taken of [eng]
   now: it covers the whole log and matches the warehouse. *)
let v3_checkpoint ?tag dir eng =
  let image = gk_image ?tag () in
  let seq = match E.durability_status eng with Some s -> s.E.wal_next_seq - 1 | None -> 0 in
  write_checkpoint dir
    [
      "hsq-ckpt 3";
      Printf.sprintf "seq %d" seq;
      Printf.sprintf "steps_done %d" (E.time_steps eng);
      Printf.sprintf "gk_len %d" (List.length image);
      words "gk" image;
    ]

(* Reopen a crashed store holding a leftover checkpoint: the file is
   gone before the first new append, and the whole WAL replayed. *)
let reopen_past_checkpoint ~what dir ~records =
  let recovered, report = E.open_or_recover (config dir) in
  Alcotest.(check bool) (what ^ ": checkpoint deleted") false (Sys.file_exists (checkpoint_path dir));
  Alcotest.(check int) (what ^ ": full replay") records report.E.replayed;
  recovered

let test_stale_checkpoint_ignored () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 60 do
        E.observe eng (el 89 i)
      done;
      E.crash eng;
      (* A checkpoint claiming a warehouse state that never committed. *)
      write_checkpoint dir [ "hsq-ckpt 3"; "seq 30"; "steps_done 5"; "gk_len 1"; "gk 0" ];
      let recovered = reopen_past_checkpoint ~what:"stale" dir ~records:60 in
      Alcotest.(check int) "correct state" 60 (E.total_size recovered);
      E.close recovered)

let test_corrupt_checkpoint_ignored () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 48 do
        E.observe eng (el 97 i)
      done;
      E.crash eng;
      write_file (checkpoint_path dir) "hsq-ckpt 1\nnot a checkpoint at all\n";
      write_file (checkpoint_path dir ^ ".tmp") "hsq-ckpt 3\nseq";
      let recovered = reopen_past_checkpoint ~what:"corrupt" dir ~records:48 in
      Alcotest.(check bool) "torn temp deleted" false
        (Sys.file_exists (checkpoint_path dir ^ ".tmp"));
      Alcotest.(check int) "full replay recovers everything" 48 (E.total_size recovered);
      E.close recovered)

(* --- append rollback --------------------------------------------------- *)

(* A failed append is transactional at the WAL layer: the sequence
   number rolls back and the record's bytes leave the pending buffer,
   so a retry lands under the *same* sequence — no gap for recovery's
   contiguity check to floor at, no double-append. *)
let test_wal_append_rollback_direct () =
  with_store (fun dir ->
      let _, _, wal_path = E.store_paths ~dir in
      let stats = Hsq_storage.Io_stats.create () in
      let wal = W.create ~stats ~path:wal_path ~start_seq:1 () in
      ignore (W.append wal (W.Observe 11));
      let seq_before = W.next_seq wal in
      W.set_injector wal (Some (fun _ -> Some Hsq_storage.Block_device.Fail));
      (try
         ignore (W.append wal (W.Observe 22));
         Alcotest.fail "expected the injected append fault"
       with Hsq_storage.Block_device.Device_error _ -> ());
      Alcotest.(check int) "sequence rolled back after Fail" seq_before (W.next_seq wal);
      (* a torn append (crash mid-write) also rolls the sequence back;
         the tear itself is healed by the next successful flush *)
      W.set_injector wal (Some (fun _ -> Some (Hsq_storage.Block_device.Torn 1)));
      (try
         ignore (W.append wal (W.Observe 33));
         Alcotest.fail "expected the injected torn append"
       with Hsq_storage.Block_device.Device_error _ -> ());
      Alcotest.(check int) "sequence rolled back after Torn" seq_before (W.next_seq wal);
      W.set_injector wal None;
      let seq = W.append wal (W.Observe 22) in
      Alcotest.(check int) "retry reuses the rolled-back sequence" seq_before seq;
      W.close wal;
      (* the log reopens clean: contiguous records, no torn garbage *)
      let wal2, records, tail =
        W.open_existing ~stats ~path:wal_path (fun acc seq r -> (seq, r) :: acc) []
      in
      let records = List.rev records in
      (match tail with
      | W.Clean -> ()
      | W.Torn msg -> Alcotest.failf "torn tail on reopen: %s" msg);
      Alcotest.(check (list int)) "both good records, contiguous"
        [ seq_before - 1; seq_before ]
        (List.map fst records);
      W.close wal2)

(* The same contract at the engine layer: a failed observe is
   unacknowledged, leaves in-memory state untouched, and the retried
   element is neither lost nor doubled across a crash/recover. *)
let test_wal_append_rollback_engine () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 10 do
        E.observe eng (el 7 i)
      done;
      E.set_wal_injector eng (Some (fun _ -> Some Hsq_storage.Block_device.Fail));
      (try
         E.observe eng 424_242;
         Alcotest.fail "expected Device_error from the injected WAL fault"
       with Hsq_storage.Block_device.Device_error _ -> ());
      Alcotest.(check int) "failed observe unacknowledged" 10 (E.total_size eng);
      E.set_wal_injector eng None;
      E.observe eng 424_242;
      Alcotest.(check int) "retried observe lands once" 11 (E.total_size eng);
      E.crash eng;
      let recovered, report = E.open_or_recover (config dir) in
      Alcotest.(check (option string)) "log contiguous across the fault" None report.E.wal_tail;
      Alcotest.(check int) "no gap, no double" 11 (E.total_size recovered);
      E.close recovered)

(* close / crash / sync are idempotent: the first close wins,
   everything after it is a no-op — the serve daemon's drain path and a
   concurrent signal-driven shutdown may both reach them. *)
let test_close_idempotent () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 100 do
        E.observe eng (el 5 i)
      done;
      ignore (E.end_time_step eng);
      for i = 101 to 150 do
        E.observe eng (el 5 i)
      done;
      Alcotest.(check bool) "open engine is not closed" false (E.is_closed eng);
      E.close eng;
      Alcotest.(check bool) "closed" true (E.is_closed eng);
      (* every one of these used to be a Sys_error on the closed WAL *)
      E.close eng;
      E.sync eng;
      E.crash eng;
      Alcotest.(check bool) "still closed" true (E.is_closed eng);
      let recovered, _ = E.open_or_recover (config dir) in
      Alcotest.(check int) "first close committed everything" 150 (E.total_size recovered);
      E.close recovered)

(* Closing with a merge still deferred (a read fault interrupted the
   cascade) must release cleanly, twice, and the store must reopen with
   nothing lost — the deferred merge is work for later, not damage. *)
let test_close_during_deferred_merge () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      let step base =
        for i = base + 1 to base + 40 do
          E.observe eng (el 6 i)
        done;
        E.end_time_step eng
      in
      (* fill level 0 to kappa, then fault reads so the next rollover's
         merge cascade defers instead of completing *)
      for s = 0 to 2 do
        ignore (step (40 * s))
      done;
      Hsq_storage.Block_device.set_injector (E.device eng)
        (Some
           (fun op ~attempt:_ _ ->
             if op = Hsq_storage.Block_device.Read then Some Hsq_storage.Block_device.Fail
             else None));
      let report = step 120 in
      Alcotest.(check bool)
        "merge was deferred under the fault" true
        (report.Hsq_hist.Level_index.deferred_merge <> None);
      E.close eng;
      E.close eng;
      E.sync eng;
      let recovered, _ = E.open_or_recover (config dir) in
      Alcotest.(check int) "nothing lost across the deferred close" 160
        (E.total_size recovered);
      Alcotest.(check (list string))
        "invariants hold on reopen" []
        (Hsq_hist.Level_index.check_invariants (E.hist recovered));
      E.close recovered)

(* --- stores written with ingest lanes --------------------------------- *)

(* A raw WAL in the on-file format of wal.ml: 8-byte big-endian words, a
   [magic; start_seq; checksum] header, then per record
   [len; seq; kind; payload...; checksum]. *)
let raw_wal records =
  let mix h v =
    let h = (h lxor v) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
  in
  let checksum = List.fold_left mix 0x106689D45497FDB5 in
  let magic = 0x48535157414C3031 in
  let buf = Buffer.create 1024 in
  let words = List.iter (fun w -> Buffer.add_int64_be buf (Int64.of_int w)) in
  words [ magic; 1; checksum [ magic; 1 ] ];
  List.iteri
    (fun i (kind, payload) ->
      let body = (i + 1) :: kind :: payload in
      let prefix = (List.length body + 1) :: body in
      words (prefix @ [ checksum prefix ]))
    records;
  Buffer.contents buf

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A store holding a lane log is refused before any file is touched,
   and the error names the file and the way out. *)
let test_lane_store_refused () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 40 do
        E.observe eng (el 107 i)
      done;
      E.close eng;
      let _, _, wal_path = E.store_paths ~dir in
      let wal_before = read_file wal_path in
      write_file (Filename.concat dir "wal-1.log") "";
      (match E.open_or_recover (config dir) with
      | _ -> Alcotest.fail "a store with wal-1.log opened"
      | exception E.Unsupported_store msg ->
        List.iter
          (fun part ->
            if not (contains msg part) then
              Alcotest.failf "error %S does not name %S" msg part)
          [ "wal-1.log"; "--ingest-domains 1" ]);
      Alcotest.(check string) "wal.log untouched" wal_before (read_file wal_path))

(* A version-2 checkpoint (lane cuts) is deleted unread, even when its
   sketch image is valid: full replay. *)
let test_v2_checkpoint_absent () =
  with_store (fun dir ->
      let eng, _ = E.open_or_recover (config dir) in
      for i = 1 to 60 do
        E.observe eng (el 109 i)
      done;
      let image = gk_image () in
      E.crash eng;
      write_checkpoint dir
        [
          "hsq-ckpt 2";
          "seq 60";
          "steps_done 0";
          "lanes_len 1";
          "lanes 0";
          Printf.sprintf "gk_len %d" (List.length image);
          words "gk" image;
        ];
      let recovered = reopen_past_checkpoint ~what:"v2" dir ~records:60 in
      Alcotest.(check int) "every element back" 60 (E.total_size recovered);
      E.close recovered)

(* The lane commit marker (record kind 3: step, count, cut count, cuts)
   decodes as End_step and replays as one. *)
let test_lane_marker_replays_as_end_step () =
  with_store (fun dir ->
      let step_one = List.init 30 (el 113) and open_step = List.init 12 (el 127) in
      let observes = List.map (fun v -> (1, [ v ])) in
      let _, _, wal_path = E.store_paths ~dir in
      write_file wal_path
        (raw_wal (observes step_one @ [ (3, [ 1; 30; 2; 0; 0 ]) ] @ observes open_step));
      let records, _, tail = read_path ~path:wal_path in
      Alcotest.(check bool) "clean tail" true (tail = W.Clean);
      Alcotest.(check bool) "kind 3 decodes as End_step" true
        (List.exists (fun (_, r) -> r = W.End_step { step = 1; count = 30 }) records);
      let eng, report = E.open_or_recover (config dir) in
      Alcotest.(check int) "step re-archived" 1 report.E.steps_reingested;
      Alcotest.(check int) "archived elements" 30 (E.hist_size eng);
      Alcotest.(check int) "open step" 12 (E.stream_size eng);
      E.close eng)

(* --- checkpoint versions ------------------------------------------------ *)

(* A version-1 checkpoint, which also carried the open step's spool, is
   deleted unread: full replay, every element back. *)
let test_v1_checkpoint_absent () =
  with_store (fun dir ->
      let elements = List.init 80 (el 103) in
      let eng, _ = E.open_or_recover (config dir) in
      List.iter (E.observe eng) elements;
      let image = gk_image () in
      E.crash eng;
      let spool = List.sort compare elements in
      write_checkpoint dir
        [
          "hsq-ckpt 1";
          "seq 80";
          "steps_done 0";
          Printf.sprintf "batch_len %d" (List.length spool);
          words "batch" spool;
          Printf.sprintf "gk_len %d" (List.length image);
          words "gk" image;
        ];
      let recovered = reopen_past_checkpoint ~what:"v1" dir ~records:80 in
      check_matches_reference ~msg:"every element back" recovered (reference_engine elements []);
      E.close recovered)

(* One flipped bit in WAL record 50 under the checkpoint an older build
   took at seq 100: the reopen floors the log to 49 records.  The acks
   made after that reopen reuse seqs 50..59; a crash must not lose them
   to a checkpoint matched against the regrown log. *)
let test_flipped_record_under_checkpoint () =
  with_store (fun dir ->
      let first = List.init 100 (fun i -> el 139 (i + 1)) in
      let later = List.init 10 (fun i -> el 149 (i + 1)) in
      let eng, _ = E.open_or_recover (config dir) in
      List.iter (E.observe eng) first;
      v3_checkpoint dir eng;
      E.close eng;
      (* 24-byte header, 40-byte observe records; flip the low bit of
         record 50's value word. *)
      let _, _, wal_path = E.store_paths ~dir in
      let off = 24 + (49 * 40) + 31 in
      let bytes = Bytes.of_string (read_file wal_path) in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 1));
      write_file wal_path (Bytes.to_string bytes);
      let reopened, report = E.open_or_recover (config dir) in
      Alcotest.(check bool) "damage floored" true (report.E.wal_tail <> None);
      List.iter (E.observe reopened) later;
      E.crash reopened;
      let recovered, _ = E.open_or_recover (config dir) in
      let survivors = List.filteri (fun i _ -> i < 49) first in
      Alcotest.(check int) "the floored prefix and every later ack" 59 (E.total_size recovered);
      check_matches_reference ~msg:"later acks recovered" recovered
        (reference_engine (survivors @ later) []);
      E.close recovered)

(* Older builds wrote tag 2 before a KLL image.  Over two archived
   steps and an open step, a current, valid-looking tag-2 checkpoint is
   deleted unread and every WAL record replays. *)
let test_tag2_image_refused () =
  with_store (fun dir ->
      let elements = List.init 300 (el 131) in
      let breaks = [ 100; 200 ] in
      let eng, _ = E.open_or_recover (config dir) in
      List.iteri
        (fun i v ->
          E.observe eng v;
          if List.mem (i + 1) breaks then ignore (E.end_time_step eng))
        elements;
      v3_checkpoint ~tag:2 dir eng;
      E.crash eng;
      let _, _, wal_path = E.store_paths ~dir in
      let records, _, _ = read_path ~path:wal_path in
      Alcotest.(check bool) "the WAL holds the open step" true (List.length records >= 100);
      let recovered = reopen_past_checkpoint ~what:"tag 2" dir ~records:(List.length records) in
      Alcotest.(check int) "every acknowledged element back" 300 (E.total_size recovered);
      check_matches_reference ~msg:"reopen" recovered (reference_engine elements breaks);
      E.close recovered)

let () =
  Alcotest.run "durable"
    [
      ( "round trip",
        [
          Alcotest.test_case "close then reopen" `Quick test_round_trip_close;
          Alcotest.test_case "crash then recover (sync=always)" `Quick test_round_trip_crash;
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "close during a deferred merge" `Quick
            test_close_during_deferred_merge;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "stale checkpoint ignored" `Quick test_stale_checkpoint_ignored;
          Alcotest.test_case "corrupt checkpoint ignored" `Quick test_corrupt_checkpoint_ignored;
          Alcotest.test_case "v1 checkpoint reads as absent" `Quick test_v1_checkpoint_absent;
          Alcotest.test_case "flipped WAL record under a checkpoint" `Quick
            test_flipped_record_under_checkpoint;
        ] );
      ( "rollover",
        [
          Alcotest.test_case "empty rollover is a no-op" `Quick test_empty_rollover_is_noop;
          Alcotest.test_case "committed marker skipped" `Quick test_committed_marker_skipped;
          Alcotest.test_case "uncommitted marker re-archived" `Quick
            test_uncommitted_marker_reingested;
          Alcotest.test_case "recovery is idempotent" `Quick test_recovery_idempotent;
        ] );
      ( "loss bounds",
        [
          Alcotest.test_case "group commit loses at most the window" `Quick
            test_group_commit_loss_bound;
          Alcotest.test_case "never-sync loses the open tail" `Quick
            test_never_sync_loses_open_tail;
        ] );
      ("torn tails", [ Alcotest.test_case "floored and truncated" `Quick test_torn_tail_floored ]);
      ( "sketch images",
        [
          Alcotest.test_case "tag-2 image refused, full replay" `Quick test_tag2_image_refused;
        ] );
      ( "append rollback",
        [
          Alcotest.test_case "wal layer" `Quick test_wal_append_rollback_direct;
          Alcotest.test_case "engine layer" `Quick test_wal_append_rollback_engine;
        ] );
      ( "lane stores",
        [
          Alcotest.test_case "refused with a way out" `Quick test_lane_store_refused;
          Alcotest.test_case "v2 checkpoint reads as absent" `Quick test_v2_checkpoint_absent;
          Alcotest.test_case "lane marker replays as End_step" `Quick
            test_lane_marker_replays_as_end_step;
        ] );
    ]
