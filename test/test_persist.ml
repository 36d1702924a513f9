(* Tests for warehouse persistence: save/restore round-trips on a
   file-backed device, recovery I/O cost, and corruption detection. *)

module E = Hsq.Engine

(* A temp store directory, its device and sidecar paths. *)
let with_temp_store f =
  let dir = Filename.temp_file "hsq_persist" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let dev_path, meta_path, _ = E.store_paths ~dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f ~dir ~dev_path ~meta_path)

(* Commit the sidecar as a step commit does. *)
let save eng ~path =
  Hsq.Meta.write ~path
    (Hsq.Meta.render ~config:(E.config eng) ~descriptors:(Hsq_hist.Level_index.describe (E.hist eng)))

let build_and_save ~dev_path ~meta_path ~steps =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 ~steps_hint:steps (Hsq.Config.Epsilon 0.05) in
  let dev = Hsq_storage.Block_device.create_file ~block_size:32 ~path:dev_path () in
  let eng = E.create ~device:dev config in
  let rng = Hsq_util.Xoshiro.create 4242 in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to steps do
    let batch = Array.init 500 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
    Hsq_workload.Oracle.add_batch oracle batch;
    ignore (E.ingest_batch eng batch)
  done;
  save eng ~path:meta_path;
  Hsq_storage.Block_device.close dev;
  (oracle, E.total_size eng)

let test_round_trip () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      let oracle, n = build_and_save ~dev_path ~meta_path ~steps:13 in
      let eng = E.load_warehouse ~dir in
      Alcotest.(check int) "size restored" n (E.total_size eng);
      Alcotest.(check int) "steps restored" 13 (E.time_steps eng);
      Alcotest.(check int) "stream volatile" 0 (E.stream_size eng);
      Alcotest.(check (list string)) "invariants" []
        (Hsq_hist.Level_index.check_invariants (E.hist eng));
      (* Queries on the restored engine are near-exact (empty stream). *)
      List.iter
        (fun phi ->
          let r = int_of_float (ceil (phi *. float_of_int n)) in
          let v, _ = E.accurate eng ~rank:r in
          let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
          Alcotest.(check int) (Printf.sprintf "phi=%.2f exact after restore" phi) 0 err)
        [ 0.1; 0.5; 0.9 ];
      Hsq_storage.Block_device.close (E.device eng))

let test_restored_engine_keeps_ingesting () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      let _, n = build_and_save ~dev_path ~meta_path ~steps:5 in
      let eng = E.load_warehouse ~dir in
      (* Life goes on: stream, archive, query. *)
      for i = 1 to 700 do
        E.observe eng i
      done;
      ignore (E.end_time_step eng);
      Alcotest.(check int) "grew by a step" (n + 700) (E.total_size eng);
      Alcotest.(check int) "step count advanced" 6 (E.time_steps eng);
      Alcotest.(check (list string)) "invariants after growth" []
        (Hsq_hist.Level_index.check_invariants (E.hist eng));
      let v, _ = E.accurate eng ~rank:1 in
      Alcotest.(check bool) "min sane" true (v >= 0);
      Hsq_storage.Block_device.close (E.device eng))

let test_recovery_io_is_bounded () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:13);
      let eng = E.load_warehouse ~dir in
      let stats = Hsq_storage.Block_device.stats (E.device eng) in
      let c = Hsq_storage.Io_stats.snapshot stats in
      (* Recovery reads at most beta1 blocks per partition, never the
         whole dataset (13 steps x 500 elems / 32 per block = 204 data
         blocks). *)
      let parts = Hsq_hist.Level_index.partition_count (E.hist eng) in
      let beta1 = Hsq.Config.beta1 (E.config eng) in
      Alcotest.(check bool)
        (Printf.sprintf "recovery reads %d <= parts(%d) * beta1(%d)" c.Hsq_storage.Io_stats.reads
           parts beta1)
        true
        (c.Hsq_storage.Io_stats.reads <= parts * beta1);
      Alcotest.(check int) "recovery writes nothing" 0 c.Hsq_storage.Io_stats.writes;
      Hsq_storage.Block_device.close (E.device eng))

let test_corrupt_metadata_rejected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:4);
      (* Truncate the partition table. *)
      let contents = In_channel.with_open_text meta_path In_channel.input_all in
      let lines = String.split_on_char '\n' contents in
      let truncated = List.filteri (fun i _ -> i < List.length lines - 2) lines in
      Out_channel.with_open_text meta_path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" truncated));
      Alcotest.(check bool) "truncated metadata rejected" true
        (try
           ignore (E.load_warehouse ~dir);
           false
         with Hsq.Meta.Corrupt_metadata _ -> true))

let test_bad_version_rejected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      let contents = In_channel.with_open_text meta_path In_channel.input_all in
      Out_channel.with_open_text meta_path (fun oc ->
          Out_channel.output_string oc
            (Str.global_replace (Str.regexp "hsq-meta [0-9]+") "hsq-meta 99" contents));
      Alcotest.(check bool) "bad version rejected" true
        (try
           ignore (E.load_warehouse ~dir);
           false
         with Hsq.Meta.Corrupt_metadata _ -> true))

let test_missing_device_rejected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      Sys.remove dev_path;
      Alcotest.(check bool) "missing device rejected" true
        (try
           ignore (E.load_warehouse ~dir);
           false
         with Hsq_storage.Block_device.Device_error _ -> true))

let test_garbled_device_detected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:4);
      (* Garble the middle half of the LARGEST live partition (junk in
         freed, merged-away regions is rightly undetectable).  The
         rebuilt summary probes every ~beta1-th position, so a wide
         stripe of descending garbage must surface as an unsorted
         summary. *)
      let meta = In_channel.with_open_text meta_path In_channel.input_all in
      let best = ref (0, 0) in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "partition"; fb; len; _; _; _ ] ->
            let fb = int_of_string fb and len = int_of_string len in
            if len > snd !best then best := (fb, len)
          | _ -> ())
        (String.split_on_char '\n' meta);
      let first_block, length = !best in
      Alcotest.(check bool) "found a live partition" true (length > 0);
      (* Records carry a trailing checksum word on top of the payload. *)
      let bytes_per_block = (32 + 1) * 8 in
      let start = (first_block * bytes_per_block) + (length * 8 / 4) in
      let span = length * 8 / 2 in
      let fd = Unix.openfile dev_path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd start Unix.SEEK_SET);
      let junk = Bytes.init span (fun i -> Char.chr ((255 - i) land 0xFF)) in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      Alcotest.(check bool) "garbled device detected" true
        (try
           ignore (E.load_warehouse ~dir);
           false
         with Hsq.Meta.Corrupt_metadata _ -> true))

(* Tamper with the sidecar *body* and re-stamp the trailing checksum
   line, so the whole-file checksum passes and the parser itself must
   catch the damage. *)
let restamp transform meta_path =
  let contents = In_channel.with_open_text meta_path In_channel.input_all in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' contents) in
  let body = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let body = transform body in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") body) in
  Out_channel.with_open_text meta_path (fun oc ->
      Out_channel.output_string oc payload;
      Printf.fprintf oc "checksum %x\n" (Hsq.Meta.checksum payload))

let load_error ~dir =
  try
    ignore (E.load_warehouse ~dir);
    None
  with Hsq.Meta.Corrupt_metadata msg -> Some msg

let contains ~needle haystack =
  Str.string_match (Str.regexp (".*" ^ Str.quote needle ^ ".*")) haystack 0

let test_checksum_line_guards_tampering () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      (* Silently change one digit without re-stamping: the whole-file
         checksum must catch it before any field is believed. *)
      let contents = In_channel.with_open_text meta_path In_channel.input_all in
      Out_channel.with_open_text meta_path (fun oc ->
          Out_channel.output_string oc
            (Str.replace_first (Str.regexp "kappa [0-9]+") "kappa 7" contents));
      match load_error ~dir with
      | Some msg ->
        Alcotest.(check bool) "caught by whole-file checksum" true
          (contains ~needle:"checksum" msg)
      | None -> Alcotest.fail "tampered metadata accepted")

let test_missing_checksum_line_rejected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      let contents = In_channel.with_open_text meta_path In_channel.input_all in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' contents) in
      let body = List.filteri (fun i _ -> i < List.length lines - 1) lines in
      Out_channel.with_open_text meta_path (fun oc ->
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) body);
      Alcotest.(check bool) "missing checksum line rejected" true
        (load_error ~dir <> None))

let test_empty_field_reported_by_name () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      restamp
        (List.map (fun l ->
             if String.length l >= 6 && String.sub l 0 6 = "kappa " then "kappa" else l))
        meta_path;
      match load_error ~dir with
      | Some msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names the empty field (got %S)" msg)
          true
          (contains ~needle:"empty value" msg && contains ~needle:"kappa" msg)
      | None -> Alcotest.fail "empty field accepted")

let test_garbled_field_rejected () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:2);
      restamp
        (List.map (fun l ->
             if String.length l >= 6 && String.sub l 0 6 = "kappa " then "kappa banana" else l))
        meta_path;
      Alcotest.(check bool) "non-numeric field rejected" true
        (load_error ~dir <> None))

(* The sidecar format is frozen: a fresh render is byte-identical to
   what earlier builds wrote, the retired sort_memory / sort_domains
   lines included. *)
let test_sidecar_golden () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 ~steps_hint:13 (Hsq.Config.Epsilon 0.05) in
  let d first_block length first_step last_step level quarantined =
    { Hsq_hist.Level_index.first_block; length; first_step; last_step; level; quarantined }
  in
  let golden =
    "hsq-meta 2\nsizing epsilon 0.050000000000000003\nkappa 3\nblock_size 32\nsteps_hint 13\n\
     stream_fraction 0.5\nsort_memory none\nsort_domains none\npartitions 2\n\
     partition 94 500 4 4 0 1\npartition 0 1500 1 3 1\nchecksum 1cf9d97d361b894b\n"
  in
  Alcotest.(check string) "render" golden
    (Hsq.Meta.render ~config ~descriptors:[ d 94 500 4 4 0 true; d 0 1500 1 3 1 false ])

(* A sidecar an older build wrote with the retired sort settings set
   still opens; the values are ignored, and a re-save writes "none". *)
let test_old_sort_settings_open () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      let oracle, n = build_and_save ~dev_path ~meta_path ~steps:4 in
      restamp
        (List.map (function
          | "sort_memory none" -> "sort_memory 100000"
          | "sort_domains none" -> "sort_domains 4"
          | l -> l))
        meta_path;
      let lines () =
        String.split_on_char '\n' (In_channel.with_open_text meta_path In_channel.input_all)
      in
      Alcotest.(check bool) "old values written" true
        (List.mem "sort_memory 100000" (lines ()) && List.mem "sort_domains 4" (lines ()));
      let eng = E.load_warehouse ~dir in
      Alcotest.(check int) "size restored" n (E.total_size eng);
      let v, _ = E.accurate eng ~rank:(n / 2) in
      Alcotest.(check int) "exact median" 0
        (Hsq_workload.Oracle.rank_error oracle ~rank:(n / 2) ~value:v);
      save eng ~path:meta_path;
      Alcotest.(check bool) "re-saved as none" true
        (List.mem "sort_memory none" (lines ()) && List.mem "sort_domains none" (lines ()));
      Hsq_storage.Block_device.close (E.device eng))

let test_save_is_atomic () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:3);
      (* No temp file is left behind, and the sidecar ends with its
         checksum line. *)
      Alcotest.(check bool) "no .tmp residue" false (Sys.file_exists (meta_path ^ ".tmp"));
      let contents = In_channel.with_open_text meta_path In_channel.input_all in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' contents) in
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check bool) "ends with checksum line" true (contains ~needle:"checksum " last);
      (* Re-saving over an existing sidecar works (rename replaces). *)
      let eng = E.load_warehouse ~dir in
      save eng ~path:meta_path;
      let eng2 = E.load_warehouse ~dir in
      Alcotest.(check int) "round-trips after re-save" (E.total_size eng) (E.total_size eng2);
      Hsq_storage.Block_device.close (E.device eng);
      Hsq_storage.Block_device.close (E.device eng2))

let test_scrub_healthy () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:6);
      let eng = E.load_warehouse ~dir in
      let report = E.scrub eng in
      Alcotest.(check (list string)) "no errors" [] report.E.errors;
      Alcotest.(check int) "every live partition checked"
        (Hsq_hist.Level_index.partition_count (E.hist eng))
        report.E.partitions_checked;
      Alcotest.(check bool) "read the data back" true (report.E.blocks_read > 0);
      Hsq_storage.Block_device.close (E.device eng))

let test_scrub_catches_bit_rot_load_misses () =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      ignore (build_and_save ~dev_path ~meta_path ~steps:4);
      (* Pick, in the largest partition, a block that summary rebuild
         does NOT probe (the summary holds ~beta1 of the blocks), and
         flip one bit there: [load_warehouse] succeeds, but [scrub] — which reads
         every block — must report the checksum failure rather than let
         it be served later. *)
      let eng = E.load_warehouse ~dir in
      let block_size = (E.config eng).Hsq.Config.block_size in
      let parts = Hsq_hist.Level_index.partitions (E.hist eng) in
      let part =
        List.fold_left
          (fun acc p ->
            if Hsq_hist.Partition.size p > Hsq_hist.Partition.size acc then p else acc)
          (List.hd parts) parts
      in
      let run = Hsq_hist.Partition.run part in
      let probed = Hashtbl.create 16 in
      Array.iter
        (fun e -> Hashtbl.replace probed (e.Hsq_hist.Partition_summary.index / block_size) ())
        (Hsq_hist.Partition_summary.entries (Hsq_hist.Partition.summary part));
      let nblocks = Hsq_storage.Run.nblocks run in
      let victim = ref (-1) in
      for b = nblocks - 1 downto 0 do
        if not (Hashtbl.mem probed b) then victim := b
      done;
      Alcotest.(check bool) "found an unprobed block" true (!victim >= 0);
      let first_block = Hsq_storage.Run.first_block run in
      Hsq_storage.Block_device.close (E.device eng);
      let bytes_per_block = (block_size + 1) * 8 in
      let off = ((first_block + !victim) * bytes_per_block) + 12 in
      let fd = Unix.openfile dev_path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      (* Load only probes the summary targets, so it misses the flip... *)
      let eng = E.load_warehouse ~dir in
      (* ...but a full scrub cannot. *)
      let report = E.scrub eng in
      Alcotest.(check bool) "scrub reports the damage" true
        (report.E.errors <> []);
      Alcotest.(check bool) "as a checksum failure" true
        (List.exists (contains ~needle:"checksum") report.E.errors);
      Hsq_storage.Block_device.close (E.device eng))

let () =
  Alcotest.run "persist"
    [
      ( "round trip",
        [
          Alcotest.test_case "save/load" `Quick test_round_trip;
          Alcotest.test_case "restored engine keeps ingesting" `Quick
            test_restored_engine_keeps_ingesting;
          Alcotest.test_case "recovery io bounded" `Quick test_recovery_io_is_bounded;
          Alcotest.test_case "sidecar format golden" `Quick test_sidecar_golden;
          Alcotest.test_case "old sort settings open" `Quick test_old_sort_settings_open;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncated metadata" `Quick test_corrupt_metadata_rejected;
          Alcotest.test_case "bad version" `Quick test_bad_version_rejected;
          Alcotest.test_case "missing device" `Quick test_missing_device_rejected;
          Alcotest.test_case "garbled device" `Quick test_garbled_device_detected;
          Alcotest.test_case "checksum line guards tampering" `Quick
            test_checksum_line_guards_tampering;
          Alcotest.test_case "missing checksum line" `Quick test_missing_checksum_line_rejected;
          Alcotest.test_case "empty field named in error" `Quick test_empty_field_reported_by_name;
          Alcotest.test_case "garbled field" `Quick test_garbled_field_rejected;
        ] );
      ( "atomicity",
        [ Alcotest.test_case "save leaves no residue, re-save works" `Quick test_save_is_atomic ] );
      ( "scrub",
        [
          Alcotest.test_case "healthy warehouse" `Quick test_scrub_healthy;
          Alcotest.test_case "bit rot load misses, scrub catches" `Quick
            test_scrub_catches_bit_rot_load_misses;
        ] );
    ]
