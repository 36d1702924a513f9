(* Crash-recovery fuzz harness.

   Each seed builds a file-backed warehouse, checkpoints the metadata
   after every archived step, then arms a countdown that tears a
   randomly chosen block write in half — a simulated power cut mid
   ingestion or mid merge. The process "dies" (we drop the engine),
   the warehouse is reopened from the last checkpoint, and we assert
   the merge commit protocol's promise: load succeeds, a full scrub is
   clean, and every quantile over the committed prefix is within the
   epsilon rank band.

   A second fuzz flips a random bit inside a live partition at rest and
   asserts the damage is *caught* — either by load's summary rebuild or
   by scrub's checksum sweep — never silently served. *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device

let eps = 0.05
let block_size = 16

(* A temp store directory, its device and sidecar paths. *)
let with_temp_store f =
  let dir = Filename.temp_file "hsq_crash" "" in
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

(* One ingestion step of a random size; returns the batch. *)
let random_step rng eng =
  let n = 100 + Hsq_util.Xoshiro.int rng 300 in
  let batch = Array.init n (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
  Array.iter (E.observe eng) batch;
  ignore (E.end_time_step eng);
  batch

let run_crash_seed seed =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      let rng = Hsq_util.Xoshiro.create seed in
      let kappa = 2 + Hsq_util.Xoshiro.int rng 3 in
      let config = Hsq.Config.make ~kappa ~block_size (Hsq.Config.Epsilon eps) in
      let dev = BD.create_file ~block_size ~path:dev_path () in
      let eng = E.create ~device:dev config in
      (* Elements covered by the most recent durable checkpoint. *)
      let committed = ref [] in
      let archived = ref [] in
      let checkpoint () =
        save eng ~path:meta_path;
        committed := !archived
      in
      let step () =
        let batch = random_step rng eng in
        archived := Array.to_list batch @ !archived
      in
      let warm = 1 + Hsq_util.Xoshiro.int rng 3 in
      for _ = 1 to warm do
        step ()
      done;
      checkpoint ();
      (* Arm the crash: the k-th block write from now on is torn and the
         device starts refusing service — the write path raises, which
         stands in for the process dying at that exact write. *)
      let countdown = ref (1 + Hsq_util.Xoshiro.int rng 60) in
      BD.set_injector dev
        (Some
           (fun op ~attempt:_ _ ->
             match op with
             | BD.Write ->
               decr countdown;
               if !countdown <= 0 then Some (BD.Torn (block_size / 2)) else None
             | BD.Read -> None));
      let crashed = ref false in
      (try
         for _ = 1 to 12 do
           step ();
           checkpoint ()
         done
       with BD.Device_error _ -> crashed := true);
      Alcotest.(check bool) (Printf.sprintf "seed %d: crash fired" seed) true !crashed;
      (* Simulated process death: drop all in-memory state, reopen. *)
      BD.close dev;
      let restored = E.load_warehouse ~dir in
      let report = E.scrub restored in
      if report.E.errors <> [] then
        Alcotest.failf "seed %d: scrub after crash: %s" seed
          (String.concat "; " report.E.errors);
      let n = E.total_size restored in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: exactly the committed prefix survives" seed)
        (List.length !committed) n;
      let oracle = Hsq_workload.Oracle.create () in
      List.iter (Hsq_workload.Oracle.add oracle) !committed;
      let band = int_of_float (ceil (eps *. float_of_int n)) + 1 in
      List.iter
        (fun phi ->
          let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
          let v, rep = E.accurate restored ~rank:r in
          if rep.E.degradation <> `None then
            Alcotest.failf "seed %d: degraded answer on a healthy reopened device" seed;
          let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
          if err > band then
            Alcotest.failf "seed %d: phi=%.2f rank error %d > band %d" seed phi err band)
        [ 0.05; 0.25; 0.5; 0.75; 0.95 ];
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: invariants" seed)
        []
        (Hsq_hist.Level_index.check_invariants (E.hist restored));
      BD.close (E.device restored))

let run_bitflip_seed seed =
  with_temp_store (fun ~dir ~dev_path ~meta_path ->
      let rng = Hsq_util.Xoshiro.create (seed * 7919) in
      let config = Hsq.Config.make ~kappa:3 ~block_size (Hsq.Config.Epsilon eps) in
      let dev = BD.create_file ~block_size ~path:dev_path () in
      let eng = E.create ~device:dev config in
      for _ = 1 to 3 + Hsq_util.Xoshiro.int rng 3 do
        ignore (random_step rng eng)
      done;
      save eng ~path:meta_path;
      (* Choose a random byte inside a random live partition's block
         span (checksum words included — damage there must be caught
         too) and flip one random bit. *)
      let parts = Hsq_hist.Level_index.partitions (E.hist eng) in
      let part = List.nth parts (Hsq_util.Xoshiro.int rng (List.length parts)) in
      let run = Hsq_hist.Partition.run part in
      let first_block = Hsq_storage.Run.first_block run in
      let nblocks = Hsq_storage.Run.nblocks run in
      BD.close dev;
      let bytes_per_block = (block_size + 1) * 8 in
      let span = nblocks * bytes_per_block in
      let off = (first_block * bytes_per_block) + Hsq_util.Xoshiro.int rng span in
      let bit = 1 lsl Hsq_util.Xoshiro.int rng 8 in
      let fd = Unix.openfile dev_path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor bit));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let caught_by_load =
        try
          let restored = E.load_warehouse ~dir in
          let report = E.scrub restored in
          BD.close (E.device restored);
          if report.E.errors = [] then
            Alcotest.failf
              "seed %d: flipped bit at offset %d served silently (load and scrub both clean)"
              seed off;
          false
        with Hsq.Meta.Corrupt_metadata _ -> true
      in
      ignore caught_by_load)

(* --- ingest-crash fuzz: the durable WAL path --------------------------

   Each seed drives a durable store (Engine.open_or_recover) through
   several crash/recover rounds under a random sync policy (and a random
   checkpoint interval, which Config.make still accepts and ignores: it
   keeps each seed's random stream as it was).  Crashes strike at a random acknowledged point:
   either a WAL append fault (Fail = clean death, Torn = death
   mid-append) or a bare power cut between operations.  The oracle is
   the list of *acknowledged* observes, in order; the WAL's prefix
   property makes the contract exact:

   - the recovered element set is a prefix of the acknowledged
     sequence;
   - under sync=always the prefix is everything (zero acknowledged
     loss); under group:k at most k trailing records are lost; under
     never, at most everything since the last forced sync (commit
     marker or reopen);
   - quantiles over the recovered prefix stay inside the epsilon rank
     band, and the level-index invariants hold. *)

let run_ingest_crash_seed seed =
  let store_dir = Filename.temp_file "hsq_ingest" "" in
  Sys.remove store_dir;
  Sys.mkdir store_dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists store_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat store_dir f))
          (Sys.readdir store_dir);
        Sys.rmdir store_dir
      end)
    (fun () ->
      let rng = Hsq_util.Xoshiro.create (seed * 31 + 7) in
      let wal_sync =
        match Hsq_util.Xoshiro.int rng 3 with
        | 0 -> Hsq_storage.Wal.Always
        | 1 -> Hsq_storage.Wal.Group (1 + Hsq_util.Xoshiro.int rng 8)
        | _ -> Hsq_storage.Wal.Never
      in
      let checkpoint_every =
        match Hsq_util.Xoshiro.int rng 3 with
        | 0 -> 0 (* never checkpoint: recovery replays the whole open step *)
        | _ -> 1 + Hsq_util.Xoshiro.int rng 60
      in
      let config =
        Hsq.Config.make
          ~kappa:(2 + Hsq_util.Xoshiro.int rng 3)
          ~block_size ~wal_dir:store_dir ~wal_sync ~checkpoint_every
          (Hsq.Config.Epsilon eps)
      in
      let policy = Hsq_storage.Wal.sync_policy_to_string wal_sync in
      (* The model: acknowledged observes in order, and how many of them
         the sync policy has provably made durable. *)
      let acked = ref [] (* newest first *) in
      let acked_n = ref 0 in
      let synced_floor = ref 0 (* acked elements known flushed *) in
      let note_forced_sync () = synced_floor := !acked_n in
      let note_acked () =
        incr acked_n;
        match wal_sync with
        | Hsq_storage.Wal.Always -> synced_floor := !acked_n
        | Hsq_storage.Wal.Group _ | Hsq_storage.Wal.Never -> ()
      in
      let loss_bound () =
        match wal_sync with
        | Hsq_storage.Wal.Always -> 0
        | Hsq_storage.Wal.Group k -> min k (!acked_n - !synced_floor)
        | Hsq_storage.Wal.Never -> !acked_n - !synced_floor
      in
      let rounds = 2 + Hsq_util.Xoshiro.int rng 2 in
      for round = 1 to rounds do
        let eng, report = E.open_or_recover config in
        let recovered_n = E.total_size eng in
        let lost = !acked_n - recovered_n in
        if lost < 0 then
          Alcotest.failf "seed %d round %d (%s): recovered %d > acknowledged %d" seed round
            policy recovered_n !acked_n;
        if lost > loss_bound () then
          Alcotest.failf "seed %d round %d (%s): lost %d acknowledged records, bound is %d"
            seed round policy lost (loss_bound ());
        (* Everything recovery claims durable IS durable now. *)
        acked := (if lost = 0 then !acked else List.filteri (fun i _ -> i >= lost) !acked);
        acked_n := recovered_n;
        note_forced_sync ();
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d round %d: invariants" seed round)
          []
          (Hsq_hist.Level_index.check_invariants (E.hist eng));
        (* Oracle check over the recovered prefix. *)
        if recovered_n > 0 then begin
          let oracle = Hsq_workload.Oracle.create () in
          List.iter (Hsq_workload.Oracle.add oracle) !acked;
          let band = int_of_float (ceil (eps *. float_of_int recovered_n)) + 1 in
          List.iter
            (fun phi ->
              let r = max 1 (int_of_float (ceil (phi *. float_of_int recovered_n))) in
              let v, rep = E.accurate eng ~rank:r in
              if rep.E.degradation <> `None then
                Alcotest.failf "seed %d round %d: degraded answer on a healthy store" seed
                  round;
              let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
              if err > band then
                Alcotest.failf "seed %d round %d (%s): phi=%.2f rank error %d > band %d" seed
                  round policy phi err band)
            [ 0.1; 0.5; 0.9 ]
        end;
        ignore report;
        if round = rounds then E.close eng
        else begin
          (* Run until a random crash point.  A third of the crashes are
             injected WAL append faults (Fail or Torn), the rest are
             power cuts between operations. *)
          let injected = Hsq_util.Xoshiro.int rng 3 = 0 in
          let ops_before_cut = 1 + Hsq_util.Xoshiro.int rng 400 in
          if injected then begin
            let countdown = ref (1 + Hsq_util.Xoshiro.int rng 300) in
            let torn = Hsq_util.Xoshiro.int rng 2 = 0 in
            E.set_wal_injector eng
              (Some
                 (fun _seq ->
                   decr countdown;
                   if !countdown <= 0 then
                     Some
                       (if torn then Hsq_storage.Block_device.Torn 2
                        else Hsq_storage.Block_device.Fail)
                   else None))
          end;
          (try
             for _ = 1 to ops_before_cut do
               if Hsq_util.Xoshiro.int rng 150 = 0 && E.stream_size eng > 0 then begin
                 ignore (E.end_time_step eng);
                 note_forced_sync ()
               end
               else begin
                 let v = Hsq_util.Xoshiro.int rng 1_000_000 in
                 E.observe eng v;
                 (* Acknowledged only because observe returned. *)
                 acked := v :: !acked;
                 note_acked ()
               end
             done
           with BD.Device_error _ -> ());
          E.crash eng
        end
      done)

(* --- power-cut (missing directory fsync) regression -------------------

   tmp-write + rename is atomic against process crashes, but a power
   cut can undo a rename whose parent directory was never fsynced: the
   new file's blocks are durable while the directory entry still names
   the old one.  Every rename-commit site (metadata sidecar, sketch
   checkpoint, WAL truncation/rotation) goes through
   Atomic_file.commit — fsync tmp, rename, fsync parent dir.  The
   simulator proves both halves: a bare rename_unsynced IS rolled back
   by power_cut, and a full durable round under the armed simulator
   loses nothing acknowledged. *)

module AF = Hsq_storage.Atomic_file

let test_power_cut_rolls_back_unsynced () =
  let dir = Filename.temp_file "hsq_pcut" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      AF.set_crash_sim false;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let dest = Filename.concat dir "meta" in
      let write_tmp contents =
        let tmp = Filename.concat dir "meta.tmp" in
        let oc = open_out_bin tmp in
        output_string oc contents;
        close_out oc;
        tmp
      in
      let read path =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      AF.commit ~tmp:(write_tmp "v1") dest;
      AF.set_crash_sim true;
      (* The buggy idiom this module replaced: rename, no directory fsync. *)
      AF.rename_unsynced ~tmp:(write_tmp "v2") dest;
      Alcotest.(check string) "rename visible before the cut" "v2" (read dest);
      Alcotest.(check int) "rename pending durability" 1 (AF.pending_renames ());
      AF.power_cut ();
      Alcotest.(check string) "un-fsynced rename rolled back" "v1" (read dest);
      (* The fixed idiom survives the same cut. *)
      AF.commit ~tmp:(write_tmp "v3") dest;
      Alcotest.(check int) "commit leaves nothing pending" 0 (AF.pending_renames ());
      AF.power_cut ();
      Alcotest.(check string) "committed rename survives the cut" "v3" (read dest);
      (* A fresh creation (no prior contents) disappears entirely. *)
      let dest2 = Filename.concat dir "side" in
      AF.rename_unsynced ~tmp:(write_tmp "first") dest2;
      AF.power_cut ();
      Alcotest.(check bool) "un-fsynced creation removed" false (Sys.file_exists dest2))

(* Durable rounds under the armed simulator: every crash is a power
   cut that first rolls back all un-fsynced renames.  sync=always makes
   the contract exact — zero acknowledged loss — so any rename-commit
   site that skips its directory fsync (a stale sidecar over a newer
   device, a resurrected pre-truncation WAL) fails this loudly. *)
let run_power_cut_seed seed =
  let store_dir = Filename.temp_file "hsq_pcut_e2e" "" in
  Sys.remove store_dir;
  Sys.mkdir store_dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      AF.set_crash_sim false;
      if Sys.file_exists store_dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat store_dir f))
          (Sys.readdir store_dir);
        Sys.rmdir store_dir
      end)
    (fun () ->
      let rng = Hsq_util.Xoshiro.create ((seed * 131) + 3) in
      let config =
        Hsq.Config.make ~kappa:3 ~block_size ~wal_dir:store_dir
          ~wal_sync:Hsq_storage.Wal.Always
          ~checkpoint_every:(1 + Hsq_util.Xoshiro.int rng 40)
          (Hsq.Config.Epsilon eps)
      in
      let acked = ref [] in
      let acked_n = ref 0 in
      AF.set_crash_sim true;
      let rounds = 3 in
      for round = 1 to rounds do
        let eng, _ = E.open_or_recover config in
        let recovered = E.total_size eng in
        if recovered <> !acked_n then
          Alcotest.failf
            "seed %d round %d: power cut lost %d acknowledged records under sync=always" seed
            round (!acked_n - recovered);
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d round %d: invariants" seed round)
          []
          (Hsq_hist.Level_index.check_invariants (E.hist eng));
        if recovered > 0 then begin
          let oracle = Hsq_workload.Oracle.create () in
          List.iter (Hsq_workload.Oracle.add oracle) !acked;
          let band = int_of_float (ceil (eps *. float_of_int recovered)) + 1 in
          let r = max 1 (recovered / 2) in
          let v, _ = E.accurate eng ~rank:r in
          let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
          if err > band then
            Alcotest.failf "seed %d round %d: median rank error %d > band %d" seed round err
              band
        end;
        if round = rounds then E.close eng
        else begin
          let ops = 50 + Hsq_util.Xoshiro.int rng 300 in
          for _ = 1 to ops do
            if Hsq_util.Xoshiro.int rng 60 = 0 && E.stream_size eng > 0 then
              ignore (E.end_time_step eng)
            else begin
              let v = Hsq_util.Xoshiro.int rng 1_000_000 in
              E.observe eng v;
              acked := v :: !acked;
              incr acked_n
            end
          done;
          (* The process dies without any further durability actions,
             then the platter loses every rename whose directory fsync
             never happened. *)
          E.crash eng;
          AF.power_cut ()
        end
      done)

(* Seed counts scale through the environment: the PR-gating CI job runs
   the default, the nightly job cranks HSQ_CRASH_SEEDS up to hundreds. *)
let seed_count default =
  match Sys.getenv_opt "HSQ_CRASH_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

let crash_cases =
  List.init (seed_count 24) (fun i ->
      let seed = 1000 + (i * 37) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run_crash_seed seed))

let bitflip_cases =
  List.init (seed_count 10) (fun i ->
      let seed = 500 + i in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run_bitflip_seed seed))

let ingest_cases =
  List.init (seed_count 24) (fun i ->
      let seed = 4000 + (i * 13) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
          run_ingest_crash_seed seed))

let power_cut_cases =
  Alcotest.test_case "rename_unsynced rolled back, commit survives" `Quick
    test_power_cut_rolls_back_unsynced
  :: List.init (seed_count 10) (fun i ->
         let seed = 9000 + (i * 11) in
         Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
             run_power_cut_seed seed))

let () =
  Alcotest.run "crash_recovery"
    [
      ("torn write crash", crash_cases);
      ("bit flip at rest", bitflip_cases);
      ("ingest crash (WAL)", ingest_cases);
      ("power cut (dir fsync)", power_cut_cases);
    ]
