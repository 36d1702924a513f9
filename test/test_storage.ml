(* Tests for hsq_storage: I/O accounting, block devices (memory and
   file backends, fault injection), sorted runs, k-way merge. *)

open Hsq_storage

(* Every valid record of a log with its sequence number, in order. *)
let read_path ~path =
  let rev, start_seq, tail = Wal.fold_path ~path (fun acc seq r -> (seq, r) :: acc) [] in
  (List.rev rev, start_seq, tail)

let mem_dev ?(block_size = 8) () = Block_device.create_memory ~block_size ()

(* An injector that fails nothing and logs every read attempt's
   address, newest first. *)
let log_reads dev =
  let log = ref [] in
  Block_device.set_injector dev
    (Some
       (fun op ~attempt:_ addr ->
         if op = Block_device.Read then log := addr :: !log;
         None));
  log

(* --- Io_stats ------------------------------------------------------ *)

let test_io_stats_classification () =
  let s = Io_stats.create () in
  Io_stats.note_read s 10;
  (* first read: no predecessor -> random *)
  Io_stats.note_read s 11;
  (* sequential *)
  Io_stats.note_read s 13;
  (* skip -> random *)
  Io_stats.note_read ~hint:true s 99;
  (* forced sequential *)
  Io_stats.note_write s 5;
  let c = Io_stats.snapshot s in
  Alcotest.(check int) "reads" 4 c.Io_stats.reads;
  Alcotest.(check int) "seq" 2 c.Io_stats.seq_reads;
  Alcotest.(check int) "rand" 2 c.Io_stats.rand_reads;
  Alcotest.(check int) "writes" 1 c.Io_stats.writes;
  Alcotest.(check int) "total" 5 (Io_stats.total c)

let test_io_stats_measure_and_diff () =
  let s = Io_stats.create () in
  Io_stats.note_read s 1;
  let result, delta = Io_stats.measure s (fun () -> Io_stats.note_write s 2; "x") in
  Alcotest.(check string) "result passthrough" "x" result;
  Alcotest.(check int) "delta writes" 1 delta.Io_stats.writes;
  Alcotest.(check int) "delta reads" 0 delta.Io_stats.reads;
  let sum = Io_stats.add delta delta in
  Alcotest.(check int) "add" 2 sum.Io_stats.writes

(* --- Block_device --------------------------------------------------- *)

let test_device_roundtrip () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 2 in
  Block_device.write_block dev ~addr [| 1; 2; 3; 4; 5; 6; 7; 8 |];
  Block_device.write_block dev ~addr:(addr + 1) (Array.make 8 9);
  Alcotest.(check (array int)) "block 0" [| 1; 2; 3; 4; 5; 6; 7; 8 |]
    (Block_device.read_block dev ~addr);
  Alcotest.(check (array int)) "block 1" (Array.make 8 9) (Block_device.read_block dev ~addr:(addr + 1))

let test_device_bad_payload () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  Alcotest.check_raises "short payload"
    (Invalid_argument "Block_device.write_block: payload must be exactly one block") (fun () ->
      Block_device.write_block dev ~addr [| 1 |])

let test_device_unallocated () =
  let dev = mem_dev () in
  Alcotest.check_raises "read unallocated"
    (Invalid_argument "Block_device.read_block: unallocated address") (fun () ->
      ignore (Block_device.read_block dev ~addr:0))

let test_device_free_and_live () =
  let dev = mem_dev () in
  let a = Block_device.alloc dev 4 in
  Alcotest.(check int) "allocated" 4 (Block_device.allocated_blocks dev);
  Block_device.free dev ~addr:a ~nblocks:2;
  Alcotest.(check int) "live" 2 (Block_device.live_blocks dev);
  Alcotest.(check bool) "freed read fails" true
    (try
       ignore (Block_device.read_block dev ~addr:a);
       false
     with Block_device.Device_error _ -> true)

let test_device_fault_injection () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  Block_device.write_block dev ~addr (Array.make 8 1);
  Block_device.set_injector dev
    (Some (fun op ~attempt:_ _ -> if op = Block_device.Read then Some Block_device.Fail else None));
  Alcotest.(check bool) "read faults" true
    (try
       ignore (Block_device.read_block dev ~addr);
       false
     with Block_device.Device_error _ -> true);
  Block_device.set_injector dev None;
  Alcotest.(check (array int)) "recovers" (Array.make 8 1) (Block_device.read_block dev ~addr)

(* --- Fault tolerance: retries, checksums, torn writes ---------------- *)

let test_transient_fault_absorbed () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  Block_device.write_block dev ~addr (Array.make 8 42);
  (* Fail the first two read attempts; the third succeeds. *)
  Block_device.set_injector dev
    (Some
       (fun op ~attempt _ ->
         if op = Block_device.Read && attempt <= 2 then Some Block_device.Fail else None));
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  Alcotest.(check (array int)) "absorbed" (Array.make 8 42) (Block_device.read_block dev ~addr);
  let c = Io_stats.snapshot stats in
  Alcotest.(check int) "retries counted" 2 c.Io_stats.retries;
  Alcotest.(check int) "one successful physical read" 1 c.Io_stats.reads;
  Alcotest.(check int) "no checksum failures" 0 c.Io_stats.checksum_failures

let test_persistent_fault_exhausts_retries () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  Block_device.write_block dev ~addr (Array.make 8 1);
  Block_device.set_injector dev
    (Some (fun op ~attempt:_ _ -> if op = Block_device.Read then Some Block_device.Fail else None));
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  Alcotest.(check bool) "persistent fault surfaces" true
    (try
       ignore (Block_device.read_block dev ~addr);
       false
     with Block_device.Device_error _ -> true);
  Alcotest.(check int) "all retries spent"
    (Block_device.max_read_attempts - 1)
    (Io_stats.snapshot stats).Io_stats.retries;
  (* Clearing the injector restores service. *)
  Block_device.set_injector dev None;
  Alcotest.(check (array int)) "recovers" (Array.make 8 1) (Block_device.read_block dev ~addr)

let test_corrupt_write_detected () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  (* A bit-flip on the way to the platter: the stored checksum no
     longer matches the payload, so every read must fail loudly rather
     than serve the damaged block. *)
  Block_device.set_injector dev
    (Some (fun op ~attempt:_ _ -> if op = Block_device.Write then Some (Block_device.Corrupt 3) else None));
  Block_device.write_block dev ~addr [| 1; 2; 3; 4; 5; 6; 7; 8 |];
  Block_device.set_injector dev None;
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  Alcotest.(check bool) "corruption never served" true
    (try
       ignore (Block_device.read_block dev ~addr);
       false
     with Block_device.Device_error msg ->
       Alcotest.(check bool) "mentions checksum" true
         (Str.string_match (Str.regexp ".*checksum mismatch.*") msg 0);
       true);
  Alcotest.(check int) "each attempt failed the checksum" Block_device.max_read_attempts
    (Io_stats.snapshot stats).Io_stats.checksum_failures

let test_torn_write_detected () =
  let dev = mem_dev () in
  let addr = Block_device.alloc dev 1 in
  Block_device.set_injector dev
    (Some (fun op ~attempt:_ _ -> if op = Block_device.Write then Some (Block_device.Torn 4) else None));
  Alcotest.(check bool) "torn write raises" true
    (try
       Block_device.write_block dev ~addr (Array.make 8 5);
       false
     with Block_device.Device_error _ -> true);
  Block_device.set_injector dev None;
  (* The half-written record fails its checksum on read. *)
  Alcotest.(check bool) "torn block never served" true
    (try
       ignore (Block_device.read_block dev ~addr);
       false
     with Block_device.Device_error _ -> true);
  (* Rewriting the block heals it: fresh payload, fresh checksum. *)
  Block_device.write_block dev ~addr (Array.make 8 6);
  Alcotest.(check (array int)) "rewrite heals" (Array.make 8 6) (Block_device.read_block dev ~addr)

let test_file_reopen_tolerates_trailing_tear () =
  let path = Filename.temp_file "hsq_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let dev = Block_device.create_file ~block_size:4 ~path () in
      let a = Block_device.alloc dev 2 in
      Block_device.write_block dev ~addr:a [| 1; 2; 3; 4 |];
      Block_device.set_injector dev
        (Some
           (fun op ~attempt:_ addr ->
             if op = Block_device.Write && addr = a + 1 then Some (Block_device.Torn 2) else None));
      (* Simulated crash mid-write of block a+1: only a prefix of the
         record reaches the file. *)
      Alcotest.(check bool) "tear raises" true
        (try
           Block_device.write_block dev ~addr:(a + 1) [| 5; 6; 7; 8 |];
           false
         with Block_device.Device_error _ -> true);
      Block_device.close dev;
      (* Reopen: the partial trailing record is floored away; the intact
         block is still readable. *)
      let dev = Block_device.open_file ~block_size:4 ~path () in
      Alcotest.(check int) "partial record floored" 1 (Block_device.allocated_blocks dev);
      ignore (Block_device.alloc dev 1);
      Alcotest.(check (array int)) "intact block survives" [| 1; 2; 3; 4 |]
        (Block_device.read_block dev ~addr:a);
      Block_device.close dev)

let test_file_bit_rot_detected () =
  let path = Filename.temp_file "hsq_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let dev = Block_device.create_file ~block_size:4 ~path () in
      let addr = Block_device.alloc dev 1 in
      Block_device.write_block dev ~addr [| 10; 20; 30; 40 |];
      Block_device.close dev;
      (* Flip one bit of the second payload word, at rest. *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 15 Unix.SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x04));
      ignore (Unix.lseek fd 15 Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1);
      Unix.close fd;
      let dev = Block_device.open_file ~block_size:4 ~path () in
      ignore (Block_device.alloc dev 1);
      Alcotest.(check bool) "bit rot caught by checksum" true
        (try
           ignore (Block_device.read_block dev ~addr);
           false
         with Block_device.Device_error msg ->
           Str.string_match (Str.regexp ".*checksum mismatch.*") msg 0);
      Block_device.close dev)

(* --- Verified decode ---------------------------------------------------------

   [Word.read_sealed] folds the checksum on a shifted representation;
   the reference here is the plain fold over decoded ints, with the
   sign-extension check [Word.get] makes.  They must agree on the
   verdict and on every decoded word, whatever the record holds. *)

let reference_read_sealed b ~len ~seed =
  let dst = Array.make len 0 and h = ref seed and ok = ref true in
  for j = 0 to len do
    let w = Bytes.get_int64_be b (8 * j) in
    let top = Int64.to_int (Int64.shift_right w 62) in
    if top <> 0 && top <> -1 then ok := false;
    let v = Int64.to_int w in
    if j < len then begin
      dst.(j) <- v;
      h := Word.mix !h v
    end
    else if v <> !h then ok := false
  done;
  (!ok, dst, !h)

(* 3,000 seeded records of 0 to 300 payload words (full-range values,
   min_int and max_int among them), each sealed by the reference and
   read back, then damaged one way: one bit flipped anywhere, bit 63
   flipped so it differs from bit 62 in a payload or the checksum word,
   or the checksum word replaced.  [write_sealed] must encode the same
   record and return the reference's checksum. *)
let test_read_sealed_reference () =
  let rng = Hsq_util.Splitmix.create 0x5EA1 in
  let draw n = Hsq_util.Splitmix.int rng n in
  let value () =
    match draw 8 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> draw 3 - 1
    | _ -> Int64.to_int (Hsq_util.Splitmix.next_int64 rng)
  in
  for case = 1 to 3_000 do
    let len = if case <= 3 then case - 1 else draw 301 in
    let seed = value () in
    let src = Array.init len (fun _ -> value ()) in
    let b = Bytes.create (8 * (len + 1)) in
    Array.iteri (fun j v -> Word.set b (8 * j) v) src;
    let _, _, sum = reference_read_sealed b ~len ~seed in
    Word.set b (8 * len) sum;
    let sealed = Bytes.create (8 * (len + 1)) in
    let got = Word.write_sealed sealed ~off:0 src ~upto:len ~flip:(-1) ~seed in
    Word.set sealed (8 * len) got;
    if got <> sum || not (Bytes.equal sealed b) then
      Alcotest.failf "case %d: write_sealed sums %x, the reference %x" case got sum;
    let agree what =
      let ok, want, _ = reference_read_sealed b ~len ~seed in
      let dst = Array.make len 0 in
      let verdict = Word.read_sealed b dst ~len ~seed in
      if verdict <> ok || dst <> want then
        Alcotest.failf "case %d (%s, %d words): read_sealed says %b, the reference %b" case what len
          verdict ok
    in
    agree "valid";
    let flip byte mask =
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor mask))
    in
    let restore () = Array.iteri (fun j v -> Word.set b (8 * j) v) src; Word.set b (8 * len) sum in
    let byte = draw (8 * (len + 1)) and bit = 1 lsl draw 8 in
    flip byte bit;
    agree (Printf.sprintf "byte %d bit mask %x flipped" byte bit);
    restore ();
    let word = draw (len + 1) in
    flip (8 * word) 0x80;
    agree (Printf.sprintf "bit 63 of word %d" word);
    restore ();
    Word.set b (8 * len) (sum + 1 + draw 1_000);
    agree "wrong checksum word"
  done

(* --- Bit 63 ----------------------------------------------------------------

   Words are stored as 64-bit sign extensions of 63-bit ints, so bit 63
   always equals bit 62 as written.  A flip of bit 63, the top bit of a
   big-endian word's first byte, must be seen like any other flip. *)

let flip_byte path off mask =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor mask));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

(* Word [word] of a 4-word block's record (word 4 is the checksum). *)
let device_bit63_case word () =
  let path = Filename.temp_file "hsq_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let dev = Block_device.create_file ~block_size:4 ~path () in
      let addr = Block_device.alloc dev 1 in
      Block_device.write_block dev ~addr [| 10; -20; 30; 40 |];
      Block_device.close dev;
      flip_byte path (8 * word) 0x80;
      let dev = Block_device.open_file ~block_size:4 ~path () in
      ignore (Block_device.alloc dev 1);
      (match Block_device.read_block dev ~addr with
      | block -> Alcotest.failf "flipped bit 63 of word %d read back as [%s]" word
                   (String.concat "; " (Array.to_list (Array.map string_of_int block)))
      | exception Block_device.Device_error msg ->
        Alcotest.(check bool) ("a checksum failure: " ^ msg) true
          (Str.string_match (Str.regexp ".*checksum mismatch.*") msg 0));
      Block_device.close dev)

(* A WAL record's value word: the reader floors the log there. *)
let test_wal_bit63_torn () =
  let path = Filename.temp_file "hsq_test" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let wal = Wal.create ~stats:(Io_stats.create ()) ~path ~start_seq:1 () in
      List.iter (fun v -> ignore (Wal.append wal (Wal.Observe v))) [ 11; 22; 33 ];
      Wal.close wal;
      (* 24-byte header, 40-byte observe records [len; seq; kind; value;
         checksum]: the value word of record 2. *)
      flip_byte path (24 + 40 + 24) 0x80;
      let records, _, tail = read_path ~path in
      Alcotest.(check (list int)) "the prefix before it" [ 1 ] (List.map fst records);
      Alcotest.(check bool) "a torn record" true (tail = Wal.Torn "record checksum mismatch"))

let test_file_backend_roundtrip () =
  let path = Filename.temp_file "hsq_test" ".dev" in
  let dev = Block_device.create_file ~block_size:4 ~path () in
  let addr = Block_device.alloc dev 3 in
  Block_device.write_block dev ~addr [| 10; -20; 30; max_int / 2 |];
  Block_device.write_block dev ~addr:(addr + 2) [| 7; 7; 7; 7 |];
  Alcotest.(check (array int)) "block 0" [| 10; -20; 30; max_int / 2 |]
    (Block_device.read_block dev ~addr);
  Alcotest.(check (array int)) "block 2" [| 7; 7; 7; 7 |] (Block_device.read_block dev ~addr:(addr + 2));
  Block_device.close dev;
  Sys.remove path

(* --- File read path ---------------------------------------------------- *)

let with_dev_file f =
  let path = Filename.temp_file "hsq_test" ".dev" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* Block [a] of the file-read tests: distinct words, negatives included. *)
let pattern ~block_size a = Array.init block_size (fun j -> ((a * 7919) + j) * if j land 1 = 0 then 1 else -1)

let file_dev_with ~block_size ~blocks path =
  let dev = Block_device.create_file ~block_size ~path () in
  let base = Block_device.alloc dev blocks in
  for a = 0 to blocks - 1 do
    Block_device.write_block dev ~addr:(base + a) (pattern ~block_size a)
  done;
  (dev, base)

(* A file-backed read at the default B = 256 decodes into a minor-heap
   payload: no per-read record array or byte buffer reaches the major
   heap. *)
let test_file_read_allocation () =
  with_dev_file (fun path ->
      let dev, base = file_dev_with ~block_size:256 ~blocks:64 path in
      let reads = 2_000 in
      let sink = ref 0 in
      let read i = sink := !sink + (Block_device.read_block dev ~addr:(base + (i * 37 mod 64))).(1) in
      for i = 1 to 100 do read i done;
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      for i = 1 to reads do read i done;
      let per_read = ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int reads in
      Block_device.close dev;
      ignore (Sys.opaque_identity !sink);
      if per_read >= 64.0 then Alcotest.failf "%.1f major words per read (want < 64)" per_read)

(* Two domains share the device's one descriptor and record buffer;
   each must still see exact payloads. *)
let test_file_concurrent_reads () =
  with_dev_file (fun path ->
      let block_size = 64 and blocks = 200 in
      let dev, base = file_dev_with ~block_size ~blocks path in
      let reader seed () =
        let rng = Random.State.make [| seed |] in
        let bad = ref 0 in
        for _ = 1 to 1_000 do
          let a = Random.State.int rng blocks in
          if Block_device.read_block dev ~addr:(base + a) <> pattern ~block_size a then incr bad
        done;
        !bad
      in
      let ds = List.map (fun seed -> Domain.spawn (reader seed)) [ 1; 2 ] in
      let bad = List.map Domain.join ds in
      Block_device.close dev;
      Alcotest.(check (list int)) "every payload exact" [ 0; 0 ] bad)

let test_file_truncated_tail () =
  with_dev_file (fun path ->
      let block_size = 8 in
      let dev, base = file_dev_with ~block_size ~blocks:3 path in
      (* Cut the file in the middle of the second record. *)
      Unix.truncate path ((8 * (block_size + 1)) + 20);
      Alcotest.(check (array int)) "intact block still reads" (pattern ~block_size 0)
        (Block_device.read_block dev ~addr:base);
      List.iter
        (fun a ->
          match Block_device.read_block dev ~addr:(base + a) with
          | _ -> Alcotest.failf "block %d read past the truncated tail" a
          | exception Block_device.Device_error msg ->
            Alcotest.(check bool) (Printf.sprintf "block %d: short read (%s)" a msg) true
              (Str.string_match (Str.regexp "short read") msg 0))
        [ 1; 2 ];
      Block_device.close dev)

(* The same truncation met inside a batch: [read_batch] stops at the
   first short block with [Batch_error] naming its slot, and the blocks
   before it came back intact. *)
let test_file_truncated_tail_batch () =
  with_dev_file (fun path ->
      let block_size = 8 in
      let dev, base = file_dev_with ~block_size ~blocks:3 path in
      Unix.truncate path ((8 * (block_size + 1)) + 20);
      let blocks = Array.make 3 [||] in
      (match Block_device.read_batch (Array.make 3 dev) [| base; base + 1; base + 2 |] blocks ~n:3 with
      | _ -> Alcotest.fail "the batch read past the truncated tail"
      | exception Block_device.Batch_error (i, msg) ->
        Alcotest.(check int) "fails at the first short block" 1 i;
        Alcotest.(check bool) (Printf.sprintf "a short read (%s)" msg) true
          (Str.string_match (Str.regexp "short read") msg 0));
      Alcotest.(check (array int)) "the block before it intact" (pattern ~block_size 0) blocks.(0);
      Alcotest.(check (list (array int))) "nothing after it" [ [||]; [||] ]
        [ blocks.(1); blocks.(2) ];
      Block_device.close dev)

(* A torn write over a written block leaves the new prefix, the old
   tail and the old checksum on disk; the read fails its checksum, and a
   rewrite heals the block. *)
let test_file_torn_then_rewrite () =
  with_dev_file (fun path ->
      let block_size = 8 in
      let dev, addr = file_dev_with ~block_size ~blocks:1 path in
      let old = pattern ~block_size 0 in
      Block_device.set_injector dev
        (Some (fun op ~attempt:_ _ -> if op = Block_device.Write then Some (Block_device.Torn 3) else None));
      Alcotest.(check bool) "torn write raises" true
        (match Block_device.write_block dev ~addr (Array.make block_size 5) with
        | () -> false
        | exception Block_device.Device_error _ -> true);
      Block_device.set_injector dev None;
      let raw =
        let ic = open_in_bin path in
        let b = really_input_string ic (8 * (block_size + 1)) in
        close_in ic;
        Array.init (block_size + 1) (fun i -> Int64.to_int (String.get_int64_be b (8 * i)))
      in
      Alcotest.(check (array int)) "new prefix over the old payload"
        (Array.append [| 5; 5; 5 |] (Array.sub old 3 (block_size - 3)))
        (Array.sub raw 0 block_size);
      Alcotest.(check bool) "torn block never served" true
        (match Block_device.read_block dev ~addr with
        | _ -> false
        | exception Block_device.Device_error msg ->
          Str.string_match (Str.regexp ".*checksum mismatch.*") msg 0);
      Block_device.write_block dev ~addr (Array.make block_size 6);
      Alcotest.(check (array int)) "rewrite heals" (Array.make block_size 6)
        (Block_device.read_block dev ~addr);
      Block_device.close dev)

(* Closing twice is a no-op, and a read of a closed device is a
   [Sys_error] that leaves the device lock free for the next call. *)
let test_file_closed_device () =
  with_dev_file (fun path ->
      let dev, addr = file_dev_with ~block_size:8 ~blocks:1 path in
      Block_device.close dev;
      Block_device.close dev;
      let closed_read () =
        match Block_device.read_block dev ~addr with
        | _ -> false
        | exception Sys_error _ -> true
      in
      Alcotest.(check bool) "read after close" true (closed_read ());
      Alcotest.(check bool) "read after close, again" true (closed_read ()))

(* --- Run ------------------------------------------------------------ *)

let test_run_roundtrip_and_padding () =
  let dev = mem_dev () in
  (* 10 elements over 8-element blocks: a partial tail block. *)
  let data = Array.init 10 (fun i -> i * 2) in
  let run = Run.of_sorted_array dev data in
  Alcotest.(check int) "length" 10 (Run.length run);
  Alcotest.(check int) "nblocks" 2 (Run.nblocks run);
  Alcotest.(check (array int)) "to_array" data (Run.to_array run);
  Alcotest.(check int) "get 9" 18 (Run.get run 9);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Run.get: index out of bounds")
    (fun () -> ignore (Run.get run 10))

let test_run_rejects_unsorted () =
  let dev = mem_dev () in
  Alcotest.check_raises "unsorted" (Invalid_argument "Run.of_sorted_array: not sorted") (fun () ->
      ignore (Run.of_sorted_array dev [| 3; 1 |]));
  Alcotest.check_raises "empty" (Invalid_argument "Run.of_sorted_array: empty run") (fun () ->
      ignore (Run.of_sorted_array dev [||]))

let test_run_rank () =
  let dev = mem_dev () in
  let data = [| 1; 3; 3; 5; 9; 9; 9; 12; 15; 20 |] in
  let run = Run.of_sorted_array dev data in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "rank %d" v)
        (Hsq_util.Sorted.rank data v) (Run.rank run v))
    [ 0; 1; 2; 3; 4; 9; 10; 20; 21 ]

let test_run_block_cache () =
  let dev = mem_dev ~block_size:4 () in
  let run = Run.of_sorted_array dev (Array.init 16 (fun i -> i)) in
  Run.drop_cache run;
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  ignore (Run.get run 0);
  ignore (Run.get run 1);
  ignore (Run.get run 2);
  (* all in block 0: one physical read *)
  Alcotest.(check int) "cached reads" 1 (Io_stats.snapshot stats).Io_stats.reads;
  ignore (Run.get run 5);
  Alcotest.(check int) "new block read" 2 (Io_stats.snapshot stats).Io_stats.reads

let test_run_rank_between_io_bound () =
  let dev = mem_dev ~block_size:16 () in
  let n = 4096 in
  let run = Run.of_sorted_array dev (Array.init n (fun i -> 2 * i)) in
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  let r = Run.rank_between run ~lo:0 ~hi:n 2001 in
  Alcotest.(check int) "correct rank" 1001 r;
  (* 4096/16 = 256 blocks, each read settled in full: ceil(log2 256) + 2 *)
  Alcotest.(check bool) "io within log bound" true ((Io_stats.snapshot stats).Io_stats.reads <= 10)

let ceil_log2 k =
  let rec go p acc = if p >= k then acc else go (2 * p) (acc + 1) in
  go 1 0

(* The true anchors of the window [lo, hi) over [data]: the elements at
   lo - 1 and hi, unknown at the ends. *)
let true_anchors data ~lo ~hi =
  ( (if lo > 0 then Some data.(lo - 1) else None),
    if hi < Array.length data then Some data.(hi) else None )

(* Seeded sweep of the block-settling read bound: from a cold cache, a
   window [lo, hi) holding the true rank and spanning [k] blocks costs
   at most ceil(log2 k) + 2 reads, and the answer is the in-memory rank.
   Inputs include the shapes that defeat value-based guesses: heavy
   duplicates, one huge gap, and exponential spacing.  The resumable
   search, driven one block at a time through [read_batch] as a probe
   round does, finds the same rank reading the same blocks in the same
   order.  Each case then reruns from warm caches (see below).  With
   [anchored], every search starts with the window's true anchors, as a
   summary-bounded probe does, so interpolation guides it from its first
   read and only the read budget keeps the bound. *)
let read_bound_sweep ~anchored () =
  let rng = Hsq_util.Xoshiro.create 2016 in
  let draw bound = Hsq_util.Xoshiro.int rng bound in
  let kinds =
    [
      ("random", fun n -> Array.init n (fun _ -> draw 1_000_000));
      ("duplicates", fun n -> Array.init n (fun _ -> draw 3));
      ( "huge gap",
        fun n ->
          let gap = draw (n + 1) in
          Array.init n (fun i -> if i < gap then i else (1 lsl 50) + i) );
      ("exponential", fun n -> Array.init n (fun i -> int_of_float (exp (40.0 *. float i /. float n))));
    ]
  in
  List.iter
    (fun block_size ->
      List.iter
        (fun (kind, gen) ->
          for _ = 1 to 10 do
            let dev = mem_dev ~block_size () in
            let data = gen (1 + draw (block_size * 64)) in
            Array.sort compare data;
            let n = Array.length data in
            let run = Run.of_sorted_array dev data in
            let stats = Block_device.stats dev in
            let log = log_reads dev in
            let devs = [| dev |] and addrs = [| 0 |] and blocks = [| [||] |] in
            let search = Run.search run in
            for _ = 1 to 400 do
              let v =
                match draw 8 with
                | 0 -> data.(0) - 1
                | 1 -> data.(n - 1) + 1
                | _ -> data.(draw n) + draw 3 - 1
              in
              let r = Hsq_util.Sorted.rank data v in
              let lo = draw (r + 1) in
              let hi = r + draw (n - r + 1) in
              let spanned = if lo >= hi then 0 else ((hi - 1) / block_size) - (lo / block_size) + 1 in
              let bound = if spanned = 0 then 0 else ceil_log2 spanned + 2 in
              let ylo, yhi = if anchored then true_anchors data ~lo ~hi else (None, None) in
              Run.drop_cache run;
              Io_stats.reset stats;
              log := [];
              let got = Run.rank_between run ?ylo ?yhi ~lo ~hi v in
              let reads = (Io_stats.snapshot stats).Io_stats.reads in
              if got <> r || reads > bound then
                Alcotest.failf "B=%d %s n=%d v=%d [%d,%d): rank %d (want %d), %d reads (bound %d)"
                  block_size kind n v lo hi got r reads bound;
              let sequence = !log in
              Run.drop_cache run;
              log := [];
              Run.start search ?ylo ?yhi ~lo ~hi v;
              let rec drive () =
                let addr = Run.advance search in
                if addr >= 0 then begin
                  addrs.(0) <- addr;
                  ignore (Block_device.read_batch devs addrs blocks ~n:1);
                  Run.feed search blocks.(0);
                  drive ()
                end
              in
              drive ();
              if Run.window search <> (got, got) || !log <> sequence then
                Alcotest.failf "B=%d %s n=%d v=%d [%d,%d): resumable rank %d, %d reads (want %d, %d)"
                  block_size kind n v lo hi (fst (Run.window search)) (List.length !log) got
                  (List.length sequence);
              (* Warm starts: the cache holds a block inside the window,
                 one at its edge (holding lo, hi - 1 or hi), or one clear
                 of it.  The search settles the cached block first, so
                 the bound still holds, and an answer strictly inside
                 the cached block, clipped to the window, costs no read. *)
              let block_of i = i / block_size in
              let edge = List.nth [ lo; hi - 1; hi ] (draw 3) in
              let outside =
                let before = block_of lo and after = n - ((block_of (hi - 1) + 1) * block_size) in
                if before > 0 && (after <= 0 || draw 2 = 0) then Some (draw (before * block_size))
                else if after > 0 then Some (n - 1 - draw after)
                else None
              in
              List.iter
                (fun (where, cached) ->
                  Run.drop_cache run;
                  ignore (Run.get run cached);
                  Io_stats.reset stats;
                  let got = Run.rank_between run ?ylo ?yhi ~lo ~hi v in
                  let reads = (Io_stats.snapshot stats).Io_stats.reads in
                  let base = block_of cached * block_size in
                  let a = max lo base and b = min hi (base + block_size) in
                  let free = a < r && r < b in
                  if got <> r || reads > bound || (free && reads > 0) then
                    Alcotest.failf
                      "B=%d %s n=%d v=%d [%d,%d) cached %s %d: rank %d (want %d), %d reads (bound \
                       %d%s)"
                      block_size kind n v lo hi where cached got r reads bound
                      (if free then ", 0 with the answer in the cached block" else ""))
                ((if lo < hi then [ ("inside", lo + draw (hi - lo)) ] else [])
                @ (if edge >= 0 && edge < n then [ ("edge", edge) ] else [])
                @ match outside with Some i -> [ ("outside", i) ] | None -> [])
            done
          done)
        kinds)
    [ 2; 4; 16; 256 ]

let test_run_rank_between_read_bound = read_bound_sweep ~anchored:false
let test_run_rank_between_anchored_read_bound = read_bound_sweep ~anchored:true

(* Interpolation is taken, not only allowed: over evenly spaced values,
   a search given both true anchors of its window aims at the answer's
   block from its first read.  So every window of 8 blocks or more
   costs 1 read, unless the answer r sits on a block boundary (r - 1
   and r in different blocks), which no single block settles; then the
   read bound still holds.  A midpoint search of such a window needs 1
   read only when the midpoint happens to share the answer's block. *)
let test_run_guided_even_spacing () =
  let block_size = 16 in
  let n = block_size * 64 in
  let data = Array.init n (fun i -> 100 + (10 * i)) in
  let dev = mem_dev ~block_size () in
  let run = Run.of_sorted_array dev data in
  let stats = Block_device.stats dev in
  let rng = Hsq_util.Xoshiro.create 25 in
  let draw bound = Hsq_util.Xoshiro.int rng bound in
  let windows = ref 0 in
  while !windows < 2000 do
    (* Both anchors exist: the window stays clear of the run's ends. *)
    let lo = 1 + draw (n - 2) in
    let hi = lo + draw (n - lo) in
    let spanned = if lo >= hi then 0 else ((hi - 1) / block_size) - (lo / block_size) + 1 in
    if spanned >= 8 then begin
      incr windows;
      let r = lo + draw (hi - lo + 1) in
      (* Any value whose rank is r: from data.(r - 1) up to data.(r). *)
      let v = data.(r - 1) + draw 10 in
      let ylo, yhi = true_anchors data ~lo ~hi in
      Run.drop_cache run;
      Io_stats.reset stats;
      let got = Run.rank_between run ?ylo ?yhi ~lo ~hi v in
      let reads = (Io_stats.snapshot stats).Io_stats.reads in
      let straddles = lo < r && r < hi && r mod block_size = 0 in
      let want = if straddles then ceil_log2 spanned + 2 else 1 in
      if got <> r || reads > want then
        Alcotest.failf "[%d,%d) spanning %d blocks, v=%d: rank %d (want %d), %d reads (want <= %d)"
          lo hi spanned v got r reads want
    end
  done

(* A search's anchors are the run's elements at [lo - 1] and [hi] of its
   window at every step, or unknown only at the run's ends: seeded
   sequences start searches with true anchors, interleave [advance] and
   [feed] with cache hits from other searches of the same run, and
   restart on the window and anchors a search left, as a bisection
   narrows. *)
let test_run_anchor_invariant () =
  let rng = Hsq_util.Xoshiro.create 1978 in
  let draw bound = Hsq_util.Xoshiro.int rng bound in
  List.iter
    (fun block_size ->
      for _ = 1 to 20 do
        let dev = mem_dev ~block_size () in
        let data = Array.init (1 + draw (block_size * 40)) (fun _ -> draw 5_000) in
        Array.sort compare data;
        let n = Array.length data in
        let run = Run.of_sorted_array dev data in
        let searches = Array.init 3 (fun _ -> Run.search run) in
        let check ctx s =
          let lo, hi = Run.window s and ylo, yhi = Run.anchors s in
          let want_lo, want_hi = true_anchors data ~lo ~hi in
          let ok_lo = ylo = want_lo || (ylo = None && lo = 0) in
          let ok_hi = yhi = want_hi || (yhi = None && hi = n) in
          if not (ok_lo && ok_hi) then
            Alcotest.failf "B=%d n=%d %s: window [%d,%d] anchors do not match the run" block_size n
              ctx lo hi
        in
        let fresh s =
          let v = data.(draw n) + draw 3 - 1 in
          let r = Hsq_util.Sorted.rank data v in
          let lo = draw (r + 1) in
          let hi = r + draw (n - r + 1) in
          let ylo, yhi = true_anchors data ~lo ~hi in
          Run.start s ?ylo ?yhi ~lo ~hi v
        in
        Array.iter fresh searches;
        for _ = 1 to 300 do
          let s = searches.(draw 3) in
          (match draw 4 with
          | 0 -> fresh s
          | 1 ->
            (* Narrow: a new value whose rank lies in the window left,
               started on that window and its anchors. *)
            let lo, hi = Run.window s and ylo, yhi = Run.anchors s in
            let r = lo + draw (hi - lo + 1) in
            let v = if r = 0 then data.(0) - 1 else data.(r - 1) in
            if Hsq_util.Sorted.rank data v = r then Run.start s ?ylo ?yhi ~lo ~hi v
          | _ ->
            let addr = Run.advance s in
            if addr >= 0 then begin
              check "advance" s;
              Run.feed s (Block_device.read_block dev ~addr)
            end);
          check "step" s
        done
      done)
    [ 2; 4; 16 ]

(* A framed search probed as a bisection probes it: each value on the
   side of the last that [keep] was told, the search sometimes cut
   short before [keep] as a decided probe round cuts it.  Every
   [restart] starts from the frame, and every [restart_within] a window
   known to hold the value's rank (as a summary gap is) from the frame
   cut down to that window; each holds the value's rank, with the run's
   true anchors, and a search driven to the end settles on the
   in-memory rank. *)
let test_run_framed_search () =
  let rng = Hsq_util.Xoshiro.create 2024 in
  let draw bound = Hsq_util.Xoshiro.int rng bound in
  List.iter
    (fun block_size ->
      for _ = 1 to 30 do
        let dev = mem_dev ~block_size () in
        let data = Array.init (1 + draw (block_size * 40)) (fun _ -> draw 5_000) in
        Array.sort compare data;
        let n = Array.length data in
        let run = Run.of_sorted_array dev data in
        let s = Run.search run in
        let fail ctx z =
          Alcotest.failf "B=%d n=%d z=%d %s: window [%d,%d], rank %d" block_size n z ctx (Run.lo s)
            (Run.hi s) (Hsq_util.Sorted.rank data z)
        in
        let sound ctx z =
          let r = Hsq_util.Sorted.rank data z and ylo, yhi = Run.anchors s in
          let want_lo, want_hi = true_anchors data ~lo:(Run.lo s) ~hi:(Run.hi s) in
          if
            Run.lo s > r || Run.hi s < r
            || not ((ylo = want_lo || ylo = None) && (yhi = want_hi || yhi = None))
          then fail ctx z
        in
        Run.frame s ~lo:0 ~hi:n ~ylo:0 ~yhi:0 ~known:0;
        let u = ref (data.(0) - 1) and v = ref (data.(n - 1) + 1) in
        let flo = ref 0 and fhi = ref n in
        let starts ctx z lo hi = if (Run.lo s, Run.hi s) <> (lo, hi) then fail ctx z in
        while !v - !u >= 2 do
          let z = !u + 1 + draw (!v - !u - 1) in
          if draw 2 = 0 then begin
            Run.restart s z;
            starts "restart from the frame" z !flo !fhi;
            sound "restart" z
          end
          else begin
            let r = Hsq_util.Sorted.rank data z in
            let lo = r - draw (r + 1) and hi = r + draw (n - r + 1) in
            let known =
              (if lo > 0 then Run.ylo_known else 0) lor if hi < n then Run.yhi_known else 0
            in
            Run.restart_within s ~lo ~hi
              ~ylo:(if lo > 0 then data.(lo - 1) else 0)
              ~yhi:(if hi < n then data.(hi) else 0)
              ~known z;
            starts "restart_within from the cut frame" z (max lo !flo) (min hi !fhi);
            sound "restart_within" z
          end;
          let full = draw 3 > 0 in
          let steps = ref (if full then max_int else draw 3) in
          let addr = ref (Run.advance s) in
          while !addr >= 0 && !steps > 0 do
            Run.feed s (Block_device.read_block dev ~addr:!addr);
            decr steps;
            addr := Run.advance s
          done;
          sound "step" z;
          if full && (Run.lo s, Run.hi s) <> (Hsq_util.Sorted.rank data z, Hsq_util.Sorted.rank data z)
          then fail "settled" z;
          let left = draw 2 = 0 in
          if left then fhi := Run.hi s else flo := Run.lo s;
          Run.keep s ~left;
          if left then v := z else u := z
        done
      done)
    [ 2; 4; 16 ]

(* A probe round's batch read keeps each read's bookkeeping in batch
   order and shares only the wait: three reads wait one read latency,
   recorded as one observation of the caller's wait.  A persistent
   fault on the middle read stops the batch there — the first read is
   counted and waited for, the third is never issued — and names index
   1.  An open breaker fails the batch at its first read with no read
   and no wait. *)
let test_read_batch_order_and_wait () =
  let dev = mem_dev ~block_size:4 () in
  let base = Block_device.alloc dev 3 in
  for b = 0 to 2 do
    Block_device.write_block dev ~addr:(base + b) (Array.make 4 b)
  done;
  let stats = Block_device.stats dev in
  let waits = Hsq_obs.Metrics.histogram (Io_stats.registry stats) "hsq_device_read_seconds" in
  let latency = 0.02 in
  Block_device.set_read_latency dev latency;
  let devs = Array.make 3 dev and addrs = Array.init 3 (fun b -> base + b) in
  let blocks = Array.make 3 [||] in
  let reads () = (Io_stats.snapshot stats).Io_stats.reads in
  let batch_error () =
    match Block_device.read_batch devs addrs blocks ~n:3 with
    | _ -> Alcotest.fail "expected Batch_error"
    | exception Block_device.Batch_error (i, _) -> i
  in
  Alcotest.(check int) "three physical reads" 3 (Block_device.read_batch devs addrs blocks ~n:3);
  Alcotest.(check (array (array int))) "blocks in batch order"
    [| Array.make 4 0; Array.make 4 1; Array.make 4 2 |]
    blocks;
  Alcotest.(check int) "counted in Io_stats" 3 (reads ());
  Alcotest.(check int) "one wait for the batch" 1 (Hsq_obs.Metrics.Histogram.count waits);
  let waited = Hsq_obs.Metrics.Histogram.sum waits in
  if waited < latency || waited >= 3.0 *. latency then
    Alcotest.failf "batch waited %.4f s, want one %.2f s latency" waited latency;
  (* A persistent fault on the middle address. *)
  let issued = ref [] in
  Block_device.set_injector dev
    (Some
       (fun op ~attempt:_ addr ->
         if op = Block_device.Read then issued := addr :: !issued;
         if addr = base + 1 then Some Block_device.Fail else None));
  Io_stats.reset stats;
  Alcotest.(check int) "error names the middle read" 1 (batch_error ());
  Alcotest.(check int) "only the first read counted" 1 (reads ());
  Alcotest.(check bool) "third read never issued" false (List.mem (base + 2) !issued);
  Alcotest.(check int) "the first read's wait recorded" 2 (Hsq_obs.Metrics.Histogram.count waits);
  (* An open breaker: no read, no wait.  Every read also faults, so a
     half-open trial granted after the short cooldown reads nothing
     either. *)
  Block_device.set_injector dev (Some (fun _ ~attempt:_ _ -> Some Block_device.Fail));
  let breaker = Block_device.breaker dev in
  for _ = 1 to Breaker.default_failure_threshold do
    Breaker.failure breaker
  done;
  Alcotest.(check bool) "breaker tripped" true (Block_device.breaker_state dev <> Breaker.Closed);
  Io_stats.reset stats;
  let sum0 = Hsq_obs.Metrics.Histogram.sum waits in
  Alcotest.(check int) "error names the first read" 0 (batch_error ());
  Alcotest.(check int) "no read" 0 (reads ());
  Alcotest.(check int) "no wait recorded" 2 (Hsq_obs.Metrics.Histogram.count waits);
  Alcotest.(check (float 0.0)) "no wait time" sum0 (Hsq_obs.Metrics.Histogram.sum waits)

(* A one-block memory device at [latency] seconds a read. *)
let slow_dev latency =
  let dev = mem_dev ~block_size:4 () in
  let addr = Block_device.alloc dev 1 in
  Block_device.write_block dev ~addr (Array.make 4 addr);
  Block_device.set_read_latency dev latency;
  (dev, addr)

let read_waits dev =
  Hsq_obs.Metrics.histogram
    (Io_stats.registry (Block_device.stats dev))
    "hsq_device_read_seconds"

(* Wall seconds [f] takes. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The simulated wait lasts at least what it is asked for.  A batch
   over two devices at 2 ms and 8 ms waits the longer latency, and each
   device records that one wait as one observation; a lone read waits
   its own latency.  Only lower bounds are asserted: a wait may run
   long on a loaded machine, but it must never end early. *)
let test_device_wait_lower_bounds () =
  let fast, fast_addr = slow_dev 0.002 and slow, slow_addr = slow_dev 0.008 in
  let blocks = Array.make 2 [||] in
  let took =
    timed (fun () ->
        Alcotest.(check int) "two reads" 2
          (Block_device.read_batch [| fast; slow |] [| fast_addr; slow_addr |] blocks ~n:2))
  in
  if took < 0.008 then Alcotest.failf "batch returned after %.4f s, before the 8 ms wait" took;
  List.iter
    (fun (name, dev) ->
      let waits = read_waits dev in
      Alcotest.(check int) (name ^ ": one observation") 1 (Hsq_obs.Metrics.Histogram.count waits);
      let waited = Hsq_obs.Metrics.Histogram.sum waits in
      if waited < 0.008 then Alcotest.failf "%s recorded %.4f s, under the 8 ms wait" name waited)
    [ ("2 ms device", fast); ("8 ms device", slow) ];
  let lone, addr = slow_dev 0.005 in
  let took = timed (fun () -> ignore (Block_device.read_block lone ~addr)) in
  if took < 0.005 then Alcotest.failf "lone read returned after %.4f s, before its 5 ms" took;
  let waited = Hsq_obs.Metrics.Histogram.sum (read_waits lone) in
  if waited < 0.005 then Alcotest.failf "lone read recorded %.4f s, under its 5 ms" waited

(* A signal does not cut the wait short: a 20 ms batch wait under a
   1 ms interval timer lasts its 20 ms, and the OCaml handler still
   runs. *)
let test_device_wait_survives_signals () =
  let dev, addr = slow_dev 0.02 in
  let handled = ref 0 in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr handled)) in
  let arm interval =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })
  in
  let took =
    Fun.protect
      ~finally:(fun () ->
        arm 0.0;
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        arm 0.001;
        timed (fun () -> ignore (Block_device.read_batch [| dev |] [| addr |] [| [||] |] ~n:1)))
  in
  if took < 0.02 then Alcotest.failf "wait returned after %.4f s, before its 20 ms" took;
  let waited = Hsq_obs.Metrics.Histogram.sum (read_waits dev) in
  if waited < 0.02 then Alcotest.failf "wait recorded %.4f s, under its 20 ms" waited;
  if !handled = 0 then Alcotest.fail "the SIGALRM handler never ran"

let test_run_writer_matches_of_sorted_array () =
  let dev = mem_dev ~block_size:4 () in
  let data = Array.init 11 (fun i -> i * i) in
  let w = Run.writer dev ~length:11 in
  Array.iter (Run.writer_push w) data;
  let run = Run.writer_finish w in
  Alcotest.(check (array int)) "roundtrip" data (Run.to_array run)

let test_run_writer_validation () =
  let dev = mem_dev () in
  let w = Run.writer dev ~length:2 in
  Run.writer_push w 5;
  Alcotest.check_raises "descending push" (Invalid_argument "Run.writer_push: values must be ascending")
    (fun () -> Run.writer_push w 4);
  Alcotest.check_raises "short finish"
    (Invalid_argument "Run.writer_finish: wrote 1 of 2 declared values") (fun () ->
      ignore (Run.writer_finish w))

let test_run_cursor () =
  let dev = mem_dev ~block_size:4 () in
  let data = Array.init 9 (fun i -> i + 100) in
  let run = Run.of_sorted_array dev data in
  let c = Run.cursor run in
  let collected = ref [] in
  let rec drain () =
    match Run.cursor_next c with
    | Some v ->
      collected := v :: !collected;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "cursor sees all" (Array.to_list data) (List.rev !collected)

let test_run_free () =
  let dev = mem_dev () in
  let run = Run.of_sorted_array dev [| 1; 2; 3 |] in
  Run.free run;
  Run.free run;
  (* idempotent *)
  Alcotest.check_raises "freed get" (Invalid_argument "Run.get: run has been freed") (fun () ->
      ignore (Run.get run 0))

(* --- Kway_merge ------------------------------------------------------ *)

let test_kway_merge_basic () =
  let dev = mem_dev ~block_size:4 () in
  let r1 = Run.of_sorted_array dev [| 1; 5; 9 |] in
  let r2 = Run.of_sorted_array dev [| 2; 5; 20 |] in
  let r3 = Run.of_sorted_array dev [| 0; 30 |] in
  let seen = ref [] in
  let merged = Kway_merge.merge ~observe:(fun i v -> seen := (i, v) :: !seen) dev [ r1; r2; r3 ] in
  Alcotest.(check (array int)) "merged" [| 0; 1; 2; 5; 5; 9; 20; 30 |] (Run.to_array merged);
  Alcotest.(check (list (pair int int)))
    "observe saw everything in order"
    [ (0, 0); (1, 1); (2, 2); (3, 5); (4, 5); (5, 9); (6, 20); (7, 30) ]
    (List.rev !seen)

let test_kway_merge_requires_two () =
  let dev = mem_dev () in
  let r = Run.of_sorted_array dev [| 1 |] in
  Alcotest.check_raises "one run" (Invalid_argument "Kway_merge.merge: need at least two runs")
    (fun () -> ignore (Kway_merge.merge dev [ r ]))

let test_kway_merge_io_is_single_pass () =
  let dev = mem_dev ~block_size:8 () in
  let mk n = Run.of_sorted_array dev (Array.init n (fun i -> i)) in
  let r1 = mk 64 and r2 = mk 64 and r3 = mk 64 in
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  let merged = Kway_merge.merge dev [ r1; r2; r3 ] in
  let c = Io_stats.snapshot stats in
  let in_blocks = Run.nblocks r1 + Run.nblocks r2 + Run.nblocks r3 in
  Alcotest.(check int) "reads = input blocks" in_blocks c.Io_stats.reads;
  Alcotest.(check int) "reads all sequential" c.Io_stats.reads c.Io_stats.seq_reads;
  Alcotest.(check int) "writes = output blocks" (Run.nblocks merged) c.Io_stats.writes

let prop_kway_merge_multiset =
  QCheck.Test.make ~name:"kway merge: sorted, complete multiset" ~count:100
    QCheck.(list_of_size Gen.(2 -- 6) (list_of_size Gen.(1 -- 40) small_int))
    (fun lists ->
      let dev = mem_dev ~block_size:4 () in
      let runs =
        List.map (fun l -> Run.of_sorted_array dev (Array.of_list (List.sort compare l))) lists
      in
      let merged = Kway_merge.merge dev runs in
      let out = Array.to_list (Run.to_array merged) in
      Hsq_util.Sorted.is_sorted (Array.of_list out)
      && List.sort compare out = List.sort compare (List.concat lists))

(* --- Breaker & backoff ---------------------------------------------- *)

let test_backoff_deterministic () =
  let p = { Breaker.Backoff.base_ms = 1.0; cap_ms = 50.0; max_attempts = 6 } in
  let a = Breaker.Backoff.delays p ~seed:42 in
  let b = Breaker.Backoff.delays p ~seed:42 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed, different schedule" true
    (a <> Breaker.Backoff.delays p ~seed:43);
  Alcotest.(check int) "n attempts yield n-1 waits" 5 (Array.length a);
  (* decorrelated jitter: each delay in [base, min (cap, 3 * previous)] *)
  let prev = ref p.Breaker.Backoff.base_ms in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in [%.1f, %.1f]" i p.Breaker.Backoff.base_ms
           (Float.min p.Breaker.Backoff.cap_ms (3.0 *. !prev)))
        true
        (d >= p.Breaker.Backoff.base_ms
        && d <= Float.min p.Breaker.Backoff.cap_ms (3.0 *. !prev));
      prev := d)
    a

let test_backoff_cap_and_edge_policies () =
  (* a tight cap binds every delay *)
  let tight = { Breaker.Backoff.base_ms = 4.0; cap_ms = 5.0; max_attempts = 12 } in
  Array.iter
    (fun d -> Alcotest.(check bool) "cap respected" true (d >= 4.0 && d <= 5.0))
    (Breaker.Backoff.delays tight ~seed:7);
  (* the never-retry policy has the empty schedule: zero sleeps *)
  let once = { Breaker.Backoff.default with Breaker.Backoff.max_attempts = 1 } in
  Alcotest.(check int) "never-retry: no waits" 0 (Array.length (Breaker.Backoff.delays once ~seed:1));
  (* malformed policies are rejected, not silently clamped *)
  Alcotest.check_raises "zero attempts rejected"
    (Invalid_argument "Backoff: max_attempts must be >= 1") (fun () ->
      ignore
        (Breaker.Backoff.delays
           { Breaker.Backoff.default with Breaker.Backoff.max_attempts = 0 }
           ~seed:1));
  Alcotest.check_raises "cap below base rejected"
    (Invalid_argument "Backoff: cap_ms must be >= base_ms") (fun () ->
      ignore
        (Breaker.Backoff.delays
           { Breaker.Backoff.base_ms = 2.0; cap_ms = 1.0; max_attempts = 3 }
           ~seed:1))

(* The full transition table, driven by a fake clock (no sleeping). *)
let test_breaker_transition_table () =
  let clock = ref 0.0 in
  let reg = Hsq_obs.Metrics.create () in
  let b =
    Breaker.create ~metrics:reg ~now:(fun () -> !clock) ~failure_threshold:3 ~cooldown_s:10.0 ()
  in
  let check_state msg expected =
    Alcotest.(check string) msg (Breaker.state_to_string expected)
      (Breaker.state_to_string (Breaker.state b))
  in
  check_state "starts closed" Breaker.Closed;
  Alcotest.(check bool) "closed admits" true (Breaker.allow b);
  (* sub-threshold failures stay closed; a success resets the count *)
  Breaker.failure b;
  Breaker.failure b;
  check_state "two failures stay closed" Breaker.Closed;
  Breaker.success b;
  Breaker.failure b;
  Breaker.failure b;
  check_state "success reset the streak" Breaker.Closed;
  Breaker.failure b;
  check_state "third consecutive failure trips" Breaker.Open;
  Alcotest.(check bool) "open short-circuits" false (Breaker.allow b);
  Alcotest.(check (option (float 0.0))) "gauge reads open" (Some 1.0)
    (Hsq_obs.Metrics.gauge_value reg "hsq_breaker_state");
  (* cooldown elapsed: exactly one half-open trial ticket *)
  clock := 11.0;
  Alcotest.(check bool) "cooldown admits one trial" true (Breaker.allow b);
  check_state "half-open" Breaker.Half_open;
  Alcotest.(check (option (float 0.0))) "gauge reads half-open" (Some 2.0)
    (Hsq_obs.Metrics.gauge_value reg "hsq_breaker_state");
  Alcotest.(check bool) "second trial refused while one is out" false (Breaker.allow b);
  (* trial failure reopens and restarts the cooldown *)
  Breaker.failure b;
  check_state "trial failure reopens" Breaker.Open;
  Alcotest.(check bool) "cooldown restarted" false (Breaker.allow b);
  clock := 22.0;
  Alcotest.(check bool) "new trial after the new cooldown" true (Breaker.allow b);
  Breaker.success b;
  check_state "trial success closes" Breaker.Closed;
  Alcotest.(check (option (float 0.0))) "gauge reads closed" (Some 0.0)
    (Hsq_obs.Metrics.gauge_value reg "hsq_breaker_state");
  (* Closed->Open, Open->Half_open, Half_open->Open, Open->Half_open,
     Half_open->Closed: five transitions so far *)
  Alcotest.(check (option int)) "transitions counted" (Some 5)
    (Hsq_obs.Metrics.counter_value reg "hsq_breaker_transitions_total");
  (* reset: clean slate regardless of state *)
  Breaker.failure b;
  Breaker.failure b;
  Breaker.failure b;
  check_state "trips again" Breaker.Open;
  Breaker.reset b;
  check_state "reset forces closed" Breaker.Closed;
  Alcotest.(check bool) "admits after reset" true (Breaker.allow b)

(* Half-open under contention: when the cooldown expires with many
   threads racing [allow], exactly one wins the trial ticket — the
   others stay short-circuited until that trial resolves.  This is the
   property the serve daemon leans on: a recovering device sees one
   probe, not a thundering herd of concurrent queries. *)
let test_breaker_half_open_race () =
  let clock = ref 0.0 in
  let b = Breaker.create ~now:(fun () -> !clock) ~failure_threshold:1 ~cooldown_s:5.0 () in
  Breaker.failure b;
  Alcotest.(check string) "tripped"
    (Breaker.state_to_string Breaker.Open)
    (Breaker.state_to_string (Breaker.state b));
  clock := 6.0;
  let racers = 16 in
  let barrier = Atomic.make 0 in
  let domains =
    List.init racers (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr barrier;
            while Atomic.get barrier < racers do
              Domain.cpu_relax ()
            done;
            Breaker.allow b))
  in
  let granted = List.filter Fun.id (List.map Domain.join domains) in
  Alcotest.(check int) "exactly one trial ticket" 1 (List.length granted);
  Alcotest.(check string) "half-open while the trial is out"
    (Breaker.state_to_string Breaker.Half_open)
    (Breaker.state_to_string (Breaker.state b));
  (* losers keep losing until the trial resolves; then one success
     closes and everyone is admitted again *)
  Alcotest.(check bool) "no second ticket" false (Breaker.allow b);
  Breaker.success b;
  Alcotest.(check string) "trial success closes"
    (Breaker.state_to_string Breaker.Closed)
    (Breaker.state_to_string (Breaker.state b));
  Alcotest.(check bool) "closed admits all" true (Breaker.allow b)

(* --- Block format and read bookkeeping pins -------------------------- *)

(* The on-disk record of a fixed 256-word payload at block 3: the
   payload words as 8-byte big-endian sign extensions, then the
   checksum word.  The digest and the checksum were taken from the
   device before its codec became one pass, so any change to the
   stored bytes shows here. *)
let pinned_payload =
  Array.init 256 (fun j ->
      match j with
      | 0 -> min_int
      | 1 -> max_int
      | 2 -> 0
      | 3 -> -1
      | _ -> (j * 0x1E3779B97F4A7C15) lxor (j lsl 40))

let test_block_format_pinned () =
  with_dev_file (fun path ->
      let dev = Block_device.create_file ~block_size:256 ~path () in
      let base = Block_device.alloc dev 5 in
      Block_device.write_block dev ~addr:(base + 3) pinned_payload;
      Block_device.close dev;
      let record = 8 * 257 in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "file size" (4 * record) (String.length bytes);
      let r = String.sub bytes (3 * record) record in
      let word i = String.sub r (8 * i) 8 in
      Alcotest.(check string) "min_int" "\xc0\x00\x00\x00\x00\x00\x00\x00" (word 0);
      Alcotest.(check string) "max_int" "\x3f\xff\xff\xff\xff\xff\xff\xff" (word 1);
      Alcotest.(check string) "zero" (String.make 8 '\x00') (word 2);
      Alcotest.(check string) "minus one" (String.make 8 '\xff') (word 3);
      Alcotest.(check string) "checksum word" "2b7ae26dd9db0de7"
        (Printf.sprintf "%Lx" (String.get_int64_be r (8 * 256)));
      Alcotest.(check string) "record digest" "1fdb463820f255a649a91ea021748afd"
        (Digest.to_hex (Digest.string r)))

(* Random payloads written and read back through [read_block] and
   [read_batch], on both backends, with the same read accounting: read
   lone or batched, the same addresses in the same order from the same
   last read count the same reads, sequential and random. *)
let prop_block_roundtrip =
  QCheck.Test.make ~name:"random payloads round-trip on both backends" ~count:60
    QCheck.(pair (int_range 1 300) (list_of_size Gen.(1 -- 6) (small_list int)))
    (fun (block_size, seeds) ->
      let payloads =
        List.map
          (fun s ->
            let s = Array.of_list s in
            Array.init block_size (fun j ->
                if Array.length s = 0 then j else s.(j mod Array.length s) + j))
          seeds
      in
      let n = List.length payloads in
      let check dev =
        let base = Block_device.alloc dev n in
        List.iteri (fun i p -> Block_device.write_block dev ~addr:(base + i) p) payloads;
        let singles = List.init n (fun i -> Block_device.read_block dev ~addr:(base + i)) in
        let blocks = Array.make n [||] in
        (* Reversed, so the batch reads out of address order. *)
        let addrs = Array.init n (fun i -> base + n - 1 - i) in
        (* The same reads lone, then batched, each pass after a read of
           [base], so both start from the same last read. *)
        let measured f =
          ignore (Block_device.read_block dev ~addr:base);
          let r, (c : Io_stats.counters) = Io_stats.measure (Block_device.stats dev) f in
          (r, (c.reads, c.seq_reads, c.rand_reads))
        in
        let (), lone =
          measured (fun () ->
              Array.iter (fun addr -> ignore (Block_device.read_block dev ~addr)) addrs)
        in
        let reads, batched =
          measured (fun () -> Block_device.read_batch (Array.make n dev) addrs blocks ~n)
        in
        reads = n && singles = payloads && Array.to_list blocks = List.rev payloads && lone = batched
      in
      let mem = check (Block_device.create_memory ~block_size ()) in
      let file =
        with_dev_file (fun path ->
            let dev = Block_device.create_file ~block_size ~path () in
            Fun.protect ~finally:(fun () -> Block_device.close dev) (fun () -> check dev))
      in
      mem && file)

(* A seeded sweep of faults through [read_batch]: reads fail on their
   first [k] attempts, [k] from 0 to 3 per address (3 exhausts the
   retries), and some blocks were written [Corrupt], so every read of
   them fails its checksum.  Forty batches of one to four reads, then
   single reads that stay on a failing block until the breaker opens.  The outcomes, the Io_stats counters and the breaker's
   transitions were taken from the device before its codec became one
   pass; both backends must give them. *)
let read_sweep dev =
  let blocks = 24 in
  let mix a = Hsq_util.Splitmix.(next (create (0x5EED + a))) in
  let base = Block_device.alloc dev blocks in
  Block_device.set_injector dev
    (Some
       (fun op ~attempt addr ->
         let h = mix (addr - base) in
         match op with
         | Block_device.Write -> if h / 16 mod 11 = 0 then Some (Block_device.Corrupt h) else None
         | Block_device.Read ->
           let k = match h mod 16 with 0 | 1 -> 1 | 2 -> 2 | 3 -> 3 | _ -> 0 in
           if attempt <= k then Some Block_device.Fail else None));
  let bs = Block_device.block_size dev in
  for a = 0 to blocks - 1 do
    Block_device.write_block dev ~addr:(base + a) (Array.init bs (fun j -> (a * 1000) + j))
  done;
  let stats = Block_device.stats dev in
  Io_stats.reset stats;
  let rng = Hsq_util.Splitmix.create 41 in
  let draw n = Hsq_util.Splitmix.int rng n in
  let outcomes = Buffer.create 64 in
  let batch = ref 0 in
  while !batch < 40 && Block_device.breaker_state dev = Breaker.Closed do
    incr batch;
    let n = 1 + draw 4 in
    let start = draw blocks and stride = [| 1; 2; 5 |].(draw 3) in
    let addrs = Array.init n (fun i -> base + ((start + (i * stride)) mod blocks)) in
    let out = Array.make n [||] in
    (match Block_device.read_batch (Array.make n dev) addrs out ~n with
    | reads -> Printf.bprintf outcomes "%d," reads
    | exception Block_device.Batch_error (i, _) -> Printf.bprintf outcomes "e%d," i)
  done;
  (* Then a block whose reads always fail, until the breaker opens. *)
  let dead = ref 0 in
  while Block_device.breaker_state dev = Breaker.Closed && !batch < 60 do
    incr batch;
    (match Block_device.read_batch [| dev |] [| base + !dead |] [| [||] |] ~n:1 with
    | _ -> incr dead
    | exception Block_device.Batch_error _ -> ());
    dead := !dead mod blocks
  done;
  let c = Io_stats.snapshot stats in
  let transitions () =
    Option.value ~default:(-1)
      (Hsq_obs.Metrics.counter_value (Io_stats.registry stats) "hsq_breaker_transitions_total")
  in
  let opened = transitions () in
  let state = Breaker.state_to_string (Block_device.breaker_state dev) in
  Block_device.set_injector dev None;
  Printf.sprintf "%s reads=%d seq=%d rand=%d retries=%d checksum_failures=%d state=%s transitions=%d/%d"
    (Buffer.contents outcomes) c.Io_stats.reads c.Io_stats.seq_reads c.Io_stats.rand_reads
    c.Io_stats.retries c.Io_stats.checksum_failures state opened (transitions ())

let test_read_bookkeeping_pinned () =
  let mem = read_sweep (Block_device.create_memory ~block_size:16 ()) in
  let file =
    with_dev_file (fun path ->
        let dev = Block_device.create_file ~block_size:16 ~path () in
        Fun.protect ~finally:(fun () -> Block_device.close dev) (fun () -> read_sweep dev))
  in
  let pinned =
    "3,3,1,e1,2,4,1,e0,1,3,1,3,1,4,3,4,2,e1,2,2,e1,4,e0,2,1,2,2,e0,1,1,e1,e0,3,4,2,e3,4,e0,e0,e0, \
     reads=85 seq=22 rand=63 retries=60 checksum_failures=10 state=open transitions=1/2"
  in
  Alcotest.(check string) "memory backend" pinned mem;
  Alcotest.(check string) "file backend" pinned file

(* The store files a seeded durable engine leaves — twelve steps of
   3,000 values (the eleventh commit runs one level merge at kappa 10)
   and 1,000 values of an open step, closed cleanly — and the exact
   bytes of single WAL records.  Every digest and record was taken from
   the encoder and level merge before they were rewritten to allocate
   nothing per element, so any change to the bytes on disk shows here. *)
let test_store_files_pinned () =
  let dir = Filename.temp_file "hsq_pins" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let config =
        Hsq.Config.make ~kappa:10 ~block_size:256 ~wal_dir:dir
          ~wal_sync:(Wal.Group 1_000) (Hsq.Config.Epsilon 0.01)
      in
      let eng, _ = Hsq.Engine.open_or_recover config in
      let rng = Hsq_util.Xoshiro.create 41 in
      let value () =
        match Hsq_util.Xoshiro.int rng 1_000 with
        | 0 -> min_int
        | 1 -> max_int
        | _ -> Hsq_util.Xoshiro.int rng 2_000_000 - 1_000_000
      in
      for _ = 1 to 12 do
        for _ = 1 to 3_000 do
          Hsq.Engine.observe eng (value ())
        done;
        ignore (Hsq.Engine.end_time_step eng)
      done;
      Hsq.Engine.observe_batch eng (Array.init 1_000 (fun _ -> value ()));
      Alcotest.(check int) "one merged partition and one fresh one" 2
        (Hsq_hist.Level_index.partition_count (Hsq.Engine.hist eng));
      Hsq.Engine.close eng;
      let digest name = Digest.to_hex (Digest.file (file name)) in
      Alcotest.(check string) "device.blocks" "4148dd4237942e2d68e5e7789fe9b4d5" (digest "device.blocks");
      Alcotest.(check string) "wal.log" "d7250b369d16b5122e341af3a5acd0dd" (digest "wal.log");
      Alcotest.(check string) "meta" "98cd121e9c4c5ea1894f69a3213903c8" (digest "meta");
      (* One record per append path: a run, one observe, one [append]. *)
      let path = file "records.wal" in
      let wal = Wal.create ~stats:(Io_stats.create ()) ~path ~start_seq:7 () in
      Wal.append_observes wal [| min_int; max_int |];
      Wal.append_observe wal 0;
      ignore (Wal.append wal (Wal.Observe (-1)));
      ignore (Wal.append wal (Wal.End_step { step = 12; count = 36_000 }));
      Wal.close wal;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let hex off len =
        String.concat ""
          (List.init len (fun i -> Printf.sprintf "%02x" (Char.code bytes.[off + i])))
      in
      Alcotest.(check int) "header, four observes, one marker" (24 + (4 * 40) + 48)
        (String.length bytes);
      List.iteri
        (fun i (what, pinned) -> Alcotest.(check string) what pinned (hex (24 + (40 * i)) 40))
        [
          ( "observe min_int",
            "000000000000000400000000000000070000000000000001c000000000000000fd86c62b6ef6dc3c" );
          ( "observe max_int",
            "0000000000000004000000000000000800000000000000013fffffffffffffff2d0ebea822260e7d" );
          ( "observe 0",
            "0000000000000004000000000000000900000000000000010000000000000000f7ff2611d0fbfe7e" );
          ( "observe -1",
            "0000000000000004000000000000000a0000000000000001ffffffffffffffff351d2d53adc36016" );
        ];
      Alcotest.(check string) "end-step"
        ("0000000000000005000000000000000b0000000000000002000000000000000c"
        ^ "0000000000008ca02098dfdddd958078")
        (hex (24 + 160) 48))

let () =
  Alcotest.run "storage"
    [
      ( "io_stats",
        [
          Alcotest.test_case "classification" `Quick test_io_stats_classification;
          Alcotest.test_case "measure/diff/add" `Quick test_io_stats_measure_and_diff;
        ] );
      ( "block_device",
        [
          Alcotest.test_case "roundtrip" `Quick test_device_roundtrip;
          Alcotest.test_case "bad payload" `Quick test_device_bad_payload;
          Alcotest.test_case "unallocated" `Quick test_device_unallocated;
          Alcotest.test_case "free / live accounting" `Quick test_device_free_and_live;
          Alcotest.test_case "fault injection" `Quick test_device_fault_injection;
          Alcotest.test_case "file backend" `Quick test_file_backend_roundtrip;
        ] );
      ( "fault_tolerance",
        [
          Alcotest.test_case "transient fault absorbed by retries" `Quick
            test_transient_fault_absorbed;
          Alcotest.test_case "persistent fault exhausts retries" `Quick
            test_persistent_fault_exhausts_retries;
          Alcotest.test_case "corrupt write caught by checksum" `Quick test_corrupt_write_detected;
          Alcotest.test_case "torn write caught + rewrite heals" `Quick test_torn_write_detected;
          Alcotest.test_case "reopen floors a trailing tear" `Quick
            test_file_reopen_tolerates_trailing_tear;
          Alcotest.test_case "at-rest bit rot caught by checksum" `Quick
            test_file_bit_rot_detected;
          Alcotest.test_case "batch read order and wait" `Quick test_read_batch_order_and_wait;
          Alcotest.test_case "waits never end early" `Quick test_device_wait_lower_bounds;
          Alcotest.test_case "a signal does not cut a wait" `Quick test_device_wait_survives_signals;
        ] );
      ( "verified decode",
        [
          Alcotest.test_case "read_sealed matches the reference fold" `Quick
            test_read_sealed_reference;
        ] );
      ( "bit 63",
        [
          Alcotest.test_case "device payload word" `Quick (device_bit63_case 1);
          Alcotest.test_case "device checksum word" `Quick (device_bit63_case 4);
          Alcotest.test_case "WAL record word" `Quick test_wal_bit63_torn;
        ] );
      ( "file_reads",
        [
          Alcotest.test_case "reads stay off the major heap" `Quick test_file_read_allocation;
          Alcotest.test_case "two domains read exact payloads" `Quick test_file_concurrent_reads;
          Alcotest.test_case "truncated tail is a short read" `Quick test_file_truncated_tail;
          Alcotest.test_case "truncated tail is a short read in a batch" `Quick
            test_file_truncated_tail_batch;
          Alcotest.test_case "torn write, rewrite, read" `Quick test_file_torn_then_rewrite;
          Alcotest.test_case "closed device" `Quick test_file_closed_device;
        ] );
      ( "pins",
        [
          Alcotest.test_case "block format" `Quick test_block_format_pinned;
          Alcotest.test_case "read bookkeeping" `Quick test_read_bookkeeping_pinned;
          Alcotest.test_case "store files and WAL records" `Quick test_store_files_pinned;
          QCheck_alcotest.to_alcotest prop_block_roundtrip;
        ] );
      ( "run",
        [
          Alcotest.test_case "roundtrip + padding" `Quick test_run_roundtrip_and_padding;
          Alcotest.test_case "rejects unsorted/empty" `Quick test_run_rejects_unsorted;
          Alcotest.test_case "rank" `Quick test_run_rank;
          Alcotest.test_case "block cache" `Quick test_run_block_cache;
          Alcotest.test_case "rank_between io bound" `Quick test_run_rank_between_io_bound;
          Alcotest.test_case "rank_between read bound" `Quick test_run_rank_between_read_bound;
          Alcotest.test_case "rank_between anchored read bound" `Quick
            test_run_rank_between_anchored_read_bound;
          Alcotest.test_case "rank_between guided on even spacing" `Quick
            test_run_guided_even_spacing;
          Alcotest.test_case "search anchors track the window" `Quick test_run_anchor_invariant;
          Alcotest.test_case "framed search follows a bisection" `Quick test_run_framed_search;
          Alcotest.test_case "writer" `Quick test_run_writer_matches_of_sorted_array;
          Alcotest.test_case "writer validation" `Quick test_run_writer_validation;
          Alcotest.test_case "cursor" `Quick test_run_cursor;
          Alcotest.test_case "free" `Quick test_run_free;
        ] );
      ( "kway_merge",
        [
          Alcotest.test_case "basic + observe" `Quick test_kway_merge_basic;
          Alcotest.test_case "requires two runs" `Quick test_kway_merge_requires_two;
          Alcotest.test_case "single pass io" `Quick test_kway_merge_io_is_single_pass;
          QCheck_alcotest.to_alcotest prop_kway_merge_multiset;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
          Alcotest.test_case "backoff cap and edge policies" `Quick
            test_backoff_cap_and_edge_policies;
          Alcotest.test_case "transition table" `Quick test_breaker_transition_table;
          Alcotest.test_case "half-open race grants one ticket" `Quick
            test_breaker_half_open_race;
        ] );
    ]
