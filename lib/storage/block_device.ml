(* A simulated block device.

   The paper evaluates against a real disk with 100 KB blocks and reports
   costs as numbers of block accesses.  Simulating the device keeps those
   counts exact and deterministic (see DESIGN.md, "Substitutions").  Two
   backends share the interface: an in-memory store used by tests and
   benches, and a file-backed store that persists blocks as fixed-size
   records of 8-byte big-endian words ([Word], the WAL's codec too).

   Fault tolerance (DESIGN.md, "Fault model & recovery"):
   - every block carries a checksum word, stored after the payload and
     verified on every read, so bit rot and torn writes surface as
     [Device_error] instead of wrong answers; a word no writer produced
     (bit 63 unlike bit 62, which the checksum over decoded ints cannot
     see) fails the same way;
   - reads go through a bounded-retry path, absorbing transient faults;
     extra attempts are counted in {!Io_stats} ([retries],
     [checksum_failures]);
   - a structured fault injector can fail operations, tear writes (a
     partial write followed by a simulated crash), or silently corrupt a
     written word — the ingredients of the crash-recovery fuzz harness.

   Wait model: with a simulated [read_latency], a lone read asks to
   wait it in full.  A batch read ([read_batch], one probe round of an
   accurate query) issues its reads one after another with all of the
   above bookkeeping, then asks for one [read_latency] for all of them
   — the reads were queued on the device together — with no threads or
   domains involved.  The wait is one [Unix.sleepf], which oversleeps:
   asked for 200 µs it returns after 257–268 µs (p10–p90; the
   process's timer slack is 50 µs), so at 200 µs a probe round costs
   about 280 µs with its reads' CPU, not 200 (EXPERIMENTS.md,
   "Accurate path CPU"). *)

exception Device_error of string

type op = Read | Write

type fault_action =
  | Fail (* the operation raises Device_error without touching the device *)
  | Torn of int (* write: only the first k payload words land, the checksum
                   word is not updated, and Device_error is raised — a
                   crash in the middle of a block write *)
  | Corrupt of int (* write: completes normally, but the stored word at
                      [index mod block_size] has its low bit flipped after
                      the checksum was computed — latent bit rot *)

type injector = op -> attempt:int -> int -> fault_action option

(* The file backend talks to the kernel through one read-write
   descriptor and one reused record-sized buffer: a block read or write
   is one positioned syscall ([pread]/[pwrite], C stubs in
   block_io_stubs.c) at the record's offset, never a seek, and
   allocates nothing but the decoded payload.  A record above 256 words
   would go straight to the major heap, so reads decode into the
   [block_size]-word payload and verify the checksum word in the same
   pass instead of building the whole record. *)
type file = {
  fd : Unix.file_descr;
  buf : Bytes.t; (* one record, reused under [io_lock] by reads and writes *)
  path : string;
  mutable closed : bool; (* under [io_lock]: a closed descriptor's number may be reused *)
}

type backend =
  | Memory of int array option array ref (* growable table of stored records *)
  | File of file

(* Domain-safety: reads may be issued from several domains at once.  A
   positioned read or write leaves the descriptor's offset alone, so
   [io_lock] guards only what they share: the record buffer, which each
   read decodes and each write encodes under it, and the [closed] flag,
   so no syscall meets a descriptor number closed and reused
   meanwhile.  Allocation, writes, frees and batch reads stay
   single-domain by contract: the engine never ingests and queries
   concurrently. *)
type t = {
  block_size : int;
  stats : Io_stats.t;
  mutable next_free : int;
  mutable freed_blocks : int; (* capacity-accounting for dropped partitions *)
  backend : backend;
  mutable fault : injector option;
  io_lock : Mutex.t;
  mutable read_latency : float; (* simulated seconds per physical block read *)
  mutable batch_reads : int; (* physical reads of the batch in progress, awaiting its wait *)
  breaker : Breaker.t; (* trips after consecutive unrecoverable read faults *)
  (* Metric handles resolved once at creation so the read paths never
     touch the registry's lock/table. *)
  read_hist : Hsq_obs.Metrics.Histogram.t;
}

(* The read-latency histogram lives in the same registry as the
   Io_stats counters. *)
let device_read_hist stats =
  Hsq_obs.Metrics.histogram ~help:"Caller wait per physical block read or read batch"
    (Io_stats.registry stats) "hsq_device_read_seconds"

(* The breaker registers its hsq_breaker_* metrics in the same registry
   as everything else the device exports. *)
let device_breaker stats = Breaker.create ~metrics:(Io_stats.registry stats) ()

let block_size t = t.block_size
let stats t = t.stats
let allocated_blocks t = t.next_free
let live_blocks t = t.next_free - t.freed_blocks

(* The stored record is the payload plus one trailing checksum word. *)
let record_bytes block_size = 8 * (block_size + 1)

(* Retry policy: a failed read is retried at once, with no backoff, up
   to [max_read_attempts] attempts in all. *)
let max_read_attempts = Breaker.Backoff.default.Breaker.Backoff.max_attempts

(* A block's checksum is the {!Word.mix} fold of its payload, seeded
   with its address, so a record written to the wrong block fails too. *)
let checksum_seed addr = Word.mix Word.checksum_seed addr

let make ?metrics ~block_size ~next_free backend =
  let stats = Io_stats.create ?registry:metrics () in
  let read_hist = device_read_hist stats in
  {
    block_size;
    stats;
    next_free;
    freed_blocks = 0;
    backend;
    fault = None;
    io_lock = Mutex.create ();
    read_latency = 0.0;
    batch_reads = 0;
    breaker = device_breaker stats;
    read_hist;
  }

let create_memory ?metrics ~block_size () =
  if block_size <= 0 then invalid_arg "Block_device.create_memory: block_size must be positive";
  make ?metrics ~block_size ~next_free:0 (Memory (ref (Array.make 64 None)))

(* File-system failures surface as [Sys_error] with the kernel's
   message, which the shard layer catches (a full disk, a vanished
   store). *)
let sys_error ?path err =
  let msg = Unix.error_message err in
  raise (Sys_error (match path with Some p -> p ^ ": " ^ msg | None -> msg))

let open_fd ~block_size ~path flags =
  let fd =
    try Unix.openfile path (Unix.O_RDWR :: Unix.O_CLOEXEC :: flags) 0o644
    with Unix.Unix_error (err, _, _) -> sys_error ~path err
  in
  { fd; buf = Bytes.create (record_bytes block_size); path; closed = false }

let create_file ?metrics ~block_size ~path () =
  if block_size <= 0 then invalid_arg "Block_device.create_file: block_size must be positive";
  make ?metrics ~block_size ~next_free:0
    (File (open_fd ~block_size ~path [ Unix.O_CREAT; Unix.O_TRUNC ]))

(* Reopen an existing device file: allocation resumes after the blocks
   already on disk, so restored runs can be read back.  A trailing
   partial record (a write torn by a crash) is ignored: committed
   metadata never references blocks past the last checkpoint, and the
   bump allocator will write past the tear.  This is the storage half of
   crash recovery — see Meta.restore for the metadata half. *)
let open_file ?metrics ~block_size ~path () =
  if block_size <= 0 then invalid_arg "Block_device.open_file: block_size must be positive";
  if not (Sys.file_exists path) then
    raise (Device_error (Printf.sprintf "no device file at %s" path));
  let f = open_fd ~block_size ~path [] in
  let size =
    try (Unix.fstat f.fd).Unix.st_size
    with Unix.Unix_error (err, _, _) ->
      (try Unix.close f.fd with Unix.Unix_error _ -> ());
      sys_error ~path err
  in
  make ?metrics ~block_size ~next_free:(size / record_bytes block_size) (File f)

external pread : Unix.file_descr -> Bytes.t -> int -> int -> int -> int = "hsq_pread"
external pwrite : Unix.file_descr -> Bytes.t -> int -> int -> int -> int = "hsq_pwrite"

(* Take [io_lock] on an open file.  The record paths lock and unlock by
   hand rather than through [Mutex.protect], so a read allocates no
   closure; [release] unlocks on their way out with an exception, Unix
   errors surfacing as [Sys_error] (see [sys_error]). *)
let lock_file t file =
  Mutex.lock t.io_lock;
  if file.closed then begin
    Mutex.unlock t.io_lock;
    raise (Sys_error "Bad file descriptor")
  end

let release t = function
  | Unix.Unix_error (err, _, _) ->
    Mutex.unlock t.io_lock;
    sys_error err
  | e ->
    Mutex.unlock t.io_lock;
    raise e

let close t =
  match t.backend with
  | Memory _ -> ()
  | File file ->
    Mutex.protect t.io_lock (fun () ->
        if not file.closed then begin
          file.closed <- true;
          try Unix.close file.fd with Unix.Unix_error (err, _, _) -> sys_error ~path:file.path err
        end)

let path t = match t.backend with Memory _ -> None | File { path; _ } -> Some path

(* Replacing the injector resets the breaker: the simulated hardware
   just changed, so the accumulated evidence against it no longer
   applies.  (Tests heal a device by clearing its injector and expect
   the very next query to succeed un-degraded.) *)
let set_injector t injector =
  t.fault <- injector;
  Breaker.reset t.breaker

let breaker t = t.breaker
let breaker_state t = Breaker.state t.breaker

let injected t op ~attempt addr =
  match t.fault with None -> None | Some f -> f op ~attempt addr

(* Simulated per-read device latency (seconds), applied to every
   physical block read, outside any lock.  The reads of one
   [read_batch] share a single wait, like requests queued on a real
   disk or network volume at once.  Zero (the default) keeps tests and
   the existing cost model untouched. *)
let set_read_latency t seconds = t.read_latency <- Float.max 0.0 seconds

let apply_read_latency t = if t.read_latency > 0.0 then Unix.sleepf t.read_latency

let alloc t nblocks =
  if nblocks < 0 then invalid_arg "Block_device.alloc: negative block count";
  let addr = t.next_free in
  t.next_free <- t.next_free + nblocks;
  (match t.backend with
  | Memory table ->
    let needed = t.next_free in
    if needed > Array.length !table then begin
      let capacity = max needed (2 * Array.length !table) in
      let bigger = Array.make capacity None in
      Array.blit !table 0 bigger 0 (Array.length !table);
      table := bigger
    end
  | File _ -> ());
  addr

(* Marks blocks as reclaimable.  The simulator does not recycle
   addresses (simpler and irrelevant for I/O counting); it only tracks
   live capacity so benches can report space usage.  On the file backend
   the bytes stay physically intact — the invariant the merge commit
   protocol relies on: partitions freed after an uncheckpointed merge
   are still readable when Meta.restore rolls the merge back. *)
let free t ~addr ~nblocks =
  if addr < 0 || addr + nblocks > t.next_free then invalid_arg "Block_device.free: out of range";
  t.freed_blocks <- t.freed_blocks + nblocks;
  match t.backend with
  | Memory table -> for b = addr to addr + nblocks - 1 do !table.(b) <- None done
  | File _ -> ()

(* Store one record: the first [upto] payload words and, only when the
   whole payload lands, the checksum word (a torn write stops short of
   it).  One pass stores each word and folds it into the checksum.  Word
   [flip] is stored with its low bit flipped after it was summed — bit
   rot after the checksum was computed; -1 flips nothing. *)
let store_record t ~addr payload ~upto ~flip =
  let bs = t.block_size and seed = checksum_seed addr in
  match t.backend with
  | Memory table ->
    let stored =
      match !table.(addr) with
      (* Torn write: new prefix over whatever was there before. *)
      | Some prev when upto < bs -> Array.copy prev
      | _ -> Array.make (bs + 1) 0
    in
    let h = ref seed in
    for j = 0 to upto - 1 do
      let v = payload.(j) in
      h := Word.mix !h v;
      stored.(j) <- (if j = flip then v lxor 1 else v)
    done;
    if upto = bs then stored.(bs) <- !h;
    !table.(addr) <- Some stored
  | File ({ fd; buf; _ } as file) -> (
    let len = 8 * if upto = bs then bs + 1 else upto in
    lock_file t file;
    match
      let sum = Word.write_sealed buf ~off:0 payload ~upto ~flip ~seed in
      if upto = bs then Word.set buf (8 * bs) sum;
      if pwrite fd buf 0 len (addr * Bytes.length buf) < len then
        raise (Device_error (Printf.sprintf "short write at block %d" addr))
    with
    | () -> Mutex.unlock t.io_lock
    | exception e -> release t e)

let write_block t ~addr payload =
  if Array.length payload <> t.block_size then
    invalid_arg "Block_device.write_block: payload must be exactly one block";
  if addr < 0 || addr >= t.next_free then invalid_arg "Block_device.write_block: unallocated address";
  match injected t Write ~attempt:1 addr with
  | Some Fail -> raise (Device_error (Printf.sprintf "injected write fault at block %d" addr))
  | Some (Torn k) ->
    let k = max 0 (min (t.block_size - 1) k) in
    store_record t ~addr payload ~upto:k ~flip:(-1);
    raise (Device_error (Printf.sprintf "torn write at block %d (%d of %d words)" addr k t.block_size))
  | (None | Some (Corrupt _)) as action ->
    Io_stats.note_write t.stats addr;
    let flip = match action with Some (Corrupt i) -> i mod t.block_size | _ -> -1 in
    store_record t ~addr payload ~upto:t.block_size ~flip

(* Fetch [addr] into [payload] and verify it in the same pass: true when
   its checksum word matches and, on the file backend, every word is a
   sign extension (a word no writer produced counts as a checksum
   failure).  Raises on unwritten/freed/short blocks: structural errors,
   never retried.  The file backend decodes straight from the reused
   record buffer ({!Word.read_sealed}). *)
let fetch_verified t ~addr payload =
  let bs = t.block_size and seed = checksum_seed addr in
  match t.backend with
  | Memory table -> (
    match !table.(addr) with
    | Some record ->
      let h = ref seed in
      for j = 0 to bs - 1 do
        let v = record.(j) in
        payload.(j) <- v;
        h := Word.mix !h v
      done;
      record.(bs) = !h
    | None -> raise (Device_error (Printf.sprintf "read of unwritten or freed block %d" addr)))
  | File ({ fd; buf; _ } as file) -> (
    let nbytes = Bytes.length buf in
    lock_file t file;
    match
      if pread fd buf 0 nbytes (addr * nbytes) < nbytes then
        raise (Device_error (Printf.sprintf "short read at block %d" addr));
      Word.read_sealed buf payload ~len:bs ~seed
    with
    | ok ->
      Mutex.unlock t.io_lock;
      ok
    | exception e -> release t e)

(* Bounded-retry read: injected faults and checksum mismatches are
   retried up to [max_read_attempts] times (each extra attempt is
   counted in Io_stats.retries); structural errors raise immediately.

   The circuit breaker wraps the whole retry loop: while it is open,
   reads short-circuit without touching the device (bounded tail
   latency when the device as a whole is down); exhausting the retry
   schedule reports an unrecoverable fault, a good read reports
   success.  Structural errors (unwritten/freed/short blocks) are the
   device answering correctly about its own state, so they count as
   breaker successes, not failures.

   A [batched] read defers its simulated wait and latency observation
   to the batch ([read_batch]) and only counts itself in
   [batch_reads].  Every read returns a freshly decoded array, which
   each attempt overwrites.

   The attempt loop is top-level functions, and a healthy breaker
   (Closed, no failure counted) answers [allow] and [success] from one
   atomic without its lock, so a read on a healthy device allocates no
   closure. *)

(* One attempt's device work: count the read, wait its latency (a
   batched read joins its batch's), then fetch and verify. *)
let fetch_counted ?hint ~batched t ~addr payload =
  Io_stats.note_read ?hint t.stats addr;
  if batched then begin
    t.batch_reads <- t.batch_reads + 1;
    fetch_verified t ~addr payload
  end
  else begin
    let t0 = Hsq_obs.Metrics.now_s () in
    apply_read_latency t;
    let ok = fetch_verified t ~addr payload in
    Hsq_obs.Metrics.Histogram.observe t.read_hist (Hsq_obs.Metrics.now_s () -. t0);
    ok
  end

let rec attempt ?hint ~batched t ~addr payload n =
  match injected t Read ~attempt:n addr with
  | Some _ ->
    retry ?hint ~batched t ~addr payload n
      (Device_error (Printf.sprintf "injected read fault at block %d (attempt %d)" addr n))
  | None -> (
    match fetch_counted ?hint ~batched t ~addr payload with
    | true ->
      Breaker.success t.breaker;
      payload
    | false ->
      Io_stats.note_checksum_failure t.stats;
      retry ?hint ~batched t ~addr payload n
        (Device_error (Printf.sprintf "checksum mismatch at block %d" addr))
    | exception e ->
      (* Not evidence against device health, but a half-open trial
         ticket must still be released. *)
      Breaker.success t.breaker;
      raise e)

and retry ?hint ~batched t ~addr payload n e =
  if n < max_read_attempts then begin
    Io_stats.note_retry t.stats;
    attempt ?hint ~batched t ~addr payload (n + 1)
  end
  else begin
    Breaker.failure t.breaker;
    raise e
  end

let read_block_uncached ?hint ~batched t ~addr =
  if addr < 0 || addr >= t.next_free then invalid_arg "Block_device.read_block: unallocated address";
  if Breaker.allow t.breaker then
    attempt ?hint ~batched t ~addr (Array.make t.block_size 0) 1
  else
    raise
      (Device_error
         (Printf.sprintf "circuit breaker open: read of block %d short-circuited" addr))

let read_block ?hint t ~addr = read_block_uncached ?hint ~batched:false t ~addr

exception Batch_error of int * string

(* A batch is read in index order on the calling thread, each read with
   its full bookkeeping (breaker, injector and retries, Io_stats,
   checksum), and stops at the first unrecoverable one.  Only the
   simulated wait is shared: once the reads are issued, the caller
   waits the longest [read_latency] among the devices they reached —
   once, as for requests queued on a device together — and each such
   device records that whole wait as one [hsq_device_read_seconds]
   observation.  A batch that reached no device (an open breaker)
   waits nothing and records nothing. *)
let settle_batch devs ~n t0 =
  let wait = ref 0.0 in
  for i = 0 to n - 1 do
    if devs.(i).batch_reads > 0 then wait := Float.max !wait devs.(i).read_latency
  done;
  if !wait > 0.0 then Unix.sleepf !wait;
  let waited = Hsq_obs.Metrics.now_s () -. t0 in
  let reads = ref 0 in
  for i = 0 to n - 1 do
    let d = devs.(i) in
    if d.batch_reads > 0 then begin
      reads := !reads + d.batch_reads;
      d.batch_reads <- 0;
      Hsq_obs.Metrics.Histogram.observe d.read_hist waited
    end
  done;
  !reads

let rec issue devs addrs blocks ~n i =
  if i < n then begin
    (match read_block_uncached ~batched:true devs.(i) ~addr:addrs.(i) with
    | block -> blocks.(i) <- block
    | exception Device_error msg -> raise (Batch_error (i, msg)));
    issue devs addrs blocks ~n (i + 1)
  end

let read_batch devs addrs blocks ~n =
  let t0 = Hsq_obs.Metrics.now_s () in
  match issue devs addrs blocks ~n 0 with
  | () -> settle_batch devs ~n t0
  | exception e ->
    ignore (settle_batch devs ~n t0);
    raise e
