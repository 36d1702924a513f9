(* Per-device I/O accounting.  The paper's cost model counts disk block
   accesses and distinguishes the cheap sequential I/Os used by loading
   and merging from the expensive random I/Os used by queries
   (Section 2.4).  A read is classified as sequential when it targets the
   block immediately after the previously read one.

   Fault-tolerance accounting rides along: [retries] counts extra read
   attempts made by the device's bounded-retry path and
   [checksum_failures] counts blocks whose embedded checksum did not
   match on read.  Both stay zero on a healthy device, so the paper's
   block-access counts are unchanged.

   Durable-ingest accounting (the WAL half of the fault model):
   [wal_appends] counts records appended to the write-ahead log,
   [wal_syncs] counts physical flushes of the log, [wal_replayed] counts
   records re-applied during recovery.  All three stay zero when
   durability is off, so block-access counts are again unperturbed.
   [checkpoints_written] is a compatibility field for readers written
   when the engine took sketch checkpoints: it always reads 0.

   Since the observability PR this module is registry-backed: each of
   the nine counters lives in an [Hsq_obs.Metrics] registry under its
   Prometheus name (hsq_io_... / hsq_wal_...), so `hsq metrics` and the bench
   smoke rows export them without a second accounting path.  The record
   interface, lock discipline, and exactness guarantees are unchanged.
   The stats object doubles as the observability hub for everything that
   already reaches it (WAL, level index, device, engine): it carries the
   registry and an optional [Trace.t] the instrumented call sites pick
   up. *)

module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace

type counters = {
  reads : int;
  seq_reads : int;
  rand_reads : int;
  writes : int;
  retries : int;
  checksum_failures : int;
  wal_appends : int;
  wal_syncs : int;
  wal_replayed : int;
  checkpoints_written : int;
}

(* Counters are guarded by a per-record mutex so several domains reading
   one device at once can account their reads without tearing, and —
   crucially for [snapshot] — so the nine values are mutually consistent:
   every [note_*] mutation that moves several counters, and every
   [snapshot] read, runs under the same lock, so a snapshot can never
   observe a half-applied note (e.g. [reads] bumped but its seq/rand
   classification not yet).  The lock is
   uncontended in single-domain use, so the cost is a few ns per note.
   Sequential/random classification still keys off the single shared
   [last_read_addr], so under concurrent readers the seq/rand split
   depends on interleaving order — totals are exact either way.

   The individual cells are registry counters (atomics underneath); the
   registry exporters read them without this lock, so an export sees
   each counter atomically but not necessarily a mutually consistent
   set — that stronger guarantee is what [snapshot] is for. *)
type t = {
  reads : Metrics.Counter.t;
  seq_reads : Metrics.Counter.t;
  rand_reads : Metrics.Counter.t;
  writes : Metrics.Counter.t;
  retries : Metrics.Counter.t;
  checksum_failures : Metrics.Counter.t;
  wal_appends : Metrics.Counter.t;
  wal_syncs : Metrics.Counter.t;
  wal_replayed : Metrics.Counter.t;
  mutable last_read_addr : int;
  lock : Mutex.t;
  registry : Metrics.t;
  mutable trace : Trace.t option;
}

(* Two devices sharing one registry share these counters (registration
   is idempotent by name) — aggregate accounting, which is what the
   single-device CLI wants.  Tests that need isolated counts create
   stats with the default fresh registry. *)
let create ?registry () =
  let registry = match registry with Some r -> r | None -> Metrics.create () in
  let c name help = Metrics.counter ~help registry name in
  {
    reads = c "hsq_io_reads_total" "Total block reads";
    seq_reads = c "hsq_io_seq_reads_total" "Reads at previous address + 1";
    rand_reads = c "hsq_io_rand_reads_total" "Non-sequential reads";
    writes = c "hsq_io_writes_total" "Total block writes";
    retries = c "hsq_io_retries_total" "Extra read attempts by the retry path";
    checksum_failures = c "hsq_io_checksum_failures_total" "Blocks whose checksum mismatched";
    wal_appends = c "hsq_wal_appends_total" "Records appended to the write-ahead log";
    wal_syncs = c "hsq_wal_syncs_total" "Physical flushes of the write-ahead log";
    wal_replayed = c "hsq_wal_replayed_total" "WAL records re-applied during recovery";
    last_read_addr = min_int;
    lock = Mutex.create ();
    registry;
    trace = None;
  }

let registry t = t.registry
let tracer t = t.trace
let set_tracer t tr = t.trace <- tr

(* Release the mutex even if [f] raises — a leaked lock here would
   deadlock every subsequent stats call from any domain. *)
let locked t f = Mutex.protect t.lock f

let reset t =
  locked t (fun () ->
      Metrics.Counter.set t.reads 0;
      Metrics.Counter.set t.seq_reads 0;
      Metrics.Counter.set t.rand_reads 0;
      Metrics.Counter.set t.writes 0;
      Metrics.Counter.set t.retries 0;
      Metrics.Counter.set t.checksum_failures 0;
      Metrics.Counter.set t.wal_appends 0;
      Metrics.Counter.set t.wal_syncs 0;
      Metrics.Counter.set t.wal_replayed 0;
      t.last_read_addr <- min_int)

(* [hint] overrides the adjacency heuristic: a k-way merge interleaves
   reads of several runs, but on a real disk each run is consumed through
   a sequential readahead buffer, so those reads are sequential.  Every
   block read notes here, so it takes the lock by hand and allocates no
   closure; nothing inside can raise. *)
let note_read ?hint t addr =
  Mutex.lock t.lock;
  Metrics.Counter.add t.reads 1;
  let sequential = match hint with Some s -> s | None -> addr = t.last_read_addr + 1 in
  Metrics.Counter.add (if sequential then t.seq_reads else t.rand_reads) 1;
  t.last_read_addr <- addr;
  Mutex.unlock t.lock

let note_write t _addr = locked t (fun () -> Metrics.Counter.inc t.writes)
let note_retry t = locked t (fun () -> Metrics.Counter.inc t.retries)
let note_checksum_failure t = locked t (fun () -> Metrics.Counter.inc t.checksum_failures)
(* Once per WAL append call, so once per element on the one-element
   observe path, and the one note taken without the lock: no other
   counter moves with [wal_appends], so its atomic increment alone keeps
   every snapshot consistent (a snapshot reads it once, before or after
   the increment). *)
let note_wal_appends t n = Metrics.Counter.add t.wal_appends n
let note_wal_sync t = locked t (fun () -> Metrics.Counter.inc t.wal_syncs)
let note_wal_replayed t n = locked t (fun () -> Metrics.Counter.inc ~by:n t.wal_replayed)

let snapshot t : counters =
  Mutex.lock t.lock;
  let c : counters =
    {
      reads = Metrics.Counter.value t.reads;
      seq_reads = Metrics.Counter.value t.seq_reads;
      rand_reads = Metrics.Counter.value t.rand_reads;
      writes = Metrics.Counter.value t.writes;
      retries = Metrics.Counter.value t.retries;
      checksum_failures = Metrics.Counter.value t.checksum_failures;
      wal_appends = Metrics.Counter.value t.wal_appends;
      wal_syncs = Metrics.Counter.value t.wal_syncs;
      wal_replayed = Metrics.Counter.value t.wal_replayed;
      checkpoints_written = 0;
    }
  in
  Mutex.unlock t.lock;
  c

let zero : counters =
  {
    reads = 0;
    seq_reads = 0;
    rand_reads = 0;
    writes = 0;
    retries = 0;
    checksum_failures = 0;
    wal_appends = 0;
    wal_syncs = 0;
    wal_replayed = 0;
    checkpoints_written = 0;
  }

let diff (after : counters) (before : counters) : counters =
  {
    reads = after.reads - before.reads;
    seq_reads = after.seq_reads - before.seq_reads;
    rand_reads = after.rand_reads - before.rand_reads;
    writes = after.writes - before.writes;
    retries = after.retries - before.retries;
    checksum_failures = after.checksum_failures - before.checksum_failures;
    wal_appends = after.wal_appends - before.wal_appends;
    wal_syncs = after.wal_syncs - before.wal_syncs;
    wal_replayed = after.wal_replayed - before.wal_replayed;
    checkpoints_written = 0;
  }

let add (a : counters) (b : counters) : counters =
  {
    reads = a.reads + b.reads;
    seq_reads = a.seq_reads + b.seq_reads;
    rand_reads = a.rand_reads + b.rand_reads;
    writes = a.writes + b.writes;
    retries = a.retries + b.retries;
    checksum_failures = a.checksum_failures + b.checksum_failures;
    wal_appends = a.wal_appends + b.wal_appends;
    wal_syncs = a.wal_syncs + b.wal_syncs;
    wal_replayed = a.wal_replayed + b.wal_replayed;
    checkpoints_written = 0;
  }

let total (c : counters) = c.reads + c.writes

(* The counters summed over [ts]: a delta of sums is the sum of the
   deltas, so [measure_all] takes one total before and one after. *)
let rec sum acc = function [] -> acc | t :: ts -> sum (add acc (snapshot t)) ts
let sum_all = function [] -> zero | t :: ts -> sum (snapshot t) ts

let measure_all ts f =
  let before = sum_all ts in
  let result = f () in
  (result, diff (sum_all ts) before)

let measure t f = measure_all [ t ] f

let pp ppf (c : counters) =
  Format.fprintf ppf "reads=%d (seq=%d rand=%d) writes=%d" c.reads c.seq_reads c.rand_reads c.writes;
  if c.retries > 0 || c.checksum_failures > 0 then
    Format.fprintf ppf " retries=%d checksum_failures=%d" c.retries c.checksum_failures;
  if c.wal_appends > 0 || c.wal_syncs > 0 || c.wal_replayed > 0 then
    Format.fprintf ppf " wal_appends=%d wal_syncs=%d wal_replayed=%d" c.wal_appends c.wal_syncs
      c.wal_replayed
