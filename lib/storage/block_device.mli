(** Simulated block device with exact I/O accounting and a
    fault-tolerance layer.

    Blocks hold [block_size] OCaml [int]s. Two backends are provided:
    an in-memory table (default for tests and benches — deterministic
    and fast) and a file-backed store that persists each block as
    [8 * (block_size + 1)] bytes of big-endian integers — the payload
    plus one trailing checksum word.

    Every read verifies the stored checksum, so bit rot and torn writes
    surface as {!Device_error} instead of silently wrong answers, and
    goes through a bounded-retry path (up to {!max_read_attempts}
    attempts, each retried at once) that absorbs transient faults;
    retries and checksum mismatches are counted in {!Io_stats}.

    Addresses are plain block indices handed out by a bump allocator;
    [free] only reclaims capacity accounting (the simulator never reuses
    addresses, which keeps sequential-I/O classification unambiguous and
    — on the file backend — leaves freed bytes physically intact, the
    invariant crash recovery relies on). *)

exception Device_error of string

type op = Read | Write
type t

(** [create_memory ~block_size ()] — in-memory backend. [metrics], on
    any constructor, is the registry the device's {!Io_stats} counters
    and read-latency histogram ([hsq_device_read_seconds]) are
    registered in; omitted, the device gets a private registry
    (reachable via [Io_stats.registry (stats t)]). *)
val create_memory : ?metrics:Hsq_obs.Metrics.t -> block_size:int -> unit -> t

(** [create_file ~block_size ~path ()] — file backend; truncates [path]. *)
val create_file : ?metrics:Hsq_obs.Metrics.t -> block_size:int -> path:string -> unit -> t

(** [open_file ~block_size ~path ()] reopens an existing device file
    without truncating; the allocator resumes after the blocks already
    on disk. A trailing partial record (a write torn by a crash) is
    ignored — committed metadata never references blocks past the last
    checkpoint. Raises {!Device_error} if the file is missing. *)
val open_file : ?metrics:Hsq_obs.Metrics.t -> block_size:int -> path:string -> unit -> t

(** Close file handles (no-op for the memory backend). *)
val close : t -> unit

(** Backing file path, if any. *)
val path : t -> string option

val block_size : t -> int
val stats : t -> Io_stats.t

(** Total blocks ever allocated. *)
val allocated_blocks : t -> int

(** Allocated minus freed blocks — the live footprint. *)
val live_blocks : t -> int

(** [alloc t n] reserves [n] contiguous blocks, returning the first
    address. *)
val alloc : t -> int -> int

(** Mark a contiguous range reclaimable. Memory backend drops contents;
    reading a freed block raises {!Device_error}. File backend leaves
    the bytes intact (see the crash-recovery note above). *)
val free : t -> addr:int -> nblocks:int -> unit

(** [write_block t ~addr payload] writes exactly one block (payload plus
    its checksum word). Raises [Invalid_argument] if [payload] is not
    [block_size] long or [addr] is unallocated. *)
val write_block : t -> addr:int -> int array -> unit

(** [read_block t ~addr] returns the block after verifying its
    checksum, retrying injected faults and checksum mismatches up to
    {!max_read_attempts} times. [hint] forces the sequential/random
    classification of the read (used by run cursors, whose per-run
    readahead is sequential on a real disk even when several runs are
    consumed in an interleaved merge).

    Ownership: every read returns a freshly decoded array, but callers
    must treat it as immutable: the run layer's one-block cache hands
    the same array to every later reader of that block, so mutating it
    would corrupt their reads.

    Allocation and verification: the file backend reads one record into
    a buffer reused per device and decodes it straight into the returned
    [block_size]-word array, checking each word's sign extension and
    folding it into the checksum in the same pass ({!Word.read_sealed});
    the memory backend copies and sums in one pass too. No other array
    or byte buffer is allocated per read, so at [block_size <= 256] a
    read allocates only on the minor heap. Every
    read goes to the file, so a read after a rewrite sees the new bytes.

    Domain-safety: reads may be issued from several domains at once.
    The file backend's descriptor and record buffer are mutex-guarded
    internally; writes, [alloc], [free] and
    {!read_batch} remain single-domain by contract (the engine never
    ingests and queries concurrently). *)
val read_block : ?hint:bool -> t -> addr:int -> int array

(** Raised by {!read_batch}: the batch index of its first unrecoverable
    read and that read's {!Device_error} message. *)
exception Batch_error of int * string

(** [read_batch devs addrs blocks ~n] reads block [addrs.(i)] of
    [devs.(i)] into [blocks.(i)] for every [i < n] and returns the
    number of physical reads it issued (retried attempts included).
    Each read is a {!read_block} — breaker, injector, retries,
    {!Io_stats} and checksum, in index order on the calling thread — except for the simulated wait: the batch waits
    once, the longest read latency among the devices its reads
    reached, and records that wait as one [hsq_device_read_seconds]
    observation on each of those devices. The batch stops at its first
    unrecoverable read, raising {!Batch_error}: no later read is issued
    or counted, and the wait of the reads before it is still paid. A
    device whose breaker is open fails its first read with no wait. *)
val read_batch : t array -> int array -> int array array -> n:int -> int

(** {2 Retry policy and circuit breaker}

    A failed read is retried at once, with no backoff, up to
    [max_read_attempts] attempts in all. Transient faults failing at
    most [max_read_attempts - 1] consecutive attempts are absorbed.

    Every device carries a {!Breaker.t} wrapping the retry loop: after
    {!Breaker.default_failure_threshold} consecutive reads that exhaust
    the schedule the breaker opens and further reads short-circuit with
    {!Device_error} (no device I/O, no retry cost) until the cooldown
    admits a half-open trial. A successful read closes it again. Its
    [hsq_breaker_state] gauge and [hsq_breaker_transitions_total]
    counter live in the device's metrics registry. *)

val max_read_attempts : int

(** The device's circuit breaker — exposed so the engine can tell a
    device-wide outage (breaker open) from a single bad partition, and
    so tests can drive the state machine. *)
val breaker : t -> Breaker.t

val breaker_state : t -> Breaker.state

(** {2 Simulated read latency}

    [set_read_latency t seconds] makes every physical block read wait
    [seconds], outside any internal lock — a knob for modelling the
    paper's disk-access cost in benches, where the in-memory simulator
    is otherwise too fast for overlapped probes to matter. The reads of
    one {!read_batch} share a single wait, like requests queued on a
    real device together. A wait sleeps to a monotonic deadline with
    the calling thread's timer slack at 1 ns, so it lasts [seconds]
    plus the wake-up's few microseconds: it never ends early, a signal
    does not cut it short, and the 50 µs default slack no longer
    stretches it. Default 0.0 (no effect). *)

val set_read_latency : t -> float -> unit

(** {2 Fault injection}

    The structured injector is consulted on every operation attempt and
    decides what goes wrong, enabling transient-vs-persistent read
    faults, torn writes, and latent bit rot — the ingredients of the
    crash-recovery fuzz harness. *)

type fault_action =
  | Fail
      (** The operation raises {!Device_error} without touching the
          device. Returned for a read attempt, it is retried; an
          injector that fails only attempts [<= k < max_read_attempts]
          models a transient fault, one that always fails models a
          persistent fault. *)
  | Torn of int
      (** Write only: the first [k] payload words land, the checksum
          word is not updated, and {!Device_error} is raised — a crash
          in the middle of a block write. The tear is detected as a
          checksum mismatch on the next read of that block. *)
  | Corrupt of int
      (** Write only: completes normally but flips the low bit of the
          stored word at [index mod block_size] after the checksum was
          computed — latent bit rot, detected on read. *)

(** The injector receives the operation, the 1-based attempt number
    (always 1 for writes), and the block address. [None] means the
    attempt proceeds normally. *)
type injector = op -> attempt:int -> int -> fault_action option

(** Install (or clear) the fault injector. Also resets the circuit
    breaker to [Closed]: the simulated hardware changed, so accumulated
    evidence against it no longer applies. *)
val set_injector : t -> injector option -> unit
