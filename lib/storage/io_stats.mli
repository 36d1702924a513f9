(** Block-level I/O accounting.

    The paper's cost model (Section 2.4) counts disk block accesses and
    distinguishes sequential I/O (loading, merging) from random I/O
    (query-time binary searches). A read is classified sequential when it
    targets the block right after the previously read one on the same
    device.

    Fault-tolerance accounting rides along: [retries] and
    [checksum_failures] are zero on a healthy device, so adding them does
    not perturb the paper's block-access counts.

    Domain-safety: all [note_*] updates and [snapshot] are serialized by
    an internal mutex, so parallel query probes account exactly. Under
    concurrent readers the sequential/random split of a given read
    depends on interleaving order (classification keys off the last
    read address); totals are exact regardless.

    Torn-read-freedom: because [snapshot] runs under the {e same} mutex
    as every [note_*] (and [reset]), the returned record is a mutually
    consistent point-in-time view — it can never show, say, [reads]
    incremented by a concurrent [note_read] whose seq/rand
    classification has not landed yet. Concretely, [snapshot] always
    satisfies [reads = seq_reads + rand_reads], under any interleaving
    of concurrent noters (tested in test_obs.ml).

    The counters are additionally registered in an
    {!Hsq_obs.Metrics} registry under their Prometheus names
    ([hsq_io_*_total], [hsq_wal_*_total]),
    making this object the observability hub for every subsystem that
    reaches it: the registry rides along to WAL/merge/device call sites,
    as does an optional trace. *)

(** Immutable snapshot of the counters. *)
type counters = {
  reads : int;      (** total block reads *)
  seq_reads : int;  (** reads at [previous address + 1] *)
  rand_reads : int; (** all other reads *)
  writes : int;     (** total block writes *)
  retries : int;    (** extra read attempts made by the retry path *)
  checksum_failures : int; (** blocks whose embedded checksum mismatched *)
  wal_appends : int;  (** records appended to the write-ahead log *)
  wal_syncs : int;    (** physical flushes of the write-ahead log *)
  wal_replayed : int; (** WAL records re-applied during recovery *)
  checkpoints_written : int;
      (** always 0: a compatibility field for readers written when the
          engine took sketch checkpoints *)
}

type t

(** [create ()] makes stats backed by a fresh private registry;
    [create ~registry ()] registers the counters in [registry] instead.
    Two stats objects sharing a registry share the underlying counters
    (registration is idempotent by name) — aggregate accounting. *)
val create : ?registry:Hsq_obs.Metrics.t -> unit -> t

(** The registry the counters live in (the one passed to {!create}, or
    the private one it made). *)
val registry : t -> Hsq_obs.Metrics.t

(** Optional trace carried alongside the registry; instrumented call
    sites (WAL append/sync, merges) open spans on it when
    set. *)
val tracer : t -> Hsq_obs.Trace.t option

val set_tracer : t -> Hsq_obs.Trace.t option -> unit

(** Zero every counter (under the same mutex as [note_*]/[snapshot], so
    a reset is atomic with respect to both). *)
val reset : t -> unit

(** Record one block read at the given block address. [hint] forces the
    sequential/random classification; without it a read is sequential
    iff it targets [previous address + 1]. *)
val note_read : ?hint:bool -> t -> int -> unit

(** Record one block write at the given block address. *)
val note_write : t -> int -> unit

(** Record one extra read attempt (the retry path re-trying a faulted or
    checksum-failed read). *)
val note_retry : t -> unit

(** Record one block whose embedded checksum did not match its payload. *)
val note_checksum_failure : t -> unit

(** Record [n] records appended to the write-ahead log. *)
val note_wal_appends : t -> int -> unit

(** Record one physical flush (group commit) of the write-ahead log. *)
val note_wal_sync : t -> unit

(** Record [n] WAL records re-applied during recovery. *)
val note_wal_replayed : t -> int -> unit

(** Mutually consistent point-in-time view of all nine counters (taken
    under the note mutex — see the torn-read-freedom note above). *)
val snapshot : t -> counters
val zero : counters

(** [diff after before] subtracts counter-wise. *)
val diff : counters -> counters -> counters

val add : counters -> counters -> counters

(** Reads plus writes. *)
val total : counters -> int

(** [measure t f] runs [f ()] and returns its result together with the
    I/O performed during the call. *)
val measure : t -> (unit -> 'a) -> 'a * counters

(** [measure_all ts f] is {!measure} summed over several stats. *)
val measure_all : t list -> (unit -> 'a) -> 'a * counters

val pp : Format.formatter -> counters -> unit
