(** Append-only write-ahead log for the durable ingest path.

    Records are checksummed, sequence-numbered, and length-prefixed;
    appends are acknowledged only after reaching the log according to
    the sync policy, and the reader floors a torn tail instead of ever
    returning a corrupt record.  See the implementation header for the
    on-file format and the durability model. *)

(** When appended records physically reach the file, applied once per
    append call ({!append} or {!append_observes}). [Always] flushes once
    per call, before it returns (zero acknowledged loss on a crash);
    [Group n] flushes once [n] records are pending (group commit — loss
    bounded by the window); [Never] flushes only at commit markers and
    rotation. *)
type sync_policy = Always | Group of int | Never

type record =
  | Observe of int  (** one stream element *)
  | End_step of { step : int; count : int }
      (** time-step commit marker: the [step]-th archived step, holding
          [count] elements. The reader also decodes the commit marker
          of the removed multi-lane ingest (record kind 3) as this,
          dropping its per-lane cuts. *)

(** How reading the log ended: [Clean] at end of file, or [Torn why] at
    the first short, corrupt, mis-lengthed, or out-of-sequence record
    (everything after it is unreachable by construction). *)
type tail = Clean | Torn of string

type t

(** Create a fresh (truncated) log whose first record will carry
    [start_seq]. WAL counters are charged to [stats]. *)
val create :
  ?sync:sync_policy -> stats:Io_stats.t -> path:string -> start_seq:int -> unit -> t

(** Reopen an existing log for appending: folds [f] over the valid
    records in order (each with its sequence number, starting from
    [init]), and returns the handle, the fold, and the tail status. A
    torn tail is physically truncated (temp file + rename) before the
    handle is returned. No record list is built: the reader holds one
    buffer whatever the log's length. *)
val open_existing :
  ?sync:sync_policy ->
  stats:Io_stats.t ->
  path:string ->
  ('a -> int -> record -> 'a) ->
  'a ->
  t * 'a * tail

(** Read-only fold over a log file: [f] over the valid records in order
    (with their sequence numbers), then the header start sequence and
    the tail status. Never modifies the file; a missing file reads as
    empty with a [Torn] tail. *)
val fold_path : path:string -> ('a -> int -> record -> 'a) -> 'a -> 'a * int * tail

(** Append one record; returns its sequence number. Whether the record
    is physically flushed depends on the sync policy. A one-record run
    of the {!append_observes} path (same encoder, same injector), except
    that a failure raises its cause rather than {!Partial}.

    Transactional: on any failure (an injected fault, or a policy flush
    that raises) the record is not acknowledged and the in-memory state
    — sequence number, pending buffer — is rolled back to exactly its
    pre-call value, so the caller may safely retry the same record (it
    will reuse the same sequence number) or give up without leaving a
    gap. A torn append additionally remembers the tear's byte offset;
    the next physical flush truncates the garbage away so acknowledged
    records can never land beyond a tear and be floored by recovery
    (a crash before that flush still leaves the torn tail on disk, as
    a real power cut would). Raises {!Block_device.Device_error} when
    the fault injector fires. *)
val append : t -> record -> int

(** [Partial (j, e)]: an {!append_observes} run stopped at its record
    [j] on [e] (the injector's [Fail] or [Torn], or a policy flush that
    raised — then [j = 0]). Exactly records [0 .. j-1] are appended, and
    under [Always] flushed; record [j] and the rest are not, and
    [next_seq] is [j] past its value before the call. *)
exception Partial of int * exn

(** Append one [Observe] record per value, in order, as one run: the
    sync policy is applied once, after the last record, so under
    [Always] a run costs one physical flush. The fault injector is
    consulted per record. Transactional per record, like {!append}: on
    a fault at record [j] the run's first [j] records stand and
    [Partial (j, e)] is raised. Writes the same bytes as appending each
    value with {!append}. *)
val append_observes : t -> int array -> unit

(** [append_observe t v] is [ignore (append t (Observe v))], built
    without the [Observe] value: a one-record run of the
    {!append_observes} path. Allocates nothing on the minor heap unless
    the run is sampled, traced, flushed or faulted. *)
val append_observe : t -> int -> unit

(** Flush every buffered record to the file (one group commit). *)
val sync : t -> unit

(** Atomically truncate the log: a fresh file whose header starts at
    the current [next_seq] replaces the old one by rename. Call only
    after the records below [next_seq] are durable elsewhere (the
    warehouse commit). *)
val rotate : t -> unit

(** Flush and close. Not called on a crash, by definition. *)
val close : t -> unit

(** Simulate a power cut (test helper): discard every unflushed record
    and release the file handle without writing them. The file is left
    holding exactly what the sync policy had made durable. *)
val crash : t -> unit

val path : t -> string

(** First sequence number of the current log file. *)
val start_seq : t -> int

(** Sequence number the next append will carry. *)
val next_seq : t -> int

(** Appended records not yet physically flushed. *)
val pending_records : t -> int

(** Structured fault injection on appends, mirroring the block device's
    actions: [Fail] raises without writing, [Torn k] lands only the
    first [k] words and raises (a crash mid-append), [Corrupt i] lands
    the whole record with one bit flipped (latent corruption the reader
    must reject). The argument is the sequence number being appended. *)
val set_injector : t -> (int -> Block_device.fault_action option) option -> unit

val sync_policy_to_string : sync_policy -> string
