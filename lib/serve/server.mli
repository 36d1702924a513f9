(** The `hsq serve` daemon: line-JSON requests over a Unix or TCP
    socket, executed against a {!Hsq_shard.Shard_group}.  A single
    engine is the group's K = 1, R = 1 case: same store layout, same
    answers, and a flat [metrics] dump.

    Overload safety is structural: every engine-touching request goes
    through the bounded {!Admission} queue (full queue → explicit
    [overloaded] response with a retry-after hint, never silent
    buffering), carries an absolute deadline from its class budget
    (aged-out requests answer [timeout] without running), and is
    executed by a single engine thread — the group is
    single-submitter by contract.  Connection faults (malformed lines,
    stalled clients, abrupt disconnects) are contained per-connection
    and surfaced in [hsq_serve_*] metrics.

    The one exception: a [quick] without a [window] is answered on its
    connection thread from the engine thread's last full-store quick
    snapshot ({!Hsq_shard.Shard_group.quick_snapshot}) when no write
    has been applied since it was built, the engine thread is idle, and
    no stop was requested; otherwise it queues.  Such an answer is
    never stale, never shed and never deadline-cut, and counts in
    [hsq_serve_quick_inline_total] instead of
    [hsq_serve_requests_admitted_total] (DESIGN.md §13).

    Shutdown is a drain: {!request_stop} (async-signal-safe, suitable
    for a SIGTERM handler) or the wire verb [drain] stops the accept
    loop; already-admitted requests are served or deadline-cut; the
    engine is closed, its WAL flushed; connections are shut down.  A
    crash instead of a drain loses no acknowledged observation — the
    WAL was appended before each ack. *)

type listen =
  | Unix_sock of string
  | Tcp of string * int

(** Per-class deadline budgets, milliseconds.  A request's deadline is
    [min budget requested_deadline_ms], covering queue wait plus
    execution. *)
type budgets = {
  quick_ms : float;
  accurate_ms : float;
  ingest_ms : float;
  admin_ms : float;
}

type config = {
  listen : listen;
  queue_depth : int;  (** admission-queue capacity *)
  budgets : budgets;
  read_timeout_s : float;  (** per-connection stalled-read cutoff *)
  write_timeout_s : float;  (** per-connection stalled-write cutoff *)
  max_line_bytes : int;  (** request line cap; above it the connection closes *)
}

val default_config : listen -> config

type t

(** Serve a group: ingest routes across the shards, queries fuse (and
    report [`Shard_down] degradations), windowed queries answer over
    the last [w] steps of every shard (see
    {!Hsq_shard.Shard_group.window_sizes}), [health] rolls up
    per-shard state, and metric dumps merge every shard's registry
    ({!Hsq_shard.Shard_group.metrics_json}).  Serve metrics (and
    process gauges) live on a registry of their own, exported as the
    unlabelled part of the dumps.  Raises [Invalid_argument] if
    [queue_depth < 1]. *)
val create : config -> Hsq_shard.Shard_group.t -> t

(** Bind, then spawn the accept and engine threads.  Raises
    [Invalid_argument] if already started, and [Unix.Unix_error] if the
    bind fails. *)
val start : t -> unit

(** Ask for a drain.  Only an atomic store — safe from a signal
    handler. *)
val request_stop : t -> unit

(** Block until the daemon has fully drained (accept loop exited,
    engine closed, connections joined). *)
val wait : t -> unit

(** [request_stop] + [wait]. *)
val stop : t -> unit

(** Run [f group] on the engine thread, serialized with request
    execution, blocking until done.  The chaos harnesses use this to
    flip device-fault injectors, run repair scrubs, and kill or rejoin
    shards against a live server without racing queries.  Raises
    [Invalid_argument] if the queue is full or draining. *)
val submit_fn : t -> (Hsq_shard.Shard_group.t -> unit) -> unit
