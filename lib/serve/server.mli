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

    Exception: with [config.ingest_domains > 1] on the group,
    [observe] verbs bypass the queue — each connection thread applies
    them itself on the ingest lane its connection id maps to
    ({!Hsq_shard.Shard_group.observe_domain}, thread-safe by design),
    so writers scale with connections instead of
    serializing behind queries.  Replies still acknowledge exactly the
    WAL-durable prefix, a draining server answers [shutting_down]
    without acknowledging, and lane checkpoint debt is settled by a
    job on the engine thread (DESIGN.md §15).

    Shutdown is a drain: {!request_stop} (async-signal-safe, suitable
    for a SIGTERM handler) or the wire verb [drain] stops the accept
    loop; already-admitted requests are served or deadline-cut; the
    engine is checkpointed and closed; connections are shut down.  A
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

val default_budgets : budgets

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

val uptime_s : t -> float

(** Bind, then spawn the accept and engine threads.  Raises
    [Invalid_argument] if already started, and [Unix.Unix_error] if the
    bind fails. *)
val start : t -> unit

(** Ask for a drain.  Only an atomic store — safe from a signal
    handler. *)
val request_stop : t -> unit

(** Block until the daemon has fully drained (accept loop exited,
    engine checkpointed and closed, connections joined). *)
val wait : t -> unit

(** [request_stop] + [wait]. *)
val stop : t -> unit

(** Run [f group] on the engine thread, serialized with request
    execution, blocking until done.  The chaos harnesses use this to
    flip device-fault injectors, run repair scrubs, and kill or rejoin
    shards against a live server without racing queries.  Raises
    [Invalid_argument] if the queue is full or draining. *)
val submit_fn : t -> (Hsq_shard.Shard_group.t -> unit) -> unit
