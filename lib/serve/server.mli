(** The `hsq serve` daemon: line-JSON requests over a Unix or TCP
    socket, executed against a {!Hsq_shard.Shard_group}.  A single
    engine is the group's K = 1, R = 1 case: same store layout, same
    answers, and a flat [metrics] dump.

    One serve loop on one thread accepts, reads, parses, executes and
    writes every request over non-blocking sockets; the replies one turn
    produces go out to each connection in a single write.  Overload
    safety is structural: every engine-touching request goes through
    the bounded {!Admission} queue (full queue → explicit [overloaded]
    response with a retry-after hint, never silent buffering) and
    carries an absolute deadline from its class budget, counted from
    when its line is read (aged-out requests answer [timeout] without
    running).  A connection with a request queued parses no further
    line until it is answered, so replies keep request order.  An
    engine call holds the loop for its own duration.  Connection faults
    (malformed lines, clients that stall past the read or write
    timeout, abrupt disconnects, descriptors past [FD_SETSIZE]) are
    contained per-connection and surfaced in [hsq_serve_*] metrics
    (DESIGN.md §13).

    Shutdown is a drain: {!request_stop} (async-signal-safe, suitable
    for a SIGTERM handler) or the wire verb [drain] stops admission;
    already-admitted requests are served or deadline-cut; the engine is
    closed, its WAL flushed; connections are closed once their replies
    are written.  A crash instead of a drain loses no acknowledged
    observation — the WAL was appended before each ack. *)

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
  read_timeout_s : float;  (** a connection that sends nothing this long is cut *)
  write_timeout_s : float;  (** a connection whose replies make no progress this long is cut *)
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

(** Bind, then spawn the serve loop's thread.  Raises
    [Invalid_argument] if already started, and [Unix.Unix_error] if the
    bind fails. *)
val start : t -> unit

(** Ask for a drain.  Only an atomic store — safe from a signal
    handler. *)
val request_stop : t -> unit

(** Block until the daemon has fully drained (engine closed,
    connections and listener closed, serve loop exited). *)
val wait : t -> unit

(** [request_stop] + [wait]. *)
val stop : t -> unit

(** Queue a job behind the requests already admitted and block until
    it has run: when it reaches the head of the queue, the serve loop
    lends it the engine and [f group] runs on the calling thread, while
    the loop goes on accepting, reading, shedding and answering [ping]
    and [drain] but runs nothing else on the group.  An exception from
    [f] is dropped.  The chaos harnesses use this to flip device-fault
    injectors, run repair scrubs, and kill or rejoin shards against a
    live server without racing queries.  Raises [Invalid_argument] if
    the queue is full or draining. *)
val submit_fn : t -> (Hsq_shard.Shard_group.t -> unit) -> unit
