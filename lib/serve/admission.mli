(** Admission control: the bounded hand-off between connection threads
    and the single engine thread.

    The engine is single-submitter by contract, so every engine-touching
    request is serialized through this queue and drained by one thread.
    The queue is strictly bounded — a submit against a full queue is
    rejected immediately with a retry-after hint walked along a
    {!Hsq_storage.Breaker.Backoff} decorrelated-jitter schedule — and
    its depth and high-water mark are exported as gauges
    ([hsq_serve_queue_depth] / [hsq_serve_queue_peak]), with
    [hsq_serve_requests_shed_total] / [hsq_serve_requests_admitted_total]
    counters.

    Each item doubles as a mailbox: the submitting connection thread
    blocks in {!await} until the engine thread {!reply}s, so a stalled
    client blocks only its own connection thread. *)

type payload =
  | Request of Protocol.request
  | Job of (unit -> unit)
      (** test/ops hook: an arbitrary closure run on the engine thread *)

type item = {
  payload : payload;
  cls : Protocol.cls;
  enqueued : float;
  deadline : float;  (** absolute seconds; covers queue wait + execution *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable reply : string option;
}

type outcome =
  | Admitted
  | Overloaded of float  (** retry-after hint, milliseconds *)
  | Draining

type t

val default_capacity : int

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> metrics:Hsq_obs.Metrics.t -> unit -> t

val capacity : t -> int
val depth : t -> int
val make_item : payload -> Protocol.cls -> deadline:float -> item

(** Connection threads: try to enqueue.  Never blocks. *)
val submit : t -> item -> outcome

(** Engine thread: block for the next item; [None] once draining and
    the queue is empty.  Items admitted before the drain began are
    still returned — they were acknowledged into the queue. *)
val next : t -> item option

(** Stop admitting ({!submit} returns [Draining]) and wake {!next}. *)
val begin_drain : t -> unit

(** Engine thread: deliver the response and wake the submitter. *)
val reply : item -> string -> unit

(** Submitting thread: block until {!reply}. *)
val await : item -> string
