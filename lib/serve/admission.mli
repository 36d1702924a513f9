(** Admission control: the bounded FIFO in front of the group.

    The serve loop is the group's one submitter; every engine-touching
    request waits here while the engine is busy or lent, and the loop
    takes the head when it is free.  The queue is strictly bounded — a
    submit against a full queue is rejected immediately with a
    retry-after hint walked along a {!Hsq_storage.Breaker.Backoff}
    decorrelated-jitter schedule — and its depth and high-water mark are
    exported as gauges ([hsq_serve_queue_depth] /
    [hsq_serve_queue_peak]), with [hsq_serve_requests_shed_total] /
    [hsq_serve_requests_admitted_total] counters. *)

type 'a item = {
  payload : 'a;
  cls : Protocol.cls;
  enqueued : float;
  deadline : float;  (** absolute seconds; covers queue wait + execution *)
}

type outcome =
  | Admitted
  | Overloaded of float  (** retry-after hint, milliseconds *)
  | Draining

type 'a t

val default_capacity : int

(** Raises [Invalid_argument] if [capacity < 1]. *)
val create : ?capacity:int -> metrics:Hsq_obs.Metrics.t -> unit -> 'a t

val capacity : 'a t -> int
val depth : 'a t -> int

(** Try to enqueue, from any thread.  Never blocks on the queue. *)
val submit : 'a t -> 'a item -> outcome

(** The head, if any.  Items admitted before the drain began are still
    returned — they were acknowledged into the queue. *)
val pop : 'a t -> 'a item option

(** Stop admitting: {!submit} returns [Draining] from now on. *)
val begin_drain : 'a t -> unit
