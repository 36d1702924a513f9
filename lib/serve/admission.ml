(* Admission control: the bounded FIFO in front of the group.

   The group is single-submitter by contract (see Engine), and the serve
   loop is its one submitter: every engine-touching request waits here
   while the engine is busy or lent, and the loop takes the head when it
   is free.  The queue is strictly bounded: a submit against a full queue
   is rejected immediately with a retry-after hint walked along a
   Breaker.Backoff decorrelated-jitter schedule (consecutive sheds back
   callers off further; an accepted submit resets the streak).  Nothing
   in the daemon buffers requests without bound — this queue is the only
   place they wait, and its depth is capped and exported as a gauge.

   A submit may come from any thread (Server.submit_fn queues its job
   from the caller's), so the queue keeps a lock; only the loop pops. *)

module Metrics = Hsq_obs.Metrics

type 'a item = {
  payload : 'a;
  cls : Protocol.cls;
  enqueued : float;
  deadline : float; (* absolute, seconds; queue wait + execution budget *)
}

type outcome =
  | Admitted
  | Overloaded of float (* retry-after hint, ms *)
  | Draining

type 'a t = {
  lock : Mutex.t;
  q : 'a item Queue.t;
  capacity : int;
  mutable draining : bool;
  mutable shed_streak : int;
  backoff : float array; (* decorrelated-jitter retry-after schedule *)
  depth_gauge : Metrics.Gauge.t;
  peak_gauge : Metrics.Gauge.t;
  shed_counter : Metrics.Counter.t;
  admitted_counter : Metrics.Counter.t;
}

let default_capacity = 128

let create ?(capacity = default_capacity) ~metrics () =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  {
    lock = Mutex.create ();
    q = Queue.create ();
    capacity;
    draining = false;
    shed_streak = 0;
    (* A long enough schedule that a sustained flood keeps walking it;
       the cap bounds the hint at one second. *)
    backoff =
      Hsq_storage.Breaker.Backoff.delays
        { Hsq_storage.Breaker.Backoff.base_ms = 5.0; cap_ms = 1000.0; max_attempts = 64 }
        ~seed:0x5E44;
    depth_gauge =
      Metrics.gauge ~help:"Requests waiting in the admission queue" metrics
        "hsq_serve_queue_depth";
    peak_gauge =
      Metrics.gauge ~help:"High-water mark of the admission queue" metrics
        "hsq_serve_queue_peak";
    shed_counter =
      Metrics.counter ~help:"Requests shed because the admission queue was full" metrics
        "hsq_serve_requests_shed_total";
    admitted_counter =
      Metrics.counter ~help:"Requests admitted to the queue" metrics
        "hsq_serve_requests_admitted_total";
  }

let capacity t = t.capacity

let depth t = Mutex.protect t.lock (fun () -> Queue.length t.q)

let submit t item =
  Mutex.protect t.lock (fun () ->
      if t.draining then Draining
      else if Queue.length t.q >= t.capacity then begin
        let i = min t.shed_streak (Array.length t.backoff - 1) in
        t.shed_streak <- t.shed_streak + 1;
        Metrics.Counter.inc t.shed_counter;
        Overloaded t.backoff.(i)
      end
      else begin
        Queue.push item t.q;
        t.shed_streak <- 0;
        Metrics.Counter.inc t.admitted_counter;
        let d = float_of_int (Queue.length t.q) in
        Metrics.Gauge.set t.depth_gauge d;
        if d > Metrics.Gauge.value t.peak_gauge then Metrics.Gauge.set t.peak_gauge d;
        Admitted
      end)

(* Items admitted before the drain began are still popped: they were
   acknowledged into the queue, and their deadline budgets bound how
   long the drain can take. *)
let pop t =
  Mutex.protect t.lock (fun () ->
      match Queue.take_opt t.q with
      | None -> None
      | Some _ as it ->
        Metrics.Gauge.set t.depth_gauge (float_of_int (Queue.length t.q));
        it)

let begin_drain t = Mutex.protect t.lock (fun () -> t.draining <- true)
