(* Admission control: the bounded hand-off between connection threads
   and the single engine thread.

   The engine is single-submitter by contract (see Engine), so the
   daemon serializes every engine-touching request through one queue
   drained by one thread; concurrency lives in the connection layer.
   The queue is strictly bounded: a submit against a full queue is
   rejected immediately with a retry-after hint walked along a
   Breaker.Backoff decorrelated-jitter schedule (consecutive sheds back
   callers off further; an accepted submit resets the streak).  Nothing
   in the daemon buffers without bound — this queue is the only place
   requests wait, and its depth is capped and exported as a gauge.

   Each item is also a mailbox: the connection thread blocks in [await]
   until the engine thread [reply]s, so a stalled client can only ever
   block its own connection thread, never the engine. *)

module Metrics = Hsq_obs.Metrics

type payload =
  | Request of Protocol.request
  | Job of (unit -> unit) (* test/ops hook: run a closure on the engine thread *)

type item = {
  payload : payload;
  cls : Protocol.cls;
  enqueued : float;
  deadline : float; (* absolute, seconds; queue wait + execution budget *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable reply : string option;
}

type outcome =
  | Admitted
  | Overloaded of float (* retry-after hint, ms *)
  | Draining

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  q : item Queue.t;
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
    nonempty = Condition.create ();
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

let depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.q in
  Mutex.unlock t.lock;
  d

let make_item payload cls ~deadline =
  {
    payload;
    cls;
    enqueued = Metrics.now_s ();
    deadline;
    lock = Mutex.create ();
    cond = Condition.create ();
    reply = None;
  }

let submit t item =
  Mutex.lock t.lock;
  let outcome =
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
      Condition.signal t.nonempty;
      Admitted
    end
  in
  Mutex.unlock t.lock;
  outcome

(* Engine thread: block for the next item; [None] once draining and
   empty — the signal to run the shutdown sequence.  Items already
   admitted when the drain began are still returned (they were
   acknowledged into the queue; their deadline budgets bound how long
   the drain can take). *)
let next t =
  Mutex.lock t.lock;
  while Queue.is_empty t.q && not t.draining do
    Condition.wait t.nonempty t.lock
  done;
  let item =
    if Queue.is_empty t.q then None
    else begin
      let it = Queue.pop t.q in
      Metrics.Gauge.set t.depth_gauge (float_of_int (Queue.length t.q));
      Some it
    end
  in
  Mutex.unlock t.lock;
  item

let begin_drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

let reply (item : item) response =
  Mutex.lock item.lock;
  item.reply <- Some response;
  Condition.broadcast item.cond;
  Mutex.unlock item.lock

let await (item : item) =
  Mutex.lock item.lock;
  while item.reply = None do
    Condition.wait item.cond item.lock
  done;
  let r = Option.get item.reply in
  Mutex.unlock item.lock;
  r
