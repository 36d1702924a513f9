(* Failure containment for the device read path: a per-device circuit
   breaker plus the decorrelated-jitter backoff schedule the bounded
   retry loop documents.

   The breaker is the classic three-state machine:

       Closed --k consecutive unrecoverable faults--> Open
       Open   --cooldown elapsed-------------------> Half_open
       Half_open --probe succeeds------------------> Closed
       Half_open --probe fails---------------------> Open

   While Open, [allow] answers false and the device short-circuits reads
   with a Device_error instead of paying the full retry schedule per
   probe — bounding tail latency when the whole device is down.  In
   Half_open exactly one in-flight probe (the "half-open ticket") is
   admitted; its outcome decides the next state, so a recovering device
   is re-tested by one cheap read rather than a thundering herd.

   Only *unrecoverable* faults count: the device calls [failure] after
   its retry schedule is exhausted, never on a transient fault a retry
   absorbed.  A per-partition fault (one bad block) therefore trips the
   breaker only if it is hit [failure_threshold] times in a row without
   any other read succeeding — and such partitions are handled one level
   up by Level_index quarantine, which removes them from the probe set
   before they can dominate the failure count.

   The clock is injectable ([?now]) so the state machine is unit-testable
   without sleeping; production uses Metrics.now_s.  All state is behind
   one mutex, so callers on several threads or domains see one state
   machine.  [clean] mirrors, in one atomic, whether the breaker is
   Closed with no failure counted: there [allow] admits and [success]
   changes nothing, so both answer from it without taking the lock. *)

module Metrics = Hsq_obs.Metrics

type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

(* The [hsq_breaker_state] gauge (see DESIGN.md): closed = 0, open = 1,
   half-open = 2.  Healthy is 0 so a dashboard summing breaker states
   over a fleet reads 0 when all is well. *)
let state_to_gauge = function Closed -> 0.0 | Open -> 1.0 | Half_open -> 2.0

type t = {
  mutable state : state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable ticket_out : bool; (* Half_open: the single probe is in flight *)
  failure_threshold : int;
  cooldown_s : float;
  now : unit -> float;
  lock : Mutex.t;
  clean : bool Atomic.t; (* state = Closed && consecutive_failures = 0, set under [lock] *)
  state_gauge : Metrics.Gauge.t option;
  transitions_total : Metrics.Counter.t option;
}

let default_failure_threshold = 5
let default_cooldown_s = 0.05

let create ?metrics ?now ?(failure_threshold = default_failure_threshold)
    ?(cooldown_s = default_cooldown_s) () =
  if failure_threshold < 1 then invalid_arg "Breaker.create: failure_threshold must be >= 1";
  if cooldown_s < 0.0 then invalid_arg "Breaker.create: cooldown_s must be >= 0";
  let state_gauge, transitions_total =
    match metrics with
    | None -> (None, None)
    | Some r ->
      let g =
        Metrics.gauge ~help:"Circuit breaker state (0=closed, 1=open, 2=half-open)" r
          "hsq_breaker_state"
      in
      Metrics.Gauge.set g 0.0;
      ( Some g,
        Some (Metrics.counter ~help:"Circuit breaker state transitions" r
                "hsq_breaker_transitions_total") )
  in
  {
    state = Closed;
    consecutive_failures = 0;
    opened_at = neg_infinity;
    ticket_out = false;
    failure_threshold;
    cooldown_s;
    now = (match now with Some f -> f | None -> Metrics.now_s);
    lock = Mutex.create ();
    clean = Atomic.make true;
    state_gauge;
    transitions_total;
  }

(* Every change to the state or the failure count runs under [locked],
   which refreshes [clean] before releasing the lock. *)
let locked t f =
  Mutex.protect t.lock (fun () ->
      let r = f () in
      Atomic.set t.clean (t.state = Closed && t.consecutive_failures = 0);
      r)

(* Callers hold the lock. *)
let transition t next =
  if t.state <> next then begin
    t.state <- next;
    Option.iter (fun g -> Metrics.Gauge.set g (state_to_gauge next)) t.state_gauge;
    Option.iter Metrics.Counter.inc t.transitions_total
  end

let allow t =
  Atomic.get t.clean
  || locked t (fun () ->
         match t.state with
         | Closed -> true
         | Open ->
           if t.now () -. t.opened_at >= t.cooldown_s then begin
             transition t Half_open;
             t.ticket_out <- true;
             true
           end
           else false
         | Half_open ->
           if t.ticket_out then false
           else begin
             t.ticket_out <- true;
             true
           end)

let success t =
  if not (Atomic.get t.clean) then
    locked t (fun () ->
        t.consecutive_failures <- 0;
        t.ticket_out <- false;
        match t.state with
        | Closed | Open -> ()
        | Half_open -> transition t Closed)

let failure t =
  locked t (fun () ->
      t.ticket_out <- false;
      match t.state with
      | Closed ->
        t.consecutive_failures <- t.consecutive_failures + 1;
        if t.consecutive_failures >= t.failure_threshold then begin
          t.opened_at <- t.now ();
          transition t Open
        end
      | Half_open ->
        (* The probe failed: back to Open, restarting the cooldown. *)
        t.opened_at <- t.now ();
        transition t Open
      | Open -> ())

let state t = locked t (fun () -> t.state)

let reset t =
  locked t (fun () ->
      t.consecutive_failures <- 0;
      t.ticket_out <- false;
      transition t Closed)

(* Decorrelated-jitter backoff (the "decorrelated jitter" variant from
   the AWS architecture blog): each delay is uniform in
   [base, min(cap, 3 * previous)], so consecutive retries spread apart
   exponentially on average while never synchronizing across clients.
   Seeded from Splitmix so a given seed always yields the same schedule
   — the determinism the retry tests and the fault-injection harness
   rely on. *)
module Backoff = struct
  type policy = { base_ms : float; cap_ms : float; max_attempts : int }

  let default = { base_ms = 1.0; cap_ms = 50.0; max_attempts = 3 }

  let validate p =
    if p.max_attempts < 1 then invalid_arg "Backoff: max_attempts must be >= 1";
    if p.base_ms < 0.0 then invalid_arg "Backoff: base_ms must be >= 0";
    if p.cap_ms < p.base_ms then invalid_arg "Backoff: cap_ms must be >= base_ms"

  (* [delays.(i)] is the wait before attempt i+2; attempt 1 never waits,
     so a policy of n attempts yields n-1 delays (and the never-retry
     policy max_attempts = 1 yields the empty schedule: zero sleeps). *)
  let delays p ~seed =
    validate p;
    let n = p.max_attempts - 1 in
    if n = 0 then [||]
    else begin
      let rng = Hsq_util.Splitmix.create seed in
      let out = Array.make n 0.0 in
      let prev = ref p.base_ms in
      for i = 0 to n - 1 do
        let hi = Float.min p.cap_ms (3.0 *. !prev) in
        let lo = Float.min p.base_ms hi in
        let d = lo +. (Hsq_util.Splitmix.float rng *. (hi -. lo)) in
        out.(i) <- d;
        prev := d
      done;
      out
    end
end
