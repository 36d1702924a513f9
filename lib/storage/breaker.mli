(** Per-device circuit breaker and retry-backoff schedule.

    The breaker bounds tail latency when a whole device misbehaves: the
    read path asks {!allow} before a physical probe, reports the outcome
    with {!success}/{!failure}, and while the breaker is [Open] probes
    are short-circuited with a [Device_error] instead of paying the full
    retry schedule each time.  Only {e unrecoverable} faults (retry
    schedule exhausted) count toward tripping; transient faults the
    retries absorb never do.

    All operations are safe under concurrent domains (the parallel probe
    pool calls them from every worker). *)

type state =
  | Closed  (** healthy: all probes admitted *)
  | Open  (** tripped: probes short-circuit until the cooldown elapses *)
  | Half_open  (** cooldown over: exactly one trial probe admitted *)

val state_to_string : state -> string

type t

val default_failure_threshold : int
val default_cooldown_s : float

(** [create ()] builds a closed breaker.

    @param metrics registers the [hsq_breaker_state] gauge and the
      [hsq_breaker_transitions_total] counter in the given registry.
    @param now injectable clock (seconds); defaults to
      {!Hsq_obs.Metrics.now_s}.  Tests drive the state machine with a
      fake clock instead of sleeping.
    @param failure_threshold consecutive unrecoverable faults before
      tripping (default {!default_failure_threshold}).
    @param cooldown_s seconds spent [Open] before admitting a half-open
      trial probe (default {!default_cooldown_s}). *)
val create :
  ?metrics:Hsq_obs.Metrics.t ->
  ?now:(unit -> float) ->
  ?failure_threshold:int ->
  ?cooldown_s:float ->
  unit ->
  t

(** May this probe proceed?  [Closed]: yes.  [Open]: no, unless the
    cooldown has elapsed, in which case the breaker moves to [Half_open]
    and this caller holds the single trial ticket.  [Half_open]: only if
    no trial is already in flight. *)
val allow : t -> bool

(** Report a successful probe: resets the failure count; a half-open
    trial success closes the breaker. *)
val success : t -> unit

(** Report an unrecoverable probe failure (after retries): increments
    the consecutive-failure count and trips to [Open] at the threshold;
    a half-open trial failure reopens immediately. *)
val failure : t -> unit

val state : t -> state

(** Force the breaker back to [Closed] with a clean slate.  Used when
    the device's fault injector is replaced — the simulated hardware
    changed, so the evidence against it no longer applies. *)
val reset : t -> unit

(** Decorrelated-jitter exponential backoff: each delay is uniform in
    [\[base, min (cap, 3 * previous)\]], seeded so schedules are
    deterministic in tests. *)
module Backoff : sig
  type policy = {
    base_ms : float;
    cap_ms : float;
    max_attempts : int;  (** total attempts, including the first *)
  }

  (** 3 attempts, 1 ms base, 50 ms cap. The device read path takes
      its attempt count ([max_attempts]) and retries without waiting. *)
  val default : policy

  (** [delays p ~seed] is the per-retry wait schedule in milliseconds:
      [delays.(i)] precedes attempt [i + 2] (the first attempt never
      waits), so the array has [max_attempts - 1] entries — empty for
      the never-retry policy [max_attempts = 1].  Equal seeds yield
      equal schedules.  Raises [Invalid_argument] on a malformed
      policy. *)
  val delays : policy -> seed:int -> float array
end
