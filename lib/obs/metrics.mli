(** Thread-safe metrics registry: named counters, gauges, and
    log-bucketed histograms, with deterministic JSON and
    Prometheus-text exporters.

    The registry is the process-wide hub the instrumented subsystems
    (engine, WAL, level index, block device, worker pool) hang their
    metrics on; in practice one registry per engine, reachable through
    the device's {!Hsq_storage.Io_stats}. All operations are safe under
    concurrent OCaml 5 domains: counters are atomic, gauges are
    CAS-updated, histogram observations are serialized by a per-histogram
    mutex, and registration is idempotent under the registry lock —
    registering an existing name returns the existing metric (and raises
    [Invalid_argument] if the existing metric has a different type).

    Exporter output is stable: metrics are emitted sorted by name and
    floats are formatted deterministically, so two exports of the same
    state are byte-identical and diffable.

    Naming convention: [hsq_<subsystem>_<what>[_total|_seconds]], using
    only [\[a-zA-Z0-9_\]] so names are valid Prometheus identifiers as
    is. *)

type t

val create : unit -> t

(** Monotonic-ish wall clock in seconds, shared by every latency
    instrumentation site ([Unix.gettimeofday]; the same clock the level
    index's update reports already use — see DESIGN.md §11 for the
    substitution note). *)
val now_s : unit -> float

module Counter : sig
  type t

  (** Add [by] (default 1; may be any int) atomically. *)
  val inc : ?by:int -> t -> unit

  val value : t -> int

  (** Overwrite the value (used by {!Hsq_storage.Io_stats.reset};
      Prometheus counters never go backwards, so outside of a reset this
      should not be called). *)
  val set : t -> int -> unit
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  (** Record one observation. Serialized by the histogram's mutex, so
      concurrent observers from several domains sum exactly. *)
  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float

  (** Per-bucket snapshot [(lo, hi, count)], in ascending order.
      Buckets are closed-open [\[lo, hi)]: an observation equal to a
      boundary lands in the {e higher} bucket. The first bucket's [lo]
      is [neg_infinity] and the last bucket's [hi] is [infinity]. *)
  val buckets : t -> (float * float * int) array

  (** Index of the bucket an observation of [v] falls into (exposed for
      the boundary tests). *)
  val bucket_index : t -> float -> int
end

(** [counter t name] registers (or retrieves) a counter. *)
val counter : ?help:string -> t -> string -> Counter.t

val gauge : ?help:string -> t -> string -> Gauge.t

(** [histogram t name] registers (or retrieves) a histogram with
    log-spaced bucket boundaries [start · factor^i] for
    [i = 0 .. buckets-1] (defaults: 1e-6 · 2^i over 26 boundaries —
    1 µs to ~34 s, the latency range of every instrumented path).
    Boundary parameters are fixed at first registration; a later call
    with the same name returns the existing histogram unchanged. *)
val histogram :
  ?help:string -> ?start:float -> ?factor:float -> ?buckets:int -> t -> string -> Histogram.t

(** Pull-based metrics: the value is read by calling [f] at
    export/inspection time instead of being pushed. Used for hot-path
    counters kept as plain single-writer ints (e.g. the engine's
    quick-query count — see DESIGN.md §11 on the overhead budget);
    [f] must be safe to call from any domain at any time. Registering
    an existing name is a no-op. *)
val counter_fn : ?help:string -> t -> string -> (unit -> int) -> unit

val gauge_fn : ?help:string -> t -> string -> (unit -> float) -> unit

(** Registered names, sorted. *)
val names : t -> string list

(** Point-in-time value of a registered counter (push or pull-based);
    [None] if the name is absent or not a counter. *)
val counter_value : t -> string -> int option

(** Point-in-time value of a registered gauge (push or pull-based);
    [None] if the name is absent or not a gauge. *)
val gauge_value : t -> string -> float option

(** One JSON object, keys sorted by metric name:
    counters/gauges as numbers, histograms as
    [{"count":..,"sum":..,"buckets":[{"le":..,"n":..},..]}] with
    cumulative bucket counts. *)
val to_json : t -> string

(** Prometheus text exposition format (TYPE/HELP comments, cumulative
    [_bucket{le="..."}] lines plus [_sum]/[_count] for histograms),
    metrics sorted by name. *)
val to_prometheus : t -> string

(** {!to_json} over several registries as one flat object, names sorted
    across all of them.  The registries' names must be disjoint: a name
    registered in two of them is printed twice, once per registry. *)
val to_json_merged : t list -> string

(** {!to_prometheus} over several registries, with the same
    disjointness rule as {!to_json_merged}. *)
val to_prometheus_merged : t list -> string
