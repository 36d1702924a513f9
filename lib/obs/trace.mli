(** Lightweight per-query trace spans.

    A trace is a collector of span {e trees}: each span has a name, a
    start time and duration (same clock as {!Metrics.now_s}), a small
    list of string attributes, and child spans. The engine records one
    root span per traced query, with children for the summary-cache
    probe, each bisection iteration, and each partition probe; the
    durable ingest path records spans for WAL appends/syncs and merges
    (see DESIGN.md §11 for the span taxonomy).

    Concurrency: a trace keeps a current-span stack for the common
    single-domain call nesting ({!with_span}), and {!with_child} takes
    an explicit parent and never touches the stack — that is what the
    bisection's probe rounds use, so a round span attaches to its
    iteration whatever the stack holds, and a span opened on another
    domain never races on the stack. All span-tree mutation is
    serialized by the trace's mutex.

    Tracing is strictly opt-in (an untraced engine pays one [None]
    check per instrumented site). A trace retains every span it
    records; {!create}'s [max_spans] bounds that memory — beyond the
    cap spans are counted in {!dropped} and silently discarded. *)

type t
type span

(** [create ?max_spans ()] — an empty trace. [max_spans] (default
    1_000_000) caps retained spans. *)
val create : ?max_spans:int -> unit -> t

(** [with_span t name f] runs [f span] inside a new span. The span's
    parent is the innermost span currently open via [with_span] on this
    trace (a root span otherwise); it is closed — duration stamped and
    attached to its parent or the root list — when [f] returns or
    raises. *)
val with_span : t -> ?attrs:(string * string) list -> string -> (span -> 'a) -> 'a

(** Like {!with_span} but with an explicit [parent], leaving the
    current-span stack alone — safe to call from any domain
    concurrently (the parallel probe path). *)
val with_child : t -> parent:span -> ?attrs:(string * string) list -> string -> (span -> 'a) -> 'a

(** Attach an attribute to a live or finished span (last write wins on
    duplicate keys at read time; thread-safe). *)
val add_attr : t -> span -> string -> string -> unit

(** Completed root spans, oldest first. Spans still open are not
    included. *)
val roots : t -> span list

(** Drop every recorded span (the per-query report path clears between
    queries). *)
val clear : t -> unit

(** Spans discarded because [max_spans] was reached. *)
val dropped : t -> int

(** {2 Span accessors (tests, reporters)} *)

val name : span -> string
val attrs : span -> (string * string) list
val attr : span -> string -> string option
val children : span -> span list

(** Seconds from span open to close; 0 while still open. *)
val duration_s : span -> float

(** [span] plus all descendants named [n], depth-first. *)
val find_all : span -> string -> span list

(** One span tree as a JSON object:
    [{"name":..,"dur_us":..,"attrs":{..},"children":[..]}]. *)
val to_json : span -> string
