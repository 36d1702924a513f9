(** The accurate response (Algorithms 6–8, ±ε·m by Theorem 2) as one
    filter-bisection over owner-tagged partition probes plus one stream
    summary per source. {!Engine.accurate_over} is its one caller, with
    the one failure policy: an engine's own query is the one-source
    case, and a shard group's has one source per read replica. *)

(** [clamp_rank ~n r] clamps [r] into [\[1, n\]]. *)
val clamp_rank : n:int -> int -> int

(** Definition 1: ⌈φ·n⌉ clamped into [\[1, n\]]. Raises
    [Invalid_argument (who ^ ": phi not in (0,1]")] unless φ ∈ (0, 1]. *)
val rank_of_phi : who:string -> n:int -> float -> int

(** Algorithm 5 at [rank], clamped to the summary's population. [us]
    must be non-empty. *)
val memory_value : Union_summary.t -> rank:int -> int

(** Algorithm 5 at [rank] (clamped to the summary's population) and its
    Lemma 2 rank window, widened by [widen] elements the summary cannot
    place. [us] must be non-empty. *)
val memory_answer : Union_summary.t -> rank:int -> widen:int -> int * float

(** Absolute deadline of a query started at [start]: [deadline_ms] if
    given, else [config.query_deadline_ms]. *)
val deadline_at : start:float -> ?deadline_ms:float -> Config.t -> float option

(** Algorithm 8's candidate inside the bracket [(u, v)] and the rule
    that chose it. The midpoint [⌊(u + v)/2⌋] is the paper's; the secant
    aims at where the union summary places [rank], on the line between
    the midpoints of its Lemma 2 windows ({!Union_summary.rank_window})
    at [u] and [v]. The secant serves only when both windows' half-widths
    are at most 128 stopping bands ([tolerance]) and their midpoints
    increase, and never after two decisions in a row on one side ([past],
    the decisions so far, newest first). It is clamped to within
    [2^(N − d − 1) − (v − u)/2] of the midpoint after [d = length past]
    decisions, [N = ⌈log₂(v₀ − u₀)⌉] over the [filters] [(u₀, v₀)], so
    no bisection takes more than [N + 1] iterations, the midpoint rule's
    worst case. The result lies in [\[u + 1, v − 1\]] when [v − u ≥ 2],
    and is [u] otherwise; widths beyond [max_int] are handled. A pure
    function of its arguments: the ranks a probe round happened to reach
    never enter, so answers and iterations are those of exact ranks. *)
val candidate :
  Union_summary.t ->
  rank:int ->
  tolerance:float ->
  filters:int * int ->
  past:[ `Left | `Right ] list ->
  u:int ->
  v:int ->
  int * [ `Secant | `Midpoint ]

(** One bisection's input: the union summary (its
    {!Union_summary.streams}, one stream summary per source, estimate
    the stream ranks), the active partitions tagged with their owner
    (the caller's fault domain), and the caller's own description. *)
type ('o, 'm) view = {
  summary : Union_summary.t;
  probes : ('o * Hsq_hist.Partition.t) list;
  meta : 'm;
}

(** Bisect a view, or answer from a summary's memory with the given
    degradation and widening (see {!memory_answer}). *)
type ('o, 'm, 'd) step =
  | Bisect of ('o, 'm) view
  | From_memory of Union_summary.t * 'd * int

(** [outcome] gives the degradation and the widening (elements no probe
    saw) of an answer a view produced; [note_success] runs for every
    probe of a completed bisection; [on_failure ~tries view owner p]
    decides what follows a probe that exhausted the device's retries,
    [tries] counting the failures already handled. *)
type ('o, 'm, 'd) policy = {
  outcome : ('o, 'm) view -> [ `Completed | `Deadline ] -> 'd * int;
  note_success : 'o -> Hsq_hist.Partition.t -> unit;
  on_failure : tries:int -> ('o, 'm) view -> 'o -> Hsq_hist.Partition.t -> ('o, 'm, 'd) step;
}

type 'd result = {
  answer : int;
  degradation : 'd;
  bound : float; (** upper bound on |rank(answer) − rank| *)
  iterations : int; (** bisection steps over every attempt *)
  io : Hsq_storage.Io_stats.counters; (** summed over [stats] *)
  span : Hsq_obs.Trace.span option; (** the [query.accurate] root when traced *)
}

(** The retry loop from [first ()]. Each bisection iteration takes its
    candidate z from {!candidate} and probes its partitions in rounds,
    each partition search starting on the window and anchor values its
    summary entries give ({!Hsq_hist.Partition_summary.search_window}),
    so it can interpolate from its first read. A round first sums every
    partition search's rank window ({!Hsq_storage.Run.window}) with the
    stream estimates into an interval that holds the exact ρ(z), and
    decides the iteration as soon as that interval does: left, right or
    done against the stopping band, or u/v at width 1. Until then it reads
    the next block of every unsettled search with one
    {!Hsq_storage.Block_device.read_batch} (across devices, so across
    shards), so the iteration waits on at most its longest
    per-partition chain of reads. Each rule fires only when it would
    on the exact ρ, so answers, iterations and bounds are those of
    exact ranks; the next iteration's windows narrow to the decided
    side of each search's window, keeping that end's anchor
    ({!Hsq_storage.Run.anchors}). A completed bisection's bound is
    [Σ_s tolerance_factor·ε₂·m_s + Σ_s ε₂·m_s + 2·max 1 S + widening]
    over the view's S stream summaries; a deadline, checked between
    iterations and between rounds, answers the quick answer clamped
    into the surviving filter interval. [trace] (tracer, degradation
    label) records the query as one [query.accurate] root span, the
    first step fetched inside it (attributes [rank], [partitions]
    probed first, [iterations], [rounds], its number of [round]
    spans, and [degradation] unless
    [`None]) with a [bisect] span per iteration (attributes [u], [v],
    [z], its candidate, [rule], [secant] or [midpoint], and [open], the
    searches still unsettled when it decided) and a [round] span per
    batch under it (attributes [probes], the searches it served,
    [guided], how many of their blocks interpolation chose rather than
    the midpoint fallback, and [reads], its physical reads), and returns
    that root in [span]. *)
val run :
  ?trace:Hsq_obs.Trace.t * ('d -> string) ->
  ?deadline_at:float ->
  stats:Hsq_storage.Io_stats.t list ->
  tolerance_factor:float ->
  policy:('o, 'm, ([> `None ] as 'd)) policy ->
  rank:int ->
  (unit -> ('o, 'm, 'd) step) ->
  'd result
