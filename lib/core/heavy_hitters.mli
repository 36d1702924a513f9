(** Heavy hitters over archived history — the companion primitive the
    paper names next to quantiles (Section 1) and leaves as future work
    (Section 4), built on the same sorted partitions with no extra
    state. The partitions may come from any number of engines: a shard
    group passes those of every read replica. *)

(** A verified heavy hitter: [lower = upper = count(value)] over the
    partitions. *)
type hit = {
  value : int;
  lower : int;
  upper : int;
}

type report = {
  io : Hsq_storage.Io_stats.counters; (** summed over [stats] *)
  candidates : int; (** distinct values verified *)
}

(** [frequent ~stats partitions ~phi] returns every value whose count
    over [partitions] is at least ⌈φN⌉ (N their total size), and only
    those, with exact counts, most frequent first: ~1/φ disk probes per
    partition plus two rank searches per surviving candidate. [stats]
    are the devices the partitions live on. Raises [Invalid_argument]
    if φ ∉ (0,1) or the partitions hold no data. *)
val frequent :
  stats:Hsq_storage.Io_stats.t list -> Hsq_hist.Partition.t list -> phi:float -> hit list * report
