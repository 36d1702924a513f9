(* Engine configuration.

   Two sizing modes mirror how the paper presents the algorithm:

   - [Epsilon e]: Algorithm 1.  eps1 = e/2 governs the per-partition
     historical summaries (beta1 = ceil(1/eps1) + 1) and eps2 = e/4
     governs the stream sketch.  The internal GK sketch runs at eps2/2
     because its guarantee is two-sided (+-eps*n) while Lemma 1 needs
     the one-sided interval [i*eps2*m, (i+1)*eps2*m]; querying the
     half-precision sketch at rank (i+1/2)*eps2*m lands exactly in that
     interval.

   - [Memory_words w]: the experimental setup of Section 3.1 — a fixed
     word budget, split 50/50 between the stream summary and the
     historical summaries ("we allocate 50 percent of the memory to the
     stream summary and 50 percent to the historical summary"). *)

type sizing =
  | Epsilon of float
  | Memory_words of int

type t = {
  sizing : sizing;
  kappa : int; (* merge threshold (Section 2.1) *)
  block_size : int; (* elements per disk block (B) *)
  steps_hint : int; (* expected number of time steps (T), for memory split *)
  stream_fraction : float; (* share of a memory budget given to the stream sketch *)
  wal_dir : string option; (* durable-ingest directory; None = stream side is volatile *)
  wal_sync : Hsq_storage.Wal.sync_policy; (* group-commit policy for the WAL *)
  query_deadline_ms : float option; (* default accurate-query deadline; None = unbounded *)
  quarantine_after : int; (* consecutive unrecoverable probe failures before
                             a partition is quarantined *)
  shards : int; (* independent engine shards in a Shard_group; 1 = single engine *)
  replicas : int; (* independent engine replicas per shard in a Shard_group;
                     1 = unreplicated (the classic layout) *)
}

let default =
  {
    sizing = Epsilon 0.01;
    kappa = 10;
    block_size = 256;
    steps_hint = 100;
    stream_fraction = 0.5;
    wal_dir = None;
    wal_sync = Hsq_storage.Wal.Always;
    query_deadline_ms = None;
    quarantine_after = 3;
    shards = 1;
    replicas = 1;
  }

let make ?(kappa = default.kappa) ?(block_size = default.block_size)
    ?(steps_hint = default.steps_hint) ?(stream_fraction = default.stream_fraction)
    ?wal_dir ?(wal_sync = default.wal_sync)
    ?(checkpoint_every = 0) ?query_deadline_ms
    ?(quarantine_after = default.quarantine_after) ?(shards = default.shards)
    ?(replicas = default.replicas) sizing =
  (match sizing with
  | Epsilon e when not (e > 0.0 && e < 1.0) -> invalid_arg "Config.make: epsilon not in (0,1)"
  | Epsilon _ -> ()
  | Memory_words w when w < 128 -> invalid_arg "Config.make: memory budget below 128 words"
  | Memory_words _ -> ());
  if kappa < 2 then invalid_arg "Config.make: kappa must be >= 2";
  if block_size < 2 then invalid_arg "Config.make: block_size must be >= 2";
  if steps_hint < 1 then invalid_arg "Config.make: steps_hint must be >= 1";
  if not (stream_fraction > 0.0 && stream_fraction < 1.0) then
    invalid_arg "Config.make: stream_fraction must lie in (0,1)";
  (match wal_sync with
  | Hsq_storage.Wal.Group n when n < 1 -> invalid_arg "Config.make: group-commit window must be >= 1"
  | _ -> ());
  (* Sketch checkpoints are gone; the argument is kept, and still
     validated, for callers written against them. *)
  if checkpoint_every < 0 then invalid_arg "Config.make: checkpoint_every must be >= 0";
  (match query_deadline_ms with
  | Some d when not (d > 0.0) -> invalid_arg "Config.make: query_deadline_ms must be > 0"
  | _ -> ());
  if quarantine_after < 1 then invalid_arg "Config.make: quarantine_after must be >= 1";
  if shards < 1 then invalid_arg "Config.make: shards must be >= 1";
  if replicas < 1 || replicas > 8 then invalid_arg "Config.make: replicas must lie in [1, 8]";
  {
    sizing;
    kappa;
    block_size;
    steps_hint;
    stream_fraction;
    wal_dir;
    wal_sync;
    query_deadline_ms;
    quarantine_after;
    shards;
    replicas;
  }

(* Maximum simultaneous partitions: kappa per level, over
   ceil(log_kappa T) + 1 levels (Lemma 8). *)
let max_partitions t =
  let levels =
    int_of_float (ceil (log (float_of_int (max 2 t.steps_hint)) /. log (float_of_int t.kappa))) + 1
  in
  t.kappa * levels

(* beta1 (historical summary length per partition, Algorithm 1). *)
let beta1 t =
  match t.sizing with
  | Epsilon e ->
    let eps1 = e /. 2.0 in
    int_of_float (ceil (1.0 /. eps1)) + 1
  | Memory_words w ->
    let hist_budget = int_of_float ((1.0 -. t.stream_fraction) *. float_of_int w) in
    (* 3 words per summary entry, over at most [max_partitions]. *)
    max 2 ((hist_budget - 16) / (3 * max_partitions t))

(* Word budget for the stream sketch in memory mode. *)
let stream_words t =
  match t.sizing with
  | Epsilon _ -> None
  | Memory_words w -> Some (max 50 (int_of_float (t.stream_fraction *. float_of_int w)))

(* GK error parameter in epsilon mode (= eps2 / 2, see header comment). *)
let gk_epsilon t =
  match t.sizing with Epsilon e -> Some (e /. 8.0) | Memory_words _ -> None
