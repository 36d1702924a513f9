(* Heavy hitters over the union of historical and streaming data.

   The paper names heavy hitters alongside quantiles as the analytical
   primitives missing from data-stream warehouses (Section 1) and
   leaves "other classes of aggregates in this model" as future work
   (Section 4).  This module is that extension, built in exactly the
   paper's architecture: a small in-memory sketch over the live stream
   plus probes into the sorted on-disk partitions.

   Query: all values with frequency >= phi * N in T = H u R.

   - Stream side: a SpaceSaving sketch (never undercounts; overcount
     <= m / capacity), reset at each time step like SS.
   - Historical side: no extra state at all.  A value with
     count(v, T) >= phi*N must, by pigeonhole, have count >= phi*|part|
     in the stream or in some partition.  Within a sorted partition any
     value occupying more than s = floor(phi * n_P) consecutive slots
     covers an index that is a multiple of s, so probing every s-th
     element yields a complete candidate set with ~1/phi block reads
     per partition.  Exact per-partition counts for each candidate are
     then two summary-bounded binary searches (rank(v) - rank(v-1)).

   Guarantees (tested in test_heavy_hitters):
   - completeness: every value with true count >= ceil(phi*N) is
     returned, provided capacity >= 1/phi (checked at query time);
   - soundness: every returned value has true count >=
     ceil(phi*N) - m/capacity (the only uncertainty is the stream
     sketch's overcount). *)

type t = {
  engine : Engine.t;
  capacity : int;
  mutable sketch : Hsq_sketch.Spacesaving.t;
}

type hit = {
  value : int;
  lower : int; (* guaranteed lower bound on count(value, T) *)
  upper : int; (* guaranteed upper bound *)
}

type report = {
  io : Hsq_storage.Io_stats.counters;
  candidates : int; (* values probed before verification *)
}

let create ?(capacity = 256) config =
  if capacity < 2 then invalid_arg "Heavy_hitters.create: capacity must be >= 2";
  { engine = Engine.create config; capacity; sketch = Hsq_sketch.Spacesaving.create ~capacity }

(* Attach to an existing engine (e.g. one restored by Persist).  The
   stream sketch starts empty, so the completeness guarantee holds only
   for elements observed through this wrapper — a restored engine has an
   empty stream, which is exactly that situation. *)
let of_engine ?(capacity = 256) engine =
  if capacity < 2 then invalid_arg "Heavy_hitters.of_engine: capacity must be >= 2";
  if Engine.stream_size engine > 0 then
    invalid_arg "Heavy_hitters.of_engine: engine has un-observed stream data";
  { engine; capacity; sketch = Hsq_sketch.Spacesaving.create ~capacity }

let engine t = t.engine
let capacity t = t.capacity
let total_size t = Engine.total_size t.engine
let stream_size t = Engine.stream_size t.engine

let memory_words t =
  Engine.memory_words t.engine + Hsq_sketch.Spacesaving.memory_words t.sketch

let observe t v =
  Engine.observe t.engine v;
  Hsq_sketch.Spacesaving.insert t.sketch v

let end_time_step t =
  let report = Engine.end_time_step t.engine in
  t.sketch <- Hsq_sketch.Spacesaving.create ~capacity:t.capacity;
  report

let ingest_batch t batch =
  Array.iter (observe t) batch;
  end_time_step t

(* Exact count of [v] in partition [p]: rank(v) - rank(v-1), each via a
   summary-bounded binary search. *)
let partition_count p v = Hsq_hist.Partition.rank p v - Hsq_hist.Partition.rank p (v - 1)

(* Candidate values that could be phi-frequent within partition [p]:
   every ~floor(phi * n)-th element of the sorted run. *)
let partition_candidates p ~phi =
  let run = Hsq_hist.Partition.run p in
  let n = Hsq_storage.Run.length run in
  let stride = max 1 (int_of_float (floor (phi *. float_of_int n))) in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    acc := Hsq_storage.Run.get run !i :: !acc;
    i := !i + stride
  done;
  !acc

module Int_set = Set.Make (Int)

let frequent_over t ~partitions ~phi =
  if not (phi > 0.0 && phi < 1.0) then invalid_arg "Heavy_hitters.frequent: phi not in (0,1)";
  if float_of_int t.capacity < 1.0 /. phi then
    invalid_arg
      (Printf.sprintf
         "Heavy_hitters.frequent: capacity %d cannot guarantee completeness for phi=%g (need >= %.0f)"
         t.capacity phi (ceil (1.0 /. phi)));
  let m = Engine.stream_size t.engine in
  let hist_total = List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) 0 partitions in
  let total = hist_total + m in
  if total = 0 then invalid_arg "Heavy_hitters.frequent: no data";
  let threshold = max 1 (int_of_float (ceil (phi *. float_of_int total))) in
  let stats = Hsq_storage.Block_device.stats (Engine.device t.engine) in
  let before = Hsq_storage.Io_stats.snapshot stats in
  (* Candidate generation (pigeonhole across stream + partitions). *)
  let stream_threshold = max 1 (int_of_float (ceil (phi *. float_of_int m))) in
  let stream_candidates =
    if m = 0 then []
    else Hsq_sketch.Spacesaving.candidates t.sketch ~threshold:stream_threshold
  in
  let candidates =
    List.fold_left
      (fun acc p -> List.fold_left (fun s v -> Int_set.add v s) acc (partition_candidates p ~phi))
      (Int_set.of_list stream_candidates) partitions
  in
  (* Zero-I/O pruning: the partition summaries alone bound
     count(v, P) <= rank_upper(v) - rank_lower(v - 1); candidates whose
     summed cheap upper bound misses the threshold never touch disk. *)
  let cheap_upper v =
    let hist =
      List.fold_left
        (fun acc p ->
          let s = Hsq_hist.Partition.summary p in
          let _, hi = Hsq_hist.Partition_summary.rank_bounds s v in
          let lo, _ = Hsq_hist.Partition_summary.rank_bounds s (v - 1) in
          acc + max 0 (hi - lo))
        0 partitions
    in
    let est, _ = if m = 0 then (0, 0) else Hsq_sketch.Spacesaving.estimate t.sketch v in
    hist + est
  in
  (* Verification: exact historical counts + bounded stream counts. *)
  let hits =
    Int_set.fold
      (fun v acc ->
        if cheap_upper v < threshold then acc
        else begin
          let hist = List.fold_left (fun a p -> a + partition_count p v) 0 partitions in
          let est, err = if m = 0 then (0, 0) else Hsq_sketch.Spacesaving.estimate t.sketch v in
          let upper = hist + est in
          let lower = hist + max 0 (est - err) in
          if upper >= threshold then { value = v; lower; upper } :: acc else acc
        end)
      candidates []
  in
  let io = Hsq_storage.Io_stats.diff (Hsq_storage.Io_stats.snapshot stats) before in
  let hits =
    List.sort
      (fun a b ->
        match Int.compare b.upper a.upper with 0 -> Int.compare b.value a.value | c -> c)
      hits
  in
  (hits, { io; candidates = Int_set.cardinal candidates })

let frequent t ~phi =
  frequent_over t ~partitions:(Hsq_hist.Level_index.partitions (Engine.hist t.engine)) ~phi

(* A window is the suffix range ending at the newest step; the sizes it
   may take run back to each partition's first step. *)
let frequent_window t ~window ~phi =
  let hist = Engine.hist t.engine in
  let last = Engine.time_steps t.engine in
  match Hsq_hist.Level_index.partitions_for_range hist ~first:(last - window + 1) ~last with
  | Some partitions -> Ok (frequent_over t ~partitions ~phi)
  | None ->
    let sizes =
      List.rev_map
        (fun (first, _) -> last - first + 1)
        (Hsq_hist.Level_index.partition_boundaries hist)
    in
    Error (Engine.Window_not_aligned sizes)
