(* Heavy hitters over archived history.

   The paper names heavy hitters alongside quantiles as the analytical
   primitives missing from data-stream warehouses (Section 1) and
   leaves "other classes of aggregates in this model" as future work
   (Section 4).  This module answers them from the sorted on-disk
   partitions alone, with no extra state.

   Query: all values with frequency >= phi * N over partitions of total
   size N.  A value with count >= phi*N must, by pigeonhole, have count
   >= phi*|P| in some partition P.  Within a sorted partition any value
   occupying more than s = floor(phi * n_P) consecutive slots covers an
   index that is a multiple of s, so probing every s-th element yields
   a complete candidate set with ~1/phi block reads per partition.
   Exact per-partition counts for each candidate are then two
   summary-bounded binary searches (rank(v) - rank(v-1)).  The argument
   holds for any set of partitions, so the partitions of every shard's
   read replica answer a shard group. *)

type hit = {
  value : int;
  lower : int;
  upper : int;
}

type report = {
  io : Hsq_storage.Io_stats.counters;
  candidates : int; (* values probed before verification *)
}

(* Exact count of [v] in partition [p]: rank(v) - rank(v-1), each via a
   summary-bounded binary search.  Nothing lies below min_int, where
   v - 1 would wrap to max_int. *)
let partition_count p v =
  Hsq_hist.Partition.rank p v - if v = min_int then 0 else Hsq_hist.Partition.rank p (v - 1)

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

let frequent ~stats partitions ~phi =
  if not (phi > 0.0 && phi < 1.0) then invalid_arg "Heavy_hitters.frequent: phi not in (0,1)";
  let total = List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) 0 partitions in
  if total = 0 then invalid_arg "Heavy_hitters.frequent: no data";
  let threshold = max 1 (int_of_float (ceil (phi *. float_of_int total))) in
  let search () =
    let candidates =
      List.fold_left
        (fun acc p -> List.fold_left (fun s v -> Int_set.add v s) acc (partition_candidates p ~phi))
        Int_set.empty partitions
    in
    (* Zero-I/O pruning: the partition summaries alone bound
       count(v, P) <= rank_upper(v) - rank_lower(v - 1); candidates whose
       summed cheap upper bound misses the threshold never touch disk. *)
    let cheap_upper v =
      List.fold_left
        (fun acc p ->
          let s = Hsq_hist.Partition.summary p in
          let _, hi = Hsq_hist.Partition_summary.rank_bounds s v in
          let lo =
            if v = min_int then 0 else fst (Hsq_hist.Partition_summary.rank_bounds s (v - 1))
          in
          acc + max 0 (hi - lo))
        0 partitions
    in
    let hits =
      Int_set.fold
        (fun v acc ->
          if cheap_upper v < threshold then acc
          else
            let count = List.fold_left (fun a p -> a + partition_count p v) 0 partitions in
            if count >= threshold then { value = v; lower = count; upper = count } :: acc else acc)
        candidates []
    in
    (hits, Int_set.cardinal candidates)
  in
  let (hits, candidates), io = Hsq_storage.Io_stats.measure_all stats search in
  let hits =
    List.sort
      (fun a b ->
        match Int.compare b.upper a.upper with 0 -> Int.compare b.value a.value | c -> c)
      hits
  in
  (hits, { io; candidates })
