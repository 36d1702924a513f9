(* The merged summary TS of the entire dataset T = H u R, with per-entry
   rank bounds L_i and U_i (Section 2.3.1, Figure 3, Lemma 2).

   For each summary value v:

     L(v) = sum_s stream_lower_s(v) + sum_P hist_lower_P(v)
     U(v) = sum_s stream_upper_s(v) + sum_P hist_upper_P(v)

   The historical contributions use the *exact* indices stored in the
   partition summaries, which tightens (never loosens) the paper's
   m_P*eps1*(alpha_P - 1) / m_P*eps1*alpha_P bounds; each stream's
   contribution follows Lemma 2 verbatim.  A sharded store has one
   stream summary per shard: each brackets its own rank, so the sums
   bracket the union rank, and a lone engine is the case K = 1.

   The historical half is factored out as an explicit aggregate
   ({!hist_agg}): the summed bounds A(v) = (sum_P lower_P(v),
   sum_P upper_P(v)) form a step function of v that changes only at the
   distinct partition-summary values, because within a partition
   [rank_bounds] depends only on how many of that summary's entries are
   <= v.  The aggregate materialises that step function once — a k-way
   merge of the P summary-entry arrays with incrementally maintained
   prefix sums, O(S_hist log P) — and [build] reads it with one cursor
   instead of P binary searches per distinct value.  The engine caches
   both the aggregate and the built TS; a cache miss runs the same
   [build] a cache-bypassing caller does, so their entries are bitwise
   identical. *)

type t = {
  values : int array; (* ascending, distinct *)
  lower : float array; (* L_i: rank(values.(i), T) >= lower.(i) *)
  upper : float array; (* U_i: rank(values.(i), T) <= upper.(i) *)
  n_total : int; (* |T| = n + m *)
  m_stream : int;
  hist_elements : int;
  streams : Stream_summary.t list; (* the stream summaries built over *)
}

(* --- Historical aggregate --------------------------------------------- *)

type hist_agg = {
  hvalues : int array; (* distinct summary values across partitions, ascending *)
  hlo : int array; (* hlo.(k) = sum_P lower_P(hvalues.(k)) *)
  hhi : int array; (* hhi.(k) = sum_P upper_P(hvalues.(k)) *)
  base_lo : int; (* sums for v below every summary value... *)
  base_hi : int; (* ...always (0, 0): entry 0 of a summary has index 0 *)
  agg_hist_elements : int;
}

(* K-way merge of the partition-summary entry arrays, maintaining the
   summed bounds incrementally.  When partition p's consumed-entry
   count advances from a to a+1, its contribution changes by a delta
   computable from two adjacent entries (Partition_summary.rank_bounds:
   lower_p(a) = entries.(a-1).index + 1, or 0 at a = 0;
   upper_p(a) = entries.(a).index, or the partition size at the end),
   so each of the S_hist entries costs O(log P) heap work plus O(1)
   arithmetic. *)
let hist_aggregate ~partitions =
  let open Hsq_storage.Kway_merge in
  let summaries =
    Array.of_list (List.map (fun p -> Hsq_hist.Partition.summary p) partitions)
  in
  let nparts = Array.length summaries in
  let ents = Array.map Hsq_hist.Partition_summary.entries summaries in
  let sizes = Array.map Hsq_hist.Partition_summary.partition_size summaries in
  let hist_elements = Array.fold_left ( + ) 0 sizes in
  let total_entries = Array.fold_left (fun acc e -> acc + Array.length e) 0 ents in
  let pos = Array.make (max 1 nparts) 0 in
  (* Partition p's key is the value of its next unconsumed entry. *)
  let keys = Array.make nparts 0 in
  let heap = Heap.create keys in
  for p = 0 to nparts - 1 do
    if Array.length ents.(p) > 0 then begin
      keys.(p) <- ents.(p).(0).Hsq_hist.Partition_summary.value;
      Heap.push heap p
    end
  done;
  (* Contributions at pos = 0 everywhere: lower is 0 by definition and
     upper is entry 0's index, which is always 0 (summaries capture the
     partition minimum at slot 0) — kept explicit for robustness. *)
  let base_lo = ref 0 and base_hi = ref 0 in
  for p = 0 to nparts - 1 do
    let e = ents.(p) in
    base_hi := !base_hi + (if Array.length e = 0 then sizes.(p) else e.(0).Hsq_hist.Partition_summary.index)
  done;
  let hvalues = Array.make (max 1 total_entries) 0 in
  let hlo = Array.make (max 1 total_entries) 0 in
  let hhi = Array.make (max 1 total_entries) 0 in
  let k = ref 0 in
  let sum_lo = ref !base_lo and sum_hi = ref !base_hi in
  while not (Heap.is_empty heap) do
    let v = keys.(Heap.top heap) in
    (* Consume every entry equal to v (duplicates within a summary and
       across partitions), advancing the owning pointers. *)
    while (not (Heap.is_empty heap)) && keys.(Heap.top heap) = v do
      let p = Heap.top heap in
      let e = ents.(p) in
      let len = Array.length e in
      let a = pos.(p) in
      let old_lo = if a = 0 then 0 else e.(a - 1).Hsq_hist.Partition_summary.index + 1 in
      let new_lo = e.(a).Hsq_hist.Partition_summary.index + 1 in
      let old_hi = if a = len then sizes.(p) else e.(a).Hsq_hist.Partition_summary.index in
      let new_hi = if a + 1 = len then sizes.(p) else e.(a + 1).Hsq_hist.Partition_summary.index in
      sum_lo := !sum_lo + new_lo - old_lo;
      sum_hi := !sum_hi + new_hi - old_hi;
      pos.(p) <- a + 1;
      if a + 1 < len then begin
        keys.(p) <- e.(a + 1).Hsq_hist.Partition_summary.value;
        Heap.fix_top heap
      end
      else ignore (Heap.pop heap)
    done;
    hvalues.(!k) <- v;
    hlo.(!k) <- !sum_lo;
    hhi.(!k) <- !sum_hi;
    incr k
  done;
  {
    hvalues = Array.sub hvalues 0 !k;
    hlo = Array.sub hlo 0 !k;
    hhi = Array.sub hhi 0 !k;
    base_lo = !base_lo;
    base_hi = !base_hi;
    agg_hist_elements = hist_elements;
  }

(* --- TS construction --------------------------------------------------- *)

(* One merge walk over K + 1 sorted runs, the aggregate's values and each
   stream's, with one cursor per run.  At each distinct value v, taken as
   the least value a cursor has not consumed, every cursor moves past its
   run's copies of v, so each has consumed exactly its run's values <= v:
   the aggregate cursor is count_le(v) into hlo/hhi, and stream s's
   cursor is its alpha_S.  The stream bounds are summed in stream order
   from 0.0 (the columns' initial value) in place.  O(S·K) for S values,
   with no allocation beyond the runs, the cursors and the columns. *)
let build ~agg ~streams =
  let ss = Array.of_list streams in
  let runs = Array.of_list (agg.hvalues :: List.map Stream_summary.values streams) in
  let nruns = Array.length runs in
  let pos = Array.make nruns 0 in
  let cap = Array.fold_left (fun acc r -> acc + Array.length r) 0 runs in
  let values = Array.make cap 0 in
  let lower = Array.make cap 0.0 and upper = Array.make cap 0.0 in
  let left = ref cap and n = ref 0 in
  while !left > 0 do
    let v = ref max_int in
    for r = 0 to nruns - 1 do
      let run = runs.(r) and p = pos.(r) in
      if p < Array.length run && run.(p) < !v then v := run.(p)
    done;
    let v = !v in
    for r = 0 to nruns - 1 do
      let run = runs.(r) and p = ref pos.(r) in
      while !p < Array.length run && run.(!p) = v do
        incr p
      done;
      left := !left - (!p - pos.(r));
      pos.(r) <- !p
    done;
    let i = pos.(0) and k = !n in
    for s = 0 to Array.length ss - 1 do
      Stream_summary.add_bounds ss.(s) pos.(s + 1) lower upper k
    done;
    values.(k) <- v;
    lower.(k) <- float_of_int (if i = 0 then agg.base_lo else agg.hlo.(i - 1)) +. lower.(k);
    upper.(k) <- float_of_int (if i = 0 then agg.base_hi else agg.hhi.(i - 1)) +. upper.(k);
    n := k + 1
  done;
  let m_stream = Array.fold_left (fun acc s -> acc + Stream_summary.stream_size s) 0 ss in
  let trim a = if !n = cap then a else Array.sub a 0 !n in
  {
    values = trim values;
    lower = trim lower;
    upper = trim upper;
    n_total = agg.agg_hist_elements + m_stream;
    m_stream;
    hist_elements = agg.agg_hist_elements;
    streams;
  }

let columns t = (t.values, t.lower, t.upper)
let size t = Array.length t.values
let n_total t = t.n_total
let m_stream t = t.m_stream
let hist_elements t = t.hist_elements
let streams t = t.streams

(* The smallest i with col.(i) >= rank, or col.(i) > rank when [above]
   (the length when none): L and U are non-decreasing in the value. *)
let search ~above (col : float array) rank =
  let r = float_of_int rank in
  let lo = ref 0 and hi = ref (Array.length col) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = col.(mid) in
    if (if above then x > r else x >= r) then hi := mid else lo := mid + 1
  done;
  !lo

(* Rank window of an arbitrary value against the union: L from the
   largest entry with value <= v (no smaller entry can push the rank
   lower), U from the smallest entry with value >= v.  Used to compute
   the *current* rank-error bound of a best-so-far answer when a query
   is cut short (deadline, degraded fallback): |rank(v) - r| is at most
   max(U(v) - r, r - L(v)). *)
let rank_window t v =
  let n = Array.length t.values in
  if n = 0 then invalid_arg "Union_summary.rank_window: empty summary";
  let i = Hsq_util.Sorted.rank_strict t.values v in
  let lower =
    if i < n && t.values.(i) = v then t.lower.(i)
    else if i = 0 then 0.0 (* below the union minimum *)
    else t.lower.(i - 1)
  in
  let upper = if i = n then float_of_int t.n_total (* above the union maximum *) else t.upper.(i) in
  (lower, upper)

(* Column-for-column equality (exact float comparison): the consistency
   contract between cached and fresh builds checked by the fuzz suite. *)
let equal a b =
  a.n_total = b.n_total && a.m_stream = b.m_stream
  && a.hist_elements = b.hist_elements
  && a.values = b.values && a.lower = b.lower && a.upper = b.upper

(* Algorithm 5: the smallest j with L_j >= r, else the last entry. *)
let quick_select t ~rank =
  if Array.length t.values = 0 then invalid_arg "Union_summary.quick_select: empty summary";
  let j = search ~above:false t.lower rank in
  t.values.(if j = Array.length t.values then j - 1 else j)

(* Algorithm 7 (GenerateFilters): values u <= v bracketing the element
   of the requested rank: rank(u, T) <= r <= rank(v, T).

   u is the largest entry with U <= r; if every U exceeds r, any value
   below the global minimum works, so we use min - 1.  v is the
   smallest entry with L >= r; since L of the last entry is >= N - eps*N
   and r <= N, the last entry is a safe fallback. *)
let filters t ~rank =
  let n = Array.length t.values in
  if n = 0 then invalid_arg "Union_summary.filters: empty summary";
  let above = search ~above:true t.upper rank in
  let u =
    if above > 0 then t.values.(above - 1)
    else
      (* No value lies below min_int: the bisection's last step answers
         u itself when its rank already reaches r. *)
      let m = t.values.(0) in
      if m = min_int then m else m - 1
  in
  let j = search ~above:false t.lower rank in
  let v = t.values.(if j = n then n - 1 else j) in
  (u, if v < u then u else v)
