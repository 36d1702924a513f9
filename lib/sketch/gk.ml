(* Greenwald-Khanna epsilon-approximate quantile summary [GK, SIGMOD'01],
   the stream sketch used by the paper (Theorem 1).

   The summary is a value-sorted sequence of tuples (v, g, delta) with
     rmin(i) = sum_{j<=i} g_j   and   rmax(i) = rmin(i) + delta_i,
   maintaining the invariant g_i + delta_i <= floor(2*eps*n).  We use the
   simplified compression (merge tuple i into its successor whenever the
   invariant allows) rather than GK's band construction; the epsilon
   guarantee is identical, only the constant in the space bound differs.
   The minimum tuple is never merged, so the exact stream minimum is
   always available — Algorithm 4 needs it for SS[0].

   A memory-capped variant (for the fixed-budget experiments of Figure 4)
   grows epsilon geometrically and recompresses whenever the summary
   exceeds its word budget; since the invariant threshold only grows,
   correctness under the final epsilon is preserved. *)

type mode = Fixed | Capped of int (* word budget *)

(* The tuples live in three parallel int arrays, so an insert, a
   compress or a copy moves words and allocates no tuple. *)
type t = {
  mutable values : int array; (* first [size] entries live, sorted *)
  mutable gs : int array;
  mutable deltas : int array;
  mutable size : int;
  mutable n : int;
  mutable epsilon : float;
  mode : mode;
  mutable since_compress : int;
}

let initial_capacity = 16

let empty ~epsilon mode =
  {
    values = Array.make initial_capacity 0;
    gs = Array.make initial_capacity 0;
    deltas = Array.make initial_capacity 0;
    size = 0;
    n = 0;
    epsilon;
    mode;
    since_compress = 0;
  }

let create ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then invalid_arg "Gk.create: epsilon not in (0,1)";
  empty ~epsilon Fixed

let header_words = 8
let words_per_tuple = 3

let create_capped ~words =
  let min_words = header_words + (8 * words_per_tuple) in
  if words < min_words then
    invalid_arg (Printf.sprintf "Gk.create_capped: budget below %d words" min_words);
  let max_tuples = (words - header_words) / words_per_tuple in
  empty ~epsilon:(1.0 /. (2.0 *. float_of_int max_tuples)) (Capped words)

let copy t =
  { t with values = Array.copy t.values; gs = Array.copy t.gs; deltas = Array.copy t.deltas }

let count t = t.n
let size t = t.size
let epsilon t = t.epsilon
let error_bound t = t.epsilon
let memory_words t = header_words + (words_per_tuple * t.size)

let threshold t = int_of_float (2.0 *. t.epsilon *. float_of_int t.n)

(* [Array.blit a src a dst len] as a typed loop: [Array.blit] on an
   array in the major heap stores each word through the write barrier,
   several times the cost of a plain int store. *)
let move (a : int array) ~src ~dst len =
  if dst < src then
    for k = 0 to len - 1 do
      a.(dst + k) <- a.(src + k)
    done
  else
    for k = len - 1 downto 0 do
      a.(dst + k) <- a.(src + k)
    done

(* Room for [needed] tuples, doubling the capacity. *)
let reserve t needed =
  let cap = Array.length t.values in
  if needed > cap then begin
    let cap = ref (max initial_capacity cap) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    let grow a =
      let bigger = Array.make !cap 0 in
      Array.blit a 0 bigger 0 t.size;
      bigger
    in
    t.values <- grow t.values;
    t.gs <- grow t.gs;
    t.deltas <- grow t.deltas
  end

(* Merge right-to-left into successors where the invariant allows.  The
   first tuple (exact minimum) is exempt; the last tuple only ever gains
   weight, so the maximum survives with rmax = n.  In place: [w] is the
   slot of the kept tuple the next one may merge into, and the kept
   tuples end up in [w - 1 .. size - 1] (tuple 0 at [w - 1]), then
   slide down to the front. *)
let compress t =
  if t.size > 2 then begin
    let thr = threshold t in
    let values = t.values and gs = t.gs and deltas = t.deltas in
    let w = ref (t.size - 1) in
    for i = t.size - 2 downto 1 do
      let w' = !w in
      if gs.(i) + gs.(w') + deltas.(w') <= thr then gs.(w') <- gs.(w') + gs.(i)
      else begin
        w := w' - 1;
        values.(w' - 1) <- values.(i);
        gs.(w' - 1) <- gs.(i);
        deltas.(w' - 1) <- deltas.(i)
      end
    done;
    let first = !w - 1 in
    values.(first) <- values.(0);
    gs.(first) <- gs.(0);
    deltas.(first) <- deltas.(0);
    let new_size = t.size - first in
    if first > 0 then begin
      move values ~src:first ~dst:0 new_size;
      move gs ~src:first ~dst:0 new_size;
      move deltas ~src:first ~dst:0 new_size
    end;
    t.size <- new_size;
    t.since_compress <- 0
  end

(* Capped mode: coarsen epsilon until the footprint fits the budget. *)
let enforce_budget t =
  match t.mode with
  | Fixed -> ()
  | Capped words ->
    let attempts = ref 0 in
    while memory_words t > words && !attempts < 128 do
      t.epsilon <- t.epsilon *. 1.5;
      if t.epsilon > 0.5 then t.epsilon <- 0.5;
      compress t;
      incr attempts
    done

(* First index with value > v, by binary search over live tuples. *)
let upper_bound t v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.values.(mid) <= v then go (mid + 1) hi else go lo mid
  in
  go 0 t.size

let insert t v =
  let i = upper_bound t v in
  let delta = if i = 0 || i = t.size then 0 else Int.max 0 (threshold t - 1) in
  reserve t (t.size + 1);
  let tail = t.size - i in
  move t.values ~src:i ~dst:(i + 1) tail;
  move t.gs ~src:i ~dst:(i + 1) tail;
  move t.deltas ~src:i ~dst:(i + 1) tail;
  t.values.(i) <- v;
  t.gs.(i) <- 1;
  t.deltas.(i) <- delta;
  t.size <- t.size + 1;
  t.n <- t.n + 1;
  t.since_compress <- t.since_compress + 1;
  let period = Int.max 1 (int_of_float (1.0 /. (2.0 *. t.epsilon))) in
  if t.since_compress >= period then begin
    compress t;
    enforce_budget t
  end
  else
    (* In capped mode the budget must hold at every instant, not just on
       the compression schedule. *)
    match t.mode with
    | Capped words when memory_words t > words ->
      compress t;
      enforce_budget t
    | Fixed | Capped _ -> ()

(* Batched insert of a value-sorted run: one back-to-front merge pass
   places all k elements in O(size + k) instead of k O(size) shifts, the
   hand-off structure that makes concurrent ingest pay (cf. Quancurrent,
   arXiv 2208.09265; Ivkin et al., arXiv 1907.00236).  Deltas replicate
   what sequential ascending insertion of the same run would produce —
   0 for elements landing past the old maximum or below the exact old
   minimum (their ranks are known exactly at placement), the invariant
   threshold minus one elsewhere — except the threshold is taken at the
   post-batch n, which can only enlarge delta; g_i + delta_i <=
   floor(2*eps*n) still holds and rmax stays a valid upper bound.

   Every hand-off ends in a compress, not only every 1/(2*eps) elements:
   the engine hands off at a full ingest buffer and at each step end,
   and a step end's short run would otherwise leave an uncompressed
   tail in the summary that queries extract and memory accounting
   counts.  (A read does not hand off: it merges the pending buffer
   into a copy of the sketch, which takes this same path.)

   The compress rides on the merge: each merged tuple, from the last
   down, goes straight through [compress]'s right-to-left rule, so the
   same tuples merge as a merge-then-compress would, in one pass.  It
   works in place: [w], the last kept slot, stays above the merged
   index [p], and every old tuple not yet merged sits at or below [p].
   The kept tuples end up in [w .. needed - 1] and slide down once. *)
let insert_sorted_batch t b =
  let k = Array.length b in
  if k > 0 then begin
    let old_size = t.size in
    t.n <- t.n + k;
    let thr = threshold t in
    let interior_delta = Int.max 0 (thr - 1) in
    let needed = old_size + k in
    reserve t needed;
    let values = t.values and gs = t.gs and deltas = t.deltas in
    let old_min = if old_size = 0 then max_int else values.(0) in
    let old_max = if old_size = 0 then min_int else values.(old_size - 1) in
    let i = ref (old_size - 1) and j = ref (k - 1) and w = ref needed in
    let v = ref 0 and g = ref 0 and d = ref 0 in
    for p = needed - 1 downto 0 do
      (* The merged tuple at index p. *)
      if !j < 0 || (!i >= 0 && values.(!i) > b.(!j)) then begin
        let s = !i in
        v := values.(s);
        g := gs.(s);
        d := deltas.(s);
        decr i
      end
      else begin
        let x = b.(!j) in
        v := x;
        g := 1;
        d := if x >= old_max || x < old_min then 0 else interior_delta;
        decr j
      end;
      (* The last tuple and the first (the exact minimum) are kept. *)
      let w' = !w in
      if p > 0 && w' < needed && !g + gs.(w') + deltas.(w') <= thr then gs.(w') <- gs.(w') + !g
      else begin
        w := w' - 1;
        values.(w' - 1) <- !v;
        gs.(w' - 1) <- !g;
        deltas.(w' - 1) <- !d
      end
    done;
    let first = !w in
    let new_size = needed - first in
    if first > 0 then begin
      move values ~src:first ~dst:0 new_size;
      move gs ~src:first ~dst:0 new_size;
      move deltas ~src:first ~dst:0 new_size
    end;
    t.size <- new_size;
    if needed > 2 then t.since_compress <- 0;
    enforce_budget t
  end

(* For each rank r, the smallest tuple index with rmin >= r - eps*n; by
   the invariant its rmax is < r + eps*n, so its value answers rank r
   within eps*n.  Non-decreasing ranks give non-decreasing indices, so
   one walk of the tuples answers the whole array. *)
let query_ranks t rs =
  if t.n = 0 then invalid_arg "Gk.query_ranks: empty sketch";
  let slack = t.epsilon *. float_of_int t.n in
  let last = t.size - 1 in
  let i = ref 0 and rmin = ref t.gs.(0) in
  Array.mapi
    (fun k r ->
      if k > 0 && r < rs.(k - 1) then invalid_arg "Gk.query_ranks: ranks decrease";
      let r = if r < 1 then 1 else if r > t.n then t.n else r in
      let lo = float_of_int r -. slack in
      while !i < last && float_of_int !rmin < lo do
        incr i;
        rmin := !rmin + t.gs.(!i)
      done;
      t.values.(!i))
    rs

let query_rank t r =
  if t.n = 0 then invalid_arg "Gk.query_rank: empty sketch";
  (query_ranks t [| r |]).(0)

(* Estimated rank of v: midpoint of [rmin, rmax] of the last tuple <= v. *)
let rank_of t v =
  if t.n = 0 then 0
  else begin
    let i = upper_bound t v in
    if i = 0 then 0
    else begin
      let rmin = ref 0 in
      for j = 0 to i - 1 do
        rmin := !rmin + t.gs.(j)
      done;
      !rmin + (t.deltas.(i - 1) / 2)
    end
  end

(* All live tuples with their rank intervals, for tests and debugging. *)
let dump t =
  let rmin = ref 0 in
  List.init t.size (fun i ->
      rmin := !rmin + t.gs.(i);
      (t.values.(i), !rmin, !rmin + t.deltas.(i)))

let min_value t =
  if t.n = 0 then invalid_arg "Gk.min_value: empty sketch";
  t.values.(0)

let max_value t =
  if t.n = 0 then invalid_arg "Gk.max_value: empty sketch";
  t.values.(t.size - 1)

(* Mergeability [Agarwal et al., Mergeable Summaries, PODS'12]: the
   rank interval of x in A u B is bracketed by
     rmin_A(x) + rmin_B(pred_B(x))  and  rmax_A(x) + rmax_B(succ_B(x)),
   so re-encoding those combined intervals as (g, delta) tuples yields a
   valid summary of the union with additive error
   eps_A * n_A + eps_B * n_B <= max(eps) * (n_A + n_B).  This is the
   building block for sketching several streams independently (e.g. one
   per ingest node) and combining at query time. *)
let merge a b =
  if a.mode <> Fixed || b.mode <> Fixed then
    invalid_arg "Gk.merge: only fixed-epsilon sketches are mergeable";
  (* The union's error rate is the additive one: eps_eff * (n_a + n_b)
     = eps_a * n_a + eps_b * n_b.  (For empty sides, keep the other's.) *)
  let eff_epsilon =
    if a.n + b.n = 0 then Float.max a.epsilon b.epsilon
    else
      ((a.epsilon *. float_of_int a.n) +. (b.epsilon *. float_of_int b.n))
      /. float_of_int (a.n + b.n)
  in
  let eff_epsilon = if eff_epsilon <= 0.0 then Float.max a.epsilon b.epsilon else eff_epsilon in
  (* A copy of the non-empty side, under the union's epsilon. *)
  let adopt base src =
    let live a = Array.sub a 0 (max initial_capacity src.size) in
    {
      base with
      epsilon = eff_epsilon;
      values = live src.values;
      gs = live src.gs;
      deltas = live src.deltas;
      size = src.size;
      n = src.n;
    }
  in
  if a.n = 0 then adopt a b
  else if b.n = 0 then adopt b a
  else begin
    (* (value, rmin, rmax) streams of both summaries *)
    let intervals t =
      let out = Array.make t.size (0, 0, 0) in
      let rmin = ref 0 in
      for i = 0 to t.size - 1 do
        rmin := !rmin + t.gs.(i);
        out.(i) <- (t.values.(i), !rmin, !rmin + t.deltas.(i))
      done;
      out
    in
    let ia = intervals a and ib = intervals b in
    (* For x taken from one side, add the other side's contribution:
       rmin of its predecessor, rmax of its successor. *)
    let contribution other x =
      let n_other = Array.length other in
      (* largest index with value <= x *)
      let rec ub lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          let v, _, _ = other.(mid) in
          if v <= x then ub (mid + 1) hi else ub lo mid
      in
      let i = ub 0 n_other in
      let lo = if i = 0 then 0 else (fun (_, rmin, _) -> rmin) other.(i - 1) in
      let hi =
        if i >= n_other then (fun (_, _, rmax) -> rmax) other.(n_other - 1)
        else (fun (_, _, rmax) -> rmax) other.(i)
      in
      (lo, hi)
    in
    let combined =
      Array.append
        (Array.map
           (fun (v, rmin, rmax) ->
             let lo, hi = contribution ib v in
             (v, rmin + lo, rmax + hi))
           ia)
        (Array.map
           (fun (v, rmin, rmax) ->
             let lo, hi = contribution ia v in
             (v, rmin + lo, rmax + hi))
           ib)
    in
    Array.sort
      (fun (v1, rmin1, rmax1) (v2, rmin2, rmax2) ->
        if v1 <> v2 then Int.compare v1 v2
        else if rmin1 <> rmin2 then Int.compare rmin1 rmin2
        else Int.compare rmax1 rmax2)
      combined;
    (* Re-encode as (g, delta); enforce monotone rmin/rmax first (ties
       in value can interleave the two sides' intervals). *)
    let n_comb = Array.length combined in
    for i = 1 to n_comb - 1 do
      let v, rmin, rmax = combined.(i) in
      let _, prev_rmin, _ = combined.(i - 1) in
      combined.(i) <- (v, max rmin prev_rmin, rmax)
    done;
    for i = n_comb - 2 downto 0 do
      let v, rmin, rmax = combined.(i) in
      let _, _, next_rmax = combined.(i + 1) in
      combined.(i) <- (v, rmin, min rmax next_rmax)
    done;
    let merged = empty ~epsilon:eff_epsilon Fixed in
    reserve merged n_comb;
    merged.size <- n_comb;
    merged.n <- a.n + b.n;
    let prev_rmin = ref 0 in
    for i = 0 to n_comb - 1 do
      let value, rmin, rmax = combined.(i) in
      (* the union's true count must land on n at the last tuple *)
      let rmin = if i = n_comb - 1 then merged.n else rmin in
      merged.values.(i) <- value;
      merged.gs.(i) <- max 0 (rmin - !prev_rmin);
      merged.deltas.(i) <- max 0 (rmax - rmin);
      prev_rmin := max rmin !prev_rmin
    done;
    compress merged;
    merged
  end

let sketch : (module Quantile_sketch.S with type t = t) =
  (module struct
    type nonrec t = t

    let insert = insert
    let count = count
    let memory_words = memory_words
    let query_rank = query_rank
    let rank_of = rank_of
    let error_bound = error_bound
  end)
