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

type tuple = { value : int; g : int; delta : int }

type mode = Fixed | Capped of int (* word budget *)

type t = {
  mutable tuples : tuple array; (* first [size] entries live, sorted by value *)
  mutable size : int;
  mutable n : int;
  mutable epsilon : float;
  mode : mode;
  mutable since_compress : int;
}

let dummy = { value = 0; g = 0; delta = 0 }

let create ~epsilon =
  if not (epsilon > 0.0 && epsilon < 1.0) then invalid_arg "Gk.create: epsilon not in (0,1)";
  { tuples = Array.make 16 dummy; size = 0; n = 0; epsilon; mode = Fixed; since_compress = 0 }

let header_words = 8
let words_per_tuple = 3

let create_capped ~words =
  let min_words = header_words + (8 * words_per_tuple) in
  if words < min_words then
    invalid_arg (Printf.sprintf "Gk.create_capped: budget below %d words" min_words);
  let max_tuples = (words - header_words) / words_per_tuple in
  {
    tuples = Array.make 16 dummy;
    size = 0;
    n = 0;
    epsilon = 1.0 /. (2.0 *. float_of_int max_tuples);
    mode = Capped words;
    since_compress = 0;
  }

(* Tuples are immutable, so a copy of the array is a deep copy. *)
let copy t = { t with tuples = Array.copy t.tuples }

let count t = t.n
let size t = t.size
let epsilon t = t.epsilon
let error_bound t = t.epsilon
let memory_words t = header_words + (words_per_tuple * t.size)

let threshold t = int_of_float (2.0 *. t.epsilon *. float_of_int t.n)

(* Merge right-to-left into successors where the invariant allows.  The
   first tuple (exact minimum) is exempt; the last tuple only ever gains
   weight, so the maximum survives with rmax = n. *)
let compress t =
  if t.size > 2 then begin
    let thr = threshold t in
    let merged = ref [ t.tuples.(t.size - 1) ] in
    for i = t.size - 2 downto 1 do
      match !merged with
      | succ :: rest when t.tuples.(i).g + succ.g + succ.delta <= thr ->
        merged := { succ with g = succ.g + t.tuples.(i).g } :: rest
      | acc -> merged := t.tuples.(i) :: acc
    done;
    merged := t.tuples.(0) :: !merged;
    let new_size = List.length !merged in
    List.iteri (fun i tu -> t.tuples.(i) <- tu) !merged;
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
      if t.tuples.(mid).value <= v then go (mid + 1) hi else go lo mid
  in
  go 0 t.size

let insert_at t i tu =
  if t.size = Array.length t.tuples then begin
    let bigger = Array.make (2 * t.size) dummy in
    Array.blit t.tuples 0 bigger 0 t.size;
    t.tuples <- bigger
  end;
  Array.blit t.tuples i t.tuples (i + 1) (t.size - i);
  t.tuples.(i) <- tu;
  t.size <- t.size + 1

let insert t v =
  let i = upper_bound t v in
  let delta = if i = 0 || i = t.size then 0 else max 0 (threshold t - 1) in
  insert_at t i { value = v; g = 1; delta };
  t.n <- t.n + 1;
  t.since_compress <- t.since_compress + 1;
  let period = max 1 (int_of_float (1.0 /. (2.0 *. t.epsilon))) in
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
   a short run (the engine hands off whatever is buffered before each
   read) would otherwise leave an uncompressed tail in the summary that
   queries extract and memory accounting counts. *)
let insert_sorted_batch t b =
  let k = Array.length b in
  if k > 0 then begin
    let old_size = t.size in
    let new_n = t.n + k in
    let thr = int_of_float (2.0 *. t.epsilon *. float_of_int new_n) in
    let interior_delta = max 0 (thr - 1) in
    let needed = old_size + k in
    if needed > Array.length t.tuples then begin
      let cap = ref (max 16 (Array.length t.tuples)) in
      while !cap < needed do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap dummy in
      Array.blit t.tuples 0 bigger 0 old_size;
      t.tuples <- bigger
    end;
    let old_min = if old_size = 0 then max_int else t.tuples.(0).value in
    let old_max = if old_size = 0 then min_int else t.tuples.(old_size - 1).value in
    let i = ref (old_size - 1) and j = ref (k - 1) in
    let pos = ref (needed - 1) in
    (* Once the batch is exhausted the surviving old prefix is already in
       place, so the merge walks at most size + k positions total. *)
    while !j >= 0 do
      if !i >= 0 && t.tuples.(!i).value > b.(!j) then begin
        t.tuples.(!pos) <- t.tuples.(!i);
        decr i
      end
      else begin
        let v = b.(!j) in
        let delta =
          if old_size = 0 then 0 (* sorted run into an empty sketch: every
                                    element appends past the running max *)
          else if v >= old_max || v < old_min then 0
          else interior_delta
        in
        t.tuples.(!pos) <- { value = v; g = 1; delta };
        decr j
      end;
      decr pos
    done;
    t.size <- needed;
    t.n <- new_n;
    compress t;
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
  let i = ref 0 and rmin = ref t.tuples.(0).g in
  Array.mapi
    (fun k r ->
      if k > 0 && r < rs.(k - 1) then invalid_arg "Gk.query_ranks: ranks decrease";
      let r = if r < 1 then 1 else if r > t.n then t.n else r in
      let lo = float_of_int r -. slack in
      while !i < last && float_of_int !rmin < lo do
        incr i;
        rmin := !rmin + t.tuples.(!i).g
      done;
      t.tuples.(!i).value)
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
        rmin := !rmin + t.tuples.(j).g
      done;
      !rmin + (t.tuples.(i - 1).delta / 2)
    end
  end

(* All live tuples with their rank intervals, for tests and debugging. *)
let dump t =
  let rmin = ref 0 in
  List.init t.size (fun i ->
      rmin := !rmin + t.tuples.(i).g;
      (t.tuples.(i).value, !rmin, !rmin + t.tuples.(i).delta))

let min_value t =
  if t.n = 0 then invalid_arg "Gk.min_value: empty sketch";
  t.tuples.(0).value

let max_value t =
  if t.n = 0 then invalid_arg "Gk.max_value: empty sketch";
  t.tuples.(t.size - 1).value

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
  if a.n = 0 then { a with epsilon = eff_epsilon; tuples = Array.sub b.tuples 0 (max 16 b.size); size = b.size; n = b.n }
  else if b.n = 0 then { b with epsilon = eff_epsilon; tuples = Array.sub a.tuples 0 (max 16 a.size); size = a.size; n = a.n }
  else begin
    (* (value, rmin, rmax) streams of both summaries *)
    let intervals t =
      let out = Array.make t.size (0, 0, 0) in
      let rmin = ref 0 in
      for i = 0 to t.size - 1 do
        rmin := !rmin + t.tuples.(i).g;
        out.(i) <- (t.tuples.(i).value, !rmin, !rmin + t.tuples.(i).delta)
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
    let merged =
      {
        tuples = Array.make (max 16 n_comb) dummy;
        size = n_comb;
        n = a.n + b.n;
        epsilon = eff_epsilon;
        mode = Fixed;
        since_compress = 0;
      }
    in
    let prev_rmin = ref 0 in
    for i = 0 to n_comb - 1 do
      let value, rmin, rmax = combined.(i) in
      (* the union's true count must land on n at the last tuple *)
      let rmin = if i = n_comb - 1 then merged.n else rmin in
      merged.tuples.(i) <- { value; g = max 0 (rmin - !prev_rmin); delta = max 0 (rmax - rmin) };
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
