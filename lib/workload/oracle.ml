(* Ground truth for experiments: keeps every element, answers exact
   ranks and quantiles, and scores approximate answers with the paper's
   relative-error metric (Section 3.1).

   A returned value v may not occur in the data at all (Algorithm 8
   bisects the value domain), so the "rank error" of answering rank r
   with v is the distance from r to the interval
   [ |{x < v}| + 1, |{x <= v}| ] of ranks v legitimately answers;
   it is 0 when v is the Definition-1 answer for r. *)

type t = { exact : Hsq_sketch.Exact.t }

let create () = { exact = Hsq_sketch.Exact.create () }
let add t v = Hsq_sketch.Exact.insert t.exact v
let add_batch t batch = Array.iter (add t) batch
let count t = Hsq_sketch.Exact.count t.exact
let rank_of t v = Hsq_sketch.Exact.rank_of t.exact v
let quantile t phi = Hsq_sketch.Exact.quantile t.exact phi
let select t r = Hsq_sketch.Exact.query_rank t.exact r

let rank_error t ~rank ~value =
  let upper = rank_of t value in
  (* For a value absent from the data, |{x < v}| = |{x <= v}|, and the
     value legitimately answers exactly rank(v); min collapses the
     interval to that point instead of leaving it empty.  Nothing lies
     below min_int (and [min_int - 1] would wrap to max_int). *)
  let below = if value = min_int then 0 else rank_of t (value - 1) in
  let lower = min upper (below + 1) in
  if rank < lower then lower - rank else if rank > upper then rank - upper else 0

let relative_error t ~phi ~value =
  let n = count t in
  if n = 0 then invalid_arg "Oracle.relative_error: empty oracle";
  let rank = int_of_float (ceil (phi *. float_of_int n)) in
  float_of_int (rank_error t ~rank ~value) /. (phi *. float_of_int n)
