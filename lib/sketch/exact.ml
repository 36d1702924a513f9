(* Exact quantiles by keeping every element.  Memory is Theta(n) — the
   point of the paper is to avoid this — but it is the reference oracle
   for every approximate structure in the test suites, and a valid
   (if expensive) member of the common sketch interface. *)

type t = {
  mutable data : int array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 16 0; len = 0; sorted = true }

let of_array a =
  let data = Array.copy a in
  Array.sort Int.compare data;
  { data; len = Array.length a; sorted = true }

let insert t v =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  t.sorted <- false

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    Array.sort Int.compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let count t = t.len
let memory_words t = 4 + Array.length t.data
let error_bound _ = 0.0

let query_rank t r =
  if t.len = 0 then invalid_arg "Exact.query_rank: empty sketch";
  ensure_sorted t;
  let r = if r < 1 then 1 else if r > t.len then t.len else r in
  t.data.(r - 1)

let rank_of t v =
  ensure_sorted t;
  (* Upper-bound binary search over the live prefix. *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.data.(mid) <= v then go (mid + 1) hi else go lo mid
  in
  go 0 t.len

let quantile t phi =
  if not (phi > 0.0 && phi <= 1.0) then invalid_arg "Exact.quantile: phi not in (0,1]";
  query_rank t (int_of_float (ceil (phi *. float_of_int t.len)))

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
