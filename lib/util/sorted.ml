(* Utilities over sorted integer arrays.  The rank convention throughout
   the repository follows Definition 1 of the paper:
   rank(e, D) = |{ x in D : x <= e }|. *)

let is_sorted ?len (a : int array) =
  let n = match len with Some n -> n | None -> Array.length a in
  let rec go i = i >= n || (a.(i - 1) <= a.(i) && go (i + 1)) in
  n <= 1 || go 1

(* Number of elements <= v in the sorted array [a], i.e. the index of the
   first element > v.  Classic upper-bound binary search. *)
let rank a v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* Number of elements < v: index of the first element >= v. *)
let rank_strict a v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* Smallest element of [a] whose rank is >= r (the r-th smallest,
   1-indexed); the phi-quantile of Definition 1 for r = ceil(phi * n). *)
let select a r =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sorted.select: empty array";
  let r = if r < 1 then 1 else if r > n then n else r in
  a.(r - 1)

let quantile a phi =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sorted.quantile: empty array";
  if not (phi > 0.0 && phi <= 1.0) then invalid_arg "Sorted.quantile: phi not in (0,1]";
  select a (int_of_float (ceil (phi *. float_of_int n)))

(* End (exclusive) of the ascending run of [a] that starts at [i < n]. *)
let run_end (a : int array) n i =
  let j = ref (i + 1) in
  while !j < n && a.(!j - 1) <= a.(!j) do
    incr j
  done;
  !j

(* Merge src.[lo, mid) and src.[mid, hi), both sorted, into dst.[lo, hi). *)
let merge_into (src : int array) dst lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let x = src.(!i) and y = src.(!j) in
    if x <= y then begin
      dst.(!k) <- x;
      incr i
    end
    else begin
      dst.(!k) <- y;
      incr j
    end;
    incr k
  done;
  if !i < mid then Array.blit src !i dst !k (mid - !i) else Array.blit src !j dst !k (hi - !j)

(* Natural merge sort, bottom-up: each pass finds the ascending runs of
   one buffer and merges adjacent pairs into the other, so k runs take
   ceil(log2 k) passes, O(n log k) in all.  Sorts [a.(0 .. n-1)] between
   [a] and [scratch], both at least [n] long, and returns the one that
   holds the result. *)
let merge_runs a n scratch =
  let src = ref a and dst = ref scratch and runs = ref 2 in
  while !runs > 1 do
    runs := 0;
    let lo = ref 0 in
    while !lo < n do
      let mid = run_end !src n !lo in
      let hi = if mid < n then run_end !src n mid else n in
      merge_into !src !dst !lo mid hi;
      incr runs;
      lo := hi
    done;
    let s = !src in
    src := !dst;
    dst := s
  done;
  !src

(* One scratch array of n words; a sorted input costs one scan and no
   allocation. *)
let sort_runs ?len a =
  let n = match len with Some n -> n | None -> Array.length a in
  if n > 1 && run_end a n 0 < n then begin
    let s = merge_runs a n (Array.make n 0) in
    if s != a then Array.blit s 0 a 0 n
  end

(* Insertion sort within each 16-element block first, so the merge
   passes start from runs of at least 16: for a 512-element hand-off,
   five passes. *)
let sort_into src n dst =
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + 16) in
    for i = !lo + 1 to hi - 1 do
      let x = src.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && src.(!j) > x do
        src.(!j + 1) <- src.(!j);
        decr j
      done;
      src.(!j + 1) <- x
    done;
    lo := hi
  done;
  let s = merge_runs src n dst in
  if s != dst then Array.blit s 0 dst 0 n
