(* Utilities over sorted integer arrays.  The rank convention throughout
   the repository follows Definition 1 of the paper:
   rank(e, D) = |{ x in D : x <= e }|. *)

let is_sorted ?len (a : int array) =
  let n = match len with Some n -> n | None -> Array.length a in
  let rec go i = i >= n || (a.(i - 1) <= a.(i) && go (i + 1)) in
  n <= 1 || go 1

(* Number of elements <= v in the sorted array [a], i.e. the index of the
   first element > v.  Classic upper-bound binary search. *)
let rank (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

(* Number of elements < v: index of the first element >= v. *)
let rank_strict (a : int array) v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

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

(* [Array.blit src 0 dst 0 n] as a typed loop: [Array.blit] into an
   array in the major heap stores each word through the write barrier,
   several times the cost of a plain int store. *)
let copy (src : int array) (dst : int array) n =
  for i = 0 to n - 1 do
    dst.(i) <- src.(i)
  done

let radix_words = 256
let radix_counts () = Array.make radix_words 0

(* LSD radix sort of [a.(0 .. n-1)] on the 8-bit digits of
   [x lxor min_int], whose unsigned order is the signed order of [x]:
   per digit, one counting pass and one stable scatter.  One scan first
   ors every value's difference from [a.(0)], and a digit that mask
   leaves zero (no two values differ in it) is skipped.  Ping-pongs
   between [a] and [b] with [counts] as the histogram, and returns the
   array that holds the result.  The hot loops index without bounds
   checks, so the sizes are checked once here: a digit is below
   [radix_words], and a scatter slot is a prefix count below [n]. *)
let radix_sort ~who (a : int array) (b : int array) n (counts : int array) =
  if n < 0 || n > Array.length a || n > Array.length b then invalid_arg (who ^ ": bad length");
  if Array.length counts < radix_words then invalid_arg (who ^ ": counts too short");
  let src = ref a and dst = ref b in
  if n > 1 then begin
    let x0 = a.(0) and diff = ref 0 in
    for i = 1 to n - 1 do
      diff := !diff lor (a.(i) lxor x0)
    done;
    let shift = ref 0 in
    while !shift < Sys.int_size && !diff lsr !shift <> 0 do
      let sh = !shift in
      if (!diff lsr sh) land 255 <> 0 then begin
        let s = !src and d = !dst in
        for k = 0 to radix_words - 1 do
          counts.(k) <- 0
        done;
        for i = 0 to n - 1 do
          let k = ((Array.unsafe_get s i lxor min_int) lsr sh) land 255 in
          Array.unsafe_set counts k (Array.unsafe_get counts k + 1)
        done;
        let sum = ref 0 in
        for k = 0 to radix_words - 1 do
          let c = counts.(k) in
          counts.(k) <- !sum;
          sum := !sum + c
        done;
        for i = 0 to n - 1 do
          let x = Array.unsafe_get s i in
          let k = ((x lxor min_int) lsr sh) land 255 in
          let p = Array.unsafe_get counts k in
          Array.unsafe_set d p x;
          Array.unsafe_set counts k (p + 1)
        done;
        src := d;
        dst := s
      end;
      shift := sh + 8
    done
  end;
  !src

(* A sorted input costs one scan and no allocation; any other is
   radix-sorted through one scratch array of n words and a fresh
   histogram. *)
let sort_runs ?len a =
  let n = match len with Some n -> n | None -> Array.length a in
  if n < 0 || n > Array.length a then invalid_arg "Sorted.sort_runs: bad length";
  if not (is_sorted ~len:n a) then begin
    let scratch = Array.make n 0 in
    let s = radix_sort ~who:"Sorted.sort_runs" a scratch n (radix_counts ()) in
    if s != a then copy s a n
  end

let sort_into ~counts src n dst =
  let s = radix_sort ~who:"Sorted.sort_into" src dst n counts in
  if s != dst then copy s dst n
