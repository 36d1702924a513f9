(* In-memory summary of one sorted partition (Algorithm 2, "HS^i_l").

   The summary holds beta1 elements: S[0] is the partition minimum and
   S[i] is the element at rank i * eps1 * eta (1-based), where
   eps1 = 1/(beta1 - 1).  Each entry records the element's exact 0-based
   index in the partition (the paper: "its rank within the corresponding
   partition is explicitly computed and stored") — queries use these
   exact positions both to bound rank intervals (Lemma 2) and to narrow
   the on-disk binary searches of Algorithm 8.

   Summaries are built from the sorted batch in memory, or
   incrementally through the observe hook of Kway_merge, so they
   require no disk reads of their own. *)

type entry = { value : int; index : int (* 0-based position in the partition *) }

type t = {
  entries : entry array;
  partition_size : int;
}

(* A builder receives every partition element, in order, exactly once. *)
type builder = {
  beta1 : int;
  size : int;
  targets : int array; (* ascending 0-based indices to capture *)
  mutable next_target : int;
  mutable captured : entry list;
}

(* Index captured for summary slot i over a partition of [size]
   elements: slot 0 is index 0; slot i is 1-based rank
   ceil(i * size / (beta1 - 1)) clamped to the partition. *)
let target_index ~beta1 ~size i =
  if i = 0 then 0
  else begin
    let rank = float_of_int i *. float_of_int size /. float_of_int (beta1 - 1) in
    min (size - 1) (max 0 (int_of_float (ceil rank) - 1))
  end

let builder ~beta1 ~size =
  if beta1 < 2 then invalid_arg "Partition_summary.builder: beta1 must be >= 2";
  if size < 1 then invalid_arg "Partition_summary.builder: empty partition";
  let raw = Array.init beta1 (target_index ~beta1 ~size) in
  (* Deduplicate targets (tiny partitions can collapse slots). *)
  let dedup = ref [] in
  Array.iter (fun ix -> match !dedup with x :: _ when x = ix -> () | _ -> dedup := ix :: !dedup) raw;
  let targets = Array.of_list (List.rev !dedup) in
  { beta1; size; targets; next_target = 0; captured = [] }

let builder_feed b index value =
  if b.next_target < Array.length b.targets && index = b.targets.(b.next_target) then begin
    b.captured <- { value; index } :: b.captured;
    b.next_target <- b.next_target + 1
  end

let builder_finish b =
  if b.next_target <> Array.length b.targets then
    invalid_arg "Partition_summary.builder_finish: not all elements were fed";
  { entries = Array.of_list (List.rev b.captured); partition_size = b.size }

(* Rebuild a summary from an on-disk run (the recovery path): probes
   only the beta1 target positions, costing at most beta1 block reads. *)
let of_run ~beta1 run =
  let size = Hsq_storage.Run.length run in
  let b = builder ~beta1 ~size in
  Array.iter (fun ix -> builder_feed b ix (Hsq_storage.Run.get run ix)) b.targets;
  { entries = Array.of_list (List.rev b.captured); partition_size = size }

let of_sorted_array ~beta1 ?len elements =
  let size = match len with Some n -> n | None -> Array.length elements in
  let b = builder ~beta1 ~size in
  for i = 0 to size - 1 do
    builder_feed b i elements.(i)
  done;
  builder_finish b

(* Degenerate summary for a partition whose blocks cannot (or must not)
   be read — a quarantined partition being restored from the sidecar.
   No entries means maximal uncertainty: [rank_bounds] answers
   [(0, size)] for every value, which is exactly the Lemma 2 widening a
   quarantined partition contributes, and no query path will ever probe
   the partition through it. *)
let unavailable ~size =
  if size < 1 then invalid_arg "Partition_summary.unavailable: empty partition";
  { entries = [||]; partition_size = size }

let entries t = t.entries
let partition_size t = t.partition_size
let length t = Array.length t.entries

(* 3 words per entry: value, index, disk pointer (the pointer is
   derivable from the index in our runs but the paper stores it, so we
   charge for it). *)
let memory_words t = 4 + (3 * Array.length t.entries)

(* Number of summary entries with value <= v ("alpha_P" in Lemma 2). *)
let count_le t v =
  let e = t.entries in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if e.(mid).value <= v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length e)

(* Exact bounds on rank(v, P) derived from the captured indices:
   the largest entry <= v sits at index j, so rank(v) >= j + 1; the
   smallest entry > v sits at index j', so rank(v) <= j'. *)
let rank_bounds t v =
  let a = count_le t v in
  let lower = if a = 0 then 0 else t.entries.(a - 1).index + 1 in
  let upper = if a = Array.length t.entries then t.partition_size else t.entries.(a).index in
  (lower, upper)

(* Search window inside the partition for Algorithm 8: rank(z, P) lies
   in [lo, hi] for every z in [u, v], since the largest entry <= u sits
   at index lo - 1 and the smallest entry > v at index hi.  Those two
   entries are the window's anchors, the values a partition search
   interpolates between; each is unknown at the partition's ends. *)
type window = { lo : int; hi : int; ylo : int option; yhi : int option }

let search_window t ~u ~v =
  let e = t.entries in
  let a = count_le t u and b = count_le t v in
  let lo = if a = 0 then 0 else e.(a - 1).index + 1 in
  let ylo = if a = 0 then None else Some e.(a - 1).value in
  if b = Array.length e then { lo; hi = t.partition_size; ylo; yhi = None }
  else if e.(b).index < lo then { lo; hi = lo; ylo; yhi = None }
  else { lo; hi = e.(b).index; ylo; yhi = Some e.(b).value }
