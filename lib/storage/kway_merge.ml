(* Multi-way merge of sorted runs into a single run, as used by
   Algorithm 3 line 10 ("Multi-way merge the sorted partitions at level l
   into a single sorted partition using a single pass").

   Memory: one block buffer per input cursor plus one output block.
   I/O: every input block is read once (sequential), every output block
   written once. *)

(* Minimal binary min-heap over (value, source) pairs; ties break on
   the source index, which makes the merge stable across runs listed
   oldest-first. *)
module Heap = struct
  type entry = { value : int; src : int }
  type t = { mutable data : entry array; mutable size : int }

  let create capacity = { data = Array.make (max 1 capacity) { value = 0; src = 0 }; size = 0 }
  let is_empty h = h.size = 0

  let top h =
    if h.size = 0 then invalid_arg "Heap.top: empty heap";
    h.data.(0)

  let less a b = a.value < b.value || (a.value = b.value && a.src < b.src)

  let push h e =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) e in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty heap";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
      if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.data.(!smallest) in
        h.data.(!smallest) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
end

let merge ?(observe = fun _ _ -> ()) dev runs =
  (match runs with [] | [ _ ] -> invalid_arg "Kway_merge.merge: need at least two runs" | _ -> ());
  List.iter
    (fun r ->
      if Run.device r != dev then invalid_arg "Kway_merge.merge: run on a different device")
    runs;
  let total = List.fold_left (fun acc r -> acc + Run.length r) 0 runs in
  let cursors = Array.of_list (List.map Run.cursor runs) in
  let heap = Heap.create (Array.length cursors) in
  Array.iteri
    (fun i c ->
      match Run.cursor_peek c with
      | Some v -> Heap.push heap { value = v; src = i }
      | None -> ())
    cursors;
  let out = Run.writer dev ~length:total in
  let emitted = ref 0 in
  while not (Heap.is_empty heap) do
    let { Heap.value; src } = Heap.pop heap in
    Run.writer_push out value;
    observe !emitted value;
    incr emitted;
    let c = cursors.(src) in
    Run.cursor_advance c;
    match Run.cursor_peek c with
    | Some v -> Heap.push heap { value = v; src }
    | None -> ()
  done;
  Run.writer_finish out
