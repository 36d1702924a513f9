(* Multi-way merge of sorted runs into a single run, as used by
   Algorithm 3 line 10 ("Multi-way merge the sorted partitions at level l
   into a single sorted partition using a single pass").

   Memory: one block buffer per input plus one output block.
   I/O: every input block is read once (sequential), every output block
   written once. *)

(* Binary min-heap of source indices, ordered by the caller's key array
   and then by index, which makes the merge stable across runs listed
   oldest-first.  Each source is in the heap at most once, so the heap
   never grows past the key array, and a source that stays in the heap
   with a larger key is re-seated in place ([fix_top]) rather than
   popped and pushed. *)
module Heap = struct
  type t = { keys : int array; slots : int array; mutable size : int }

  let create keys = { keys; slots = Array.make (max 1 (Array.length keys)) 0; size = 0 }
  let is_empty h = h.size = 0

  let less h a b =
    let ka = h.keys.(a) and kb = h.keys.(b) in
    ka < kb || (ka = kb && a < b)

  let push h src =
    if h.size = Array.length h.slots then invalid_arg "Heap.push: full heap";
    let slots = h.slots in
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && less h src slots.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      slots.(!i) <- slots.(parent);
      i := parent
    done;
    slots.(!i) <- src

  (* Move the source at slot [i] down to where its key belongs.  The
     merge calls this once per element, so it compares the keys in
     place rather than through [less]. *)
  let sift_down h i =
    let slots = h.slots and keys = h.keys and size = h.size in
    let src = slots.(i) in
    let key = keys.(src) in
    let i = ref i and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c = ref l and cs = ref slots.(l) in
        let ck = ref keys.(!cs) in
        let r = l + 1 in
        if r < size then begin
          let rs = slots.(r) in
          let rk = keys.(rs) in
          if rk < !ck || (rk = !ck && rs < !cs) then begin
            c := r;
            cs := rs;
            ck := rk
          end
        end;
        if !ck < key || (!ck = key && !cs < src) then begin
          slots.(!i) <- !cs;
          i := !c
        end
        else continue := false
      end
    done;
    slots.(!i) <- src

  let top h =
    if h.size = 0 then invalid_arg "Heap.top: empty heap";
    h.slots.(0)

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty heap";
    let top = h.slots.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.slots.(0) <- h.slots.(h.size);
      sift_down h 0
    end;
    top

  let fix_top h =
    if h.size = 0 then invalid_arg "Heap.fix_top: empty heap";
    sift_down h 0
end

(* Source [s] holds its block [blk.(s)] in [bufs.(s)], whose first
   [ends.(s)] slots are elements (the rest pad the run's last block); its
   next element sits at [at.(s)] and is its heap key.  A block is read
   when the merge first needs its first element — the reads and writes
   fall in the order a per-element cursor made them. *)
let merge ?(observe = fun _ _ -> ()) dev runs =
  (match runs with [] | [ _ ] -> invalid_arg "Kway_merge.merge: need at least two runs" | _ -> ());
  List.iter
    (fun r ->
      if Run.device r != dev then invalid_arg "Kway_merge.merge: run on a different device")
    runs;
  let runs = Array.of_list runs in
  let k = Array.length runs in
  let total = Array.fold_left (fun acc r -> acc + Run.length r) 0 runs in
  let bsize = Block_device.block_size dev in
  let bufs = Array.make k [||] and blk = Array.make k 0 in
  let at = Array.make k 0 and ends = Array.make k 0 in
  let keys = Array.make k 0 in
  let heap = Heap.create keys in
  let load s b =
    bufs.(s) <- Run.read_seq runs.(s) b;
    blk.(s) <- b;
    at.(s) <- 0;
    ends.(s) <- Int.min bsize (Run.length runs.(s) - (b * bsize));
    keys.(s) <- bufs.(s).(0)
  in
  for s = 0 to k - 1 do
    load s 0;
    Heap.push heap s
  done;
  let out = Run.writer dev ~length:total in
  for emitted = 0 to total - 1 do
    let s = Heap.top heap in
    let v = keys.(s) in
    Run.writer_push out v;
    observe emitted v;
    let i = at.(s) + 1 in
    if i < ends.(s) then begin
      at.(s) <- i;
      keys.(s) <- bufs.(s).(i);
      Heap.fix_top heap
    end
    else if (blk.(s) + 1) * bsize < Run.length runs.(s) then begin
      load s (blk.(s) + 1);
      Heap.fix_top heap
    end
    else ignore (Heap.pop heap)
  done;
  Run.writer_finish out
