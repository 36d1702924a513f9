(* KLL sketch (Karnin-Lang-Liberty, arXiv 1603.05346) with the lazy
   sweep-compactor update of Ivkin et al. (arXiv 1907.00236).

   Structure: a stack of levels; an item stored at level h stands for
   2^h original elements (its weight).  Capacities decay geometrically
   from the top of the stack (the newest level keeps the full k items,
   each level below keeps a c = 2/3 fraction of the one above, floored
   at k_min), so total space is ~3k items regardless of stream length.

   Laziness: inserts only append; nothing compacts until the total item
   count exceeds the total capacity.  Then the lowest over-full level
   compacts — and only enough pairs to fit again, not the whole buffer.
   Each compaction pass sweeps upward through value space from where
   the previous pass stopped (tracked by value, not index, so items
   arriving below the sweep point simply wait for the next round), with
   one random parity coin per sweep round deciding which element of
   each adjacent pair survives with doubled weight.

   Determinism: coins come from a Splitmix generator keyed on a stored
   seed and a flip counter, so (seed, coins) fully determine every
   future flip and both serialize; a restored sketch replays
   bit-identically.

   Exact minima and maxima are tracked outside the compactors (which
   may drop extremes) because the engine's stream summary pins its
   first and last entries to the true extremes. *)

let cap_decay = 2.0 /. 3.0
let k_min = 8

(* k = k_scale / epsilon.  The engine resets its stream sketch at every
   archived time step, so a sketch only ever summarizes one step's
   elements and compactions are rare; 3/eps keeps the realized rank
   error comfortably inside eps*n across the conformance grid. *)
let k_scale = 3.0

type level = {
  mutable buf : int array;
  mutable len : int;
  mutable sorted : bool; (* buf.[0,len) known sorted ascending *)
  mutable sweep : int option; (* last value compacted this sweep round *)
  mutable coin : int; (* pair parity for the current sweep round *)
}

type mode = Fixed | Capped of int

type t = {
  mutable k : int;
  mutable epsilon : float;
  mode : mode;
  coin_seed : int;
  mutable coins : int;
  mutable n : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable levels : level array;
  (* Flattened (values, cumulative weights) query view, invalidated on
     any mutation. *)
  mutable flat : (int array * int array) option;
}

let new_level () = { buf = [||]; len = 0; sorted = true; sweep = None; coin = 0 }

let header_words = 9
let level_meta_words = 4

let create ?(seed = 0) ~epsilon () =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Kll.create: epsilon must lie in (0, 1)";
  {
    k = max k_min (int_of_float (ceil (k_scale /. epsilon)));
    epsilon;
    mode = Fixed;
    coin_seed = seed;
    coins = 0;
    n = 0;
    min_v = 0;
    max_v = 0;
    levels = [| new_level () |];
    flat = None;
  }

let create_capped ?(seed = 0) ~words () =
  let min_words = header_words + level_meta_words + (3 * k_min) in
  if words < min_words then
    invalid_arg (Printf.sprintf "Kll.create_capped: budget below %d words" min_words);
  (* Total capacity of the stack is ~k / (1 - c) = 3k items; leave a
     little slack for per-level metadata. *)
  let k = max k_min (((words - header_words) / 3) - level_meta_words) in
  {
    k;
    epsilon = k_scale /. float_of_int k;
    mode = Capped words;
    coin_seed = seed;
    coins = 0;
    n = 0;
    min_v = 0;
    max_v = 0;
    levels = [| new_level () |];
    flat = None;
  }

let count t = t.n
let epsilon t = t.epsilon
let error_bound t = t.epsilon

let size t = Array.fold_left (fun acc lv -> acc + lv.len) 0 t.levels

let memory_words t =
  header_words + (level_meta_words * Array.length t.levels) + size t

let num_levels t = Array.length t.levels

(* Capacity of level [h]: full k at the top, decaying by c per level of
   depth below it, floored at k_min. *)
let cap t h =
  let depth = num_levels t - 1 - h in
  max k_min (int_of_float (ceil (float_of_int t.k *. (cap_decay ** float_of_int depth))))

let total_cap t =
  let acc = ref 0 in
  for h = 0 to num_levels t - 1 do
    acc := !acc + cap t h
  done;
  !acc

let next_coin t =
  let mix = t.coin_seed lxor (t.coins * 0x2545F4914F6CDD1D) in
  t.coins <- t.coins + 1;
  Hsq_util.Splitmix.int (Hsq_util.Splitmix.create mix) 2

let invalidate t = t.flat <- None

let ensure_sorted lv =
  if not lv.sorted then begin
    let live = Array.sub lv.buf 0 lv.len in
    Array.sort compare live;
    Array.blit live 0 lv.buf 0 lv.len;
    lv.sorted <- true
  end

(* A fresh sorted array of the level's live items, without reordering
   the level itself (keeps [merge] pure for its inputs). *)
let sorted_snapshot lv =
  let live = Array.sub lv.buf 0 lv.len in
  if not lv.sorted then Array.sort compare live;
  live

let reserve lv extra =
  let needed = lv.len + extra in
  if needed > Array.length lv.buf then begin
    let capacity = ref (max 16 (Array.length lv.buf)) in
    while !capacity < needed do
      capacity := 2 * !capacity
    done;
    let bigger = Array.make !capacity 0 in
    Array.blit lv.buf 0 bigger 0 lv.len;
    lv.buf <- bigger
  end

(* Merge a sorted run into a (sorted) level, back to front, one pass. *)
let merge_run lv run =
  let r = Array.length run in
  if r > 0 then begin
    ensure_sorted lv;
    reserve lv r;
    let i = ref (lv.len - 1) and j = ref (r - 1) in
    let pos = ref (lv.len + r - 1) in
    while !j >= 0 do
      if !i >= 0 && lv.buf.(!i) > run.(!j) then begin
        lv.buf.(!pos) <- lv.buf.(!i);
        decr i
      end
      else begin
        lv.buf.(!pos) <- run.(!j);
        decr j
      end;
      decr pos
    done;
    lv.len <- lv.len + r
  end

let add_level t = t.levels <- Array.append t.levels [| new_level () |]

(* One sweep-compaction pass over level [h]: resume at the remembered
   sweep value (or start a new round with a fresh coin), promote one
   survivor per adjacent pair — just enough pairs to bring the level
   back under capacity — and remember where the sweep stopped. *)
let compact t h =
  let lv = t.levels.(h) in
  ensure_sorted lv;
  let resume_at v =
    let lo = ref 0 and hi = ref lv.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if lv.buf.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let start =
    match lv.sweep with
    | None ->
      lv.coin <- next_coin t;
      0
    | Some v -> resume_at v
  in
  let start =
    if lv.len - start < 2 then begin
      (* The remaining tail is too short to pair: wrap to a new round. *)
      lv.sweep <- None;
      lv.coin <- next_coin t;
      0
    end
    else start
  in
  if lv.len - start >= 2 then begin
    if h + 1 >= num_levels t then add_level t;
    let over = lv.len - cap t h in
    let avail = (lv.len - start) / 2 in
    let pairs = max 1 (min avail over) in
    let promoted = Array.init pairs (fun i -> lv.buf.(start + (2 * i) + lv.coin)) in
    lv.sweep <- Some lv.buf.(start + (2 * pairs) - 1);
    Array.blit lv.buf (start + (2 * pairs)) lv.buf start (lv.len - start - (2 * pairs));
    lv.len <- lv.len - (2 * pairs);
    merge_run t.levels.(h + 1) promoted
  end

let maybe_compress t =
  let continue = ref (size t > total_cap t) in
  while !continue do
    (* Lowest over-full level; one always exists while the total
       exceeds the sum of capacities. *)
    let target = ref (-1) in
    let h = ref 0 in
    while !target < 0 && !h < num_levels t do
      if t.levels.(!h).len > cap t !h then target := !h;
      incr h
    done;
    if !target < 0 then continue := false
    else begin
      compact t !target;
      continue := size t > total_cap t
    end
  done

(* Capped mode: if the stack outgrew the word budget (deeper levels add
   metadata and k_min floors), coarsen k — and with it the advertised
   epsilon — until compaction brings the footprint back inside.  Error
   already incurred was bounded by the finer epsilon, so the coarser
   advertised bound stays honest. *)
let enforce_budget t =
  match t.mode with
  | Fixed -> ()
  | Capped words ->
    while memory_words t > words && t.k > k_min do
      t.k <- max k_min (t.k * 3 / 4);
      t.epsilon <- k_scale /. float_of_int t.k;
      maybe_compress t
    done

let note_bounds t v =
  if t.n = 0 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let insert t v =
  note_bounds t v;
  let lv = t.levels.(0) in
  reserve lv 1;
  if lv.len > 0 && lv.sorted && v < lv.buf.(lv.len - 1) then lv.sorted <- false;
  lv.buf.(lv.len) <- v;
  lv.len <- lv.len + 1;
  t.n <- t.n + 1;
  invalidate t;
  maybe_compress t;
  enforce_budget t

let insert_sorted_batch t b =
  let r = Array.length b in
  if r = 1 then insert t b.(0)
  else if r > 0 then begin
    (* The run is sorted: its first element can lower the minimum, its
       last raise the maximum.  On an empty sketch [note_bounds] resets
       both to the first. *)
    note_bounds t b.(0);
    if b.(r - 1) > t.max_v then t.max_v <- b.(r - 1);
    merge_run t.levels.(0) b;
    t.n <- t.n + r;
    invalidate t;
    maybe_compress t;
    enforce_budget t
  end

let flatten t =
  match t.flat with
  | Some f -> f
  | None ->
    let total = size t in
    let pairs = Array.make total (0, 0) in
    let pos = ref 0 in
    Array.iteri
      (fun h lv ->
        let w = 1 lsl h in
        for i = 0 to lv.len - 1 do
          pairs.(!pos) <- (lv.buf.(i), w);
          incr pos
        done)
      t.levels;
    Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
    let vals = Array.map fst pairs in
    let cum = Array.make total 0 in
    let acc = ref 0 in
    Array.iteri
      (fun i (_, w) ->
        acc := !acc + w;
        cum.(i) <- !acc)
      pairs;
    t.flat <- Some (vals, cum);
    (vals, cum)

let query_rank t r =
  if t.n = 0 then invalid_arg "Kll.query_rank: empty sketch";
  let r = max 1 (min t.n r) in
  let vals, cum = flatten t in
  (* Smallest stored item whose cumulative weight reaches r. *)
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cum.(mid) >= r then hi := mid else lo := mid + 1
  done;
  vals.(!lo)

let rank_of t v =
  if t.n = 0 then 0
  else begin
    let vals, cum = flatten t in
    let len = Array.length vals in
    (* Largest index with vals.(i) <= v. *)
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if vals.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then 0 else cum.(!lo - 1)
  end

let min_value t =
  if t.n = 0 then invalid_arg "Kll.min_value: empty sketch";
  t.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Kll.max_value: empty sketch";
  t.max_v

let copy t =
  {
    t with
    levels =
      Array.map
        (fun lv -> { lv with buf = Array.sub lv.buf 0 lv.len; len = lv.len })
        t.levels;
    flat = None;
  }

let merge a b =
  if a.n = 0 then copy b
  else if b.n = 0 then copy a
  else begin
    let n = a.n + b.n in
    let epsilon =
      ((a.epsilon *. float_of_int a.n) +. (b.epsilon *. float_of_int b.n)) /. float_of_int n
    in
    let heights = max (num_levels a) (num_levels b) in
    let levels =
      Array.init heights (fun h ->
          let items side =
            if h < num_levels side then sorted_snapshot side.levels.(h) else [||]
          in
          let lv = new_level () in
          merge_run lv (items a);
          merge_run lv (items b);
          lv)
    in
    let t =
      {
        k = max k_min (min a.k b.k);
        epsilon;
        mode = Fixed;
        coin_seed = a.coin_seed lxor (b.coin_seed * 0x9E3779B97F4A7C1) lxor 0x5DEECE66D;
        coins = 0;
        n;
        min_v = min a.min_v b.min_v;
        max_v = max a.max_v b.max_v;
        levels;
        flat = None;
      }
    in
    maybe_compress t;
    t
  end

let check_invariants t =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let weight = ref 0 in
  Array.iteri
    (fun h lv ->
      if lv.len < 0 then problem "level %d: negative length" h;
      weight := !weight + (lv.len * (1 lsl h));
      if lv.sorted then
        for i = 1 to lv.len - 1 do
          if lv.buf.(i - 1) > lv.buf.(i) then
            problem "level %d: marked sorted but buf[%d] > buf[%d]" h (i - 1) i
        done;
      if t.n > 0 then
        for i = 0 to lv.len - 1 do
          if lv.buf.(i) < t.min_v || lv.buf.(i) > t.max_v then
            problem "level %d: item %d outside [min, max] envelope" h lv.buf.(i)
        done;
      match lv.coin with
      | 0 | 1 -> ()
      | c -> problem "level %d: coin %d not a parity" h c)
    t.levels;
  if !weight <> t.n then
    problem "weight conservation: stored weight %d <> count %d" !weight t.n;
  if size t > total_cap t then
    problem "capacity: %d items stored, %d allowed" (size t) (total_cap t);
  if t.n > 0 && t.min_v > t.max_v then problem "min > max";
  List.rev !problems

let serialize t =
  let heights = num_levels t in
  let snapshots = Array.map sorted_snapshot t.levels in
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 snapshots in
  let out = Array.make (header_words + (level_meta_words * heights) + total) 0 in
  out.(0) <- (match t.mode with Fixed -> 0 | Capped w -> w);
  out.(1) <- Int64.to_int (Int64.bits_of_float t.epsilon);
  out.(2) <- t.k;
  out.(3) <- t.n;
  out.(4) <- t.coin_seed;
  out.(5) <- t.coins;
  out.(6) <- t.min_v;
  out.(7) <- t.max_v;
  out.(8) <- heights;
  let pos = ref (header_words + (level_meta_words * heights)) in
  Array.iteri
    (fun h snapshot ->
      let base = header_words + (level_meta_words * h) in
      let lv = t.levels.(h) in
      out.(base) <- Array.length snapshot;
      out.(base + 1) <- lv.coin;
      (match lv.sweep with
      | None -> ()
      | Some v ->
        out.(base + 2) <- 1;
        out.(base + 3) <- v);
      Array.blit snapshot 0 out !pos (Array.length snapshot);
      pos := !pos + Array.length snapshot)
    snapshots;
  out

let deserialize data =
  let fail fmt = Printf.ksprintf invalid_arg ("Kll.deserialize: " ^^ fmt) in
  if Array.length data < header_words then fail "truncated header";
  let mode_word = data.(0) in
  if mode_word < 0 then fail "negative budget word";
  let mode = if mode_word = 0 then Fixed else Capped mode_word in
  let epsilon = Int64.float_of_bits (Int64.of_int data.(1)) in
  if not (epsilon > 0.0 && epsilon < 1.0) then fail "epsilon out of range";
  let k = data.(2) in
  if k < 1 then fail "k < 1";
  let n = data.(3) in
  if n < 0 then fail "negative count";
  let coin_seed = data.(4) in
  let coins = data.(5) in
  if coins < 0 then fail "negative coin counter";
  let min_v = data.(6) and max_v = data.(7) in
  if n > 0 && min_v > max_v then fail "min above max";
  let heights = data.(8) in
  if heights < 1 || heights > 62 then fail "implausible level count %d" heights;
  if Array.length data < header_words + (level_meta_words * heights) then
    fail "truncated level table";
  let total = ref 0 in
  for h = 0 to heights - 1 do
    let len = data.(header_words + (level_meta_words * h)) in
    if len < 0 then fail "level %d: negative length" h;
    total := !total + len
  done;
  if Array.length data <> header_words + (level_meta_words * heights) + !total then
    fail "length mismatch";
  let pos = ref (header_words + (level_meta_words * heights)) in
  let weight = ref 0 in
  let levels =
    Array.init heights (fun h ->
        let base = header_words + (level_meta_words * h) in
        let len = data.(base) in
        let coin = data.(base + 1) in
        if coin <> 0 && coin <> 1 then fail "level %d: coin not a parity" h;
        let sweep =
          match data.(base + 2) with
          | 0 -> None
          | 1 -> Some data.(base + 3)
          | _ -> fail "level %d: bad sweep flag" h
        in
        let buf = Array.sub data !pos len in
        pos := !pos + len;
        for i = 0 to len - 1 do
          if i > 0 && buf.(i - 1) > buf.(i) then fail "level %d: items not sorted" h;
          if n > 0 && (buf.(i) < min_v || buf.(i) > max_v) then
            fail "level %d: item outside min/max envelope" h
        done;
        weight := !weight + (len * (1 lsl h));
        { buf; len; sorted = true; sweep; coin })
  in
  if !weight <> n then fail "stored weight %d does not match count %d" !weight n;
  { k; epsilon; mode; coin_seed; coins; n; min_v; max_v; levels; flat = None }

let dump t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "KLL k=%d eps=%g n=%d size=%d levels=%d coins=%d\n" t.k t.epsilon t.n
       (size t) (num_levels t) t.coins);
  Array.iteri
    (fun h lv ->
      Buffer.add_string b
        (Printf.sprintf "  level %d (w=%d, cap=%d, %s%s): %d items\n" h (1 lsl h) (cap t h)
           (if lv.sorted then "sorted" else "unsorted")
           (match lv.sweep with None -> "" | Some v -> Printf.sprintf ", sweep@%d" v)
           lv.len))
    t.levels;
  Buffer.contents b

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
