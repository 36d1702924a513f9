(* A sorted run: [length] elements stored ascending across
   [ceil(length / B)] contiguous blocks of a block device.

   The paper's query optimization (Section 2.4) stops disk reads once a
   search has narrowed to one block.  [rank_between] goes further and
   settles every block it reads in full, so a search never reads a
   block twice.  It aims each read by interpolating between the values
   at its window's ends when it knows them, and falls back to the
   midpoint block whenever a read budget says a wrong guess could cost
   more than binary search would, so a window spanning [k] blocks costs
   at most ceil(log2 k) + 2 reads.  Random access also goes through a
   one-block cache, which saves the reads repeated across searches: a
   bisection's next probe of the same run often lands in or next to the
   block the last one ended in, so a search settles the cached block
   first. *)

type t = {
  dev : Block_device.t;
  addr : int;
  nblocks : int;
  length : int;
  mutable cache_addr : int; (* absolute block address held in [cache]; -1 = none *)
  mutable cache : int array;
  mutable cache_enabled : bool; (* ablation switch for the Section 2.4 optimization *)
  mutable freed : bool;
}

let blocks_needed ~block_size n = (n + block_size - 1) / block_size

let of_sorted_array ?len dev elements =
  let n = match len with Some n -> n | None -> Array.length elements in
  if n = 0 then invalid_arg "Run.of_sorted_array: empty run";
  if not (Hsq_util.Sorted.is_sorted ~len:n elements) then
    invalid_arg "Run.of_sorted_array: not sorted";
  let bsize = Block_device.block_size dev in
  let nblocks = blocks_needed ~block_size:bsize n in
  let addr = Block_device.alloc dev nblocks in
  let block = Array.make bsize 0 in
  for b = 0 to nblocks - 1 do
    let off = b * bsize in
    let len = Int.min bsize (n - off) in
    Array.blit elements off block 0 len;
    (* Pad the tail of the final block with the largest element so every
       slot is well-defined (padding is never exposed: accessors bound
       indices by [length]). *)
    if len < bsize then Array.fill block len (bsize - len) elements.(n - 1);
    Block_device.write_block dev ~addr:(addr + b) block
  done;
  { dev; addr; nblocks; length = n; cache_addr = -1; cache = [||]; cache_enabled = true; freed = false }

(* Re-attach to a run already present on the device (recovery path).
   Contents are trusted to be sorted; Meta.restore verifies per-block
   monotonicity before serving queries. *)
let of_existing dev ~addr ~length =
  if length <= 0 then invalid_arg "Run.of_existing: length must be positive";
  let bsize = Block_device.block_size dev in
  let nblocks = blocks_needed ~block_size:bsize length in
  if addr < 0 || addr + nblocks > Block_device.allocated_blocks dev then
    invalid_arg "Run.of_existing: blocks not present on device";
  { dev; addr; nblocks; length; cache_addr = -1; cache = [||]; cache_enabled = true; freed = false }

let length t = t.length
let nblocks t = t.nblocks
let first_block t = t.addr
let device t = t.dev

let check_live t op = if t.freed then invalid_arg ("Run." ^ op ^ ": run has been freed")

let free t =
  if not t.freed then begin
    Block_device.free t.dev ~addr:t.addr ~nblocks:t.nblocks;
    t.freed <- true;
    t.cache_addr <- -1;
    t.cache <- [||]
  end

let drop_cache t =
  t.cache_addr <- -1;
  t.cache <- [||]

let set_cache_enabled t enabled =
  t.cache_enabled <- enabled;
  if not enabled then drop_cache t

(* Fetch the block containing element index [i], through the cache. *)
let block_for t i =
  let bsize = Block_device.block_size t.dev in
  let abs = t.addr + (i / bsize) in
  if not t.cache_enabled then Block_device.read_block t.dev ~addr:abs
  else begin
    if t.cache_addr <> abs then begin
      t.cache <- Block_device.read_block t.dev ~addr:abs;
      t.cache_addr <- abs
    end;
    t.cache
  end

let get t i =
  check_live t "get";
  if i < 0 || i >= t.length then invalid_arg "Run.get: index out of bounds";
  let bsize = Block_device.block_size t.dev in
  (block_for t i).(i mod bsize)

(* The search for the first index in [lo, hi) whose element is > v,
   i.e. the number of elements <= v given that the answer lies in
   [lo, hi].  Each step settles one block whole: clipped to the window,
   either its last element is <= v (the answer lies past the block), its
   first is > v (the answer is at or before its start), or the answer
   lies inside it and a binary search of the array in hand finishes with
   no further read.  A step first settles the run's cached block if it
   meets the window, which costs no read.

   Otherwise it reads a block, chosen by interpolation when it can (Perl,
   Itai & Avni's interpolation search).  The search knows the values at
   both ends of its window, [ylo] at [lo - 1] (<= v) and [yhi] at [hi]
   (> v), when the caller passed them (summary entries) or a settled
   block showed them; with both known and distinct it aims at the block
   holding [lo + (v - ylo) / (yhi - ylo) * (hi - lo)].  A budget keeps
   the worst case of binary search: [start] grants ceil(log2 k) + 2 reads
   for a window spanning [k] blocks, each read spends one, and an
   interpolated block is taken only if either side it could leave, of
   [k'] blocks, still fits the ceil(log2 k') + 1 reads that midpoint
   steps need there in what the read leaves of the budget.  Otherwise
   the step takes the block holding the window's midpoint, whose sides
   span at most ceil(k/2) blocks each, so the budget always covers it.
   The window never needs a block twice, so a window spanning [k]
   blocks costs at most ceil(log2 k) + 2 reads, guided or not.

   The search is resumable: [advance] steps on the blocks in hand (the
   one just fed, else the run's cache) and stops to name the block it
   needs next, which the caller reads and [feed]s back.  [rank_between]
   drives one search a read at a time; an accurate query drives one
   per partition and reads their next blocks together. *)
type search = {
  srun : t;
  mutable v : int;
  mutable lo : int;
  mutable hi : int;
  mutable ylo : int; (* the element at [lo - 1], when [known] has [ylo_known] *)
  mutable yhi : int; (* the element at [hi], when [known] has [yhi_known] *)
  mutable known : int; (* which anchors are known, as ints rather than options *)
  mutable budget : int; (* reads left under the ceil(log2 k) + 2 bound *)
  mutable need : int; (* absolute address [advance] stopped on; -1 = none *)
  mutable guided : bool; (* [need] came from interpolation *)
  mutable fed : int array; (* block [need], fed for the next step only; [||] = none *)
  mutable flo : int; (* the frame: the window, anchors and flags [restart] starts from *)
  mutable fhi : int;
  mutable fylo : int;
  mutable fyhi : int;
  mutable fknown : int;
}

let ylo_known = 1
let yhi_known = 2

let search t =
  {
    srun = t;
    v = 0;
    lo = 0;
    hi = 0;
    ylo = 0;
    yhi = 0;
    known = 0;
    budget = 0;
    need = -1;
    guided = false;
    fed = [||];
    flo = 0;
    fhi = 0;
    fylo = 0;
    fyhi = 0;
    fknown = 0;
  }

let ceil_log2 k =
  let p = ref 1 and acc = ref 0 in
  while !p < k do
    p := 2 * !p;
    incr acc
  done;
  !acc

(* Blocks of [bsize] elements that the window [lo, hi) meets. *)
let spanned ~bsize lo hi = if lo >= hi then 0 else ((hi - 1) / bsize) - (lo / bsize) + 1

(* Reads that midpoint steps need at most over a window spanning [k]
   blocks: one settles a single block, and each halves the rest. *)
let midpoint_cost k = if k = 0 then 0 else ceil_log2 k + 1

let start_as ~who s ~known ~ylo ~yhi ~lo ~hi v =
  let t = s.srun in
  check_live t who;
  if lo < 0 || hi > t.length || lo > hi then invalid_arg ("Run." ^ who ^ ": bad range");
  s.v <- v;
  s.lo <- lo;
  s.hi <- hi;
  s.ylo <- ylo;
  s.yhi <- yhi;
  s.known <- known;
  s.budget <- midpoint_cost (spanned ~bsize:(Block_device.block_size t.dev) lo hi) + 1;
  s.need <- -1;
  s.guided <- false;
  s.fed <- [||]

(* A bisection probes one run for a sequence of values, each on a known
   side of the last: rank(v') for v' < v is at most the end of v's
   window, and at least its start for v' > v.  So the search keeps a
   frame, the window a [restart] begins from, and [keep] narrows it to
   the side of the last window the next value lies on, keeping that
   end's anchor. *)
let frame s ~lo ~hi ~ylo ~yhi ~known =
  s.flo <- lo;
  s.fhi <- hi;
  s.fylo <- ylo;
  s.fyhi <- yhi;
  s.fknown <- known

let restart s v =
  start_as ~who:"restart" s ~known:s.fknown ~ylo:s.fylo ~yhi:s.fyhi ~lo:s.flo ~hi:s.fhi v

let keep s ~left =
  if left then begin
    s.fhi <- s.hi;
    s.fyhi <- s.yhi;
    s.fknown <- s.fknown land ylo_known lor (s.known land yhi_known)
  end
  else begin
    s.flo <- s.lo;
    s.fylo <- s.ylo;
    s.fknown <- s.fknown land yhi_known lor (s.known land ylo_known)
  end

let anchor_flags ylo yhi =
  (match ylo with Some _ -> ylo_known | None -> 0)
  lor match yhi with Some _ -> yhi_known | None -> 0

(* The search [rank_between] runs, with its anchors as options. *)
let start_opt ~who s ?ylo ?yhi ~lo ~hi v =
  start_as ~who s ~known:(anchor_flags ylo yhi) ~ylo:(Option.value ylo ~default:0)
    ~yhi:(Option.value yhi ~default:0) ~lo ~hi v

let start = start_opt ~who:"start"

(* Settle [block], the run's block at absolute address [abs], which
   meets the window; the window's new ends take their anchors from it. *)
let rec within (block : int array) ~base v lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) / 2 in
    if block.(m - base) <= v then within block ~base v (m + 1) hi else within block ~base v lo m

let settle s ~bsize block abs =
  let base = (abs - s.srun.addr) * bsize in
  let a = Int.max s.lo base and b = Int.min s.hi (base + bsize) in
  let v = s.v in
  if block.(b - 1 - base) <= v then begin
    s.lo <- b;
    s.ylo <- block.(b - 1 - base);
    s.known <- s.known lor ylo_known
  end
  else if block.(a - base) > v then begin
    s.hi <- a;
    s.yhi <- block.(a - base);
    s.known <- s.known lor yhi_known
  end
  else begin
    (* block.(a) <= v < block.(b - 1): the answer is in (a, b - 1]. *)
    let r = within block ~base v (a + 1) (b - 1) in
    s.lo <- r;
    s.hi <- r;
    s.ylo <- block.(r - 1 - base);
    s.yhi <- block.(r - base);
    s.known <- ylo_known lor yhi_known
  end

(* The relative block interpolation aims at, if the budget allows it:
   reading it must leave enough for midpoint steps on either side. *)
let guided_block s ~bsize =
  let ylo = s.ylo and yhi = s.yhi in
  if s.known = ylo_known lor yhi_known && ylo < yhi then begin
    let frac = (float_of_int s.v -. float_of_int ylo) /. (float_of_int yhi -. float_of_int ylo) in
    let frac = if frac < 1.0 then if frac > 0.0 then frac else 0.0 else 1.0 in
    let pos = s.lo + int_of_float (frac *. float_of_int (s.hi - s.lo)) in
    let g = Int.min (s.hi - 1) pos / bsize in
    let left = g - (s.lo / bsize) and right = ((s.hi - 1) / bsize) - g in
    if Int.max (midpoint_cost left) (midpoint_cost right) <= s.budget - 1 then g else -1
  end
  else -1

(* Whether the block at absolute address [abs] meets the window. *)
let meets s ~bsize abs =
  let base = (abs - s.srun.addr) * bsize in
  base < s.hi && base + bsize > s.lo

(* A fed block serves one step, so with the cache disabled every step
   reads, as [block_for] does.  Settling a block leaves the window
   clear of it, so each block in hand serves at most one step. *)
let rec advance s =
  if s.lo >= s.hi then -1
  else
    let t = s.srun in
    let bsize = Block_device.block_size t.dev in
    if s.fed != [||] then begin
      let block = s.fed in
      s.fed <- [||];
      settle s ~bsize block s.need;
      s.need <- -1;
      advance s
    end
    else if t.cache_enabled && t.cache_addr >= 0 && meets s ~bsize t.cache_addr then begin
      settle s ~bsize t.cache t.cache_addr;
      advance s
    end
    else begin
      let g = guided_block s ~bsize in
      s.guided <- g >= 0;
      s.need <- t.addr + (if g >= 0 then g else (s.lo + s.hi) / 2 / bsize);
      s.need
    end

let feed s block =
  if s.need < 0 then invalid_arg "Run.feed: the search is not waiting on a block";
  let t = s.srun in
  s.fed <- block;
  s.budget <- s.budget - 1;
  if t.cache_enabled then begin
    t.cache <- block;
    t.cache_addr <- s.need
  end

let window s = (s.lo, s.hi)

let anchors s =
  ( (if s.known land ylo_known <> 0 then Some s.ylo else None),
    if s.known land yhi_known <> 0 then Some s.yhi else None )

let lo s = s.lo
let hi s = s.hi
let guided s = s.guided

let rank_between t ?ylo ?yhi ~lo ~hi v =
  let s = search t in
  start_opt ~who:"rank_between" s ?ylo ?yhi ~lo ~hi v;
  let rec drive () =
    let addr = advance s in
    if addr >= 0 then begin
      feed s (Block_device.read_block t.dev ~addr);
      drive ()
    end
  in
  drive ();
  s.lo

let rank t v = rank_between t ~lo:0 ~hi:t.length v

let read_range t ~pos ~len =
  check_live t "read_range";
  if pos < 0 || len < 0 || pos + len > t.length then invalid_arg "Run.read_range: bad range";
  Array.init len (fun i -> get t (pos + i))

let to_array t = read_range t ~pos:0 ~len:t.length

(* Streaming writer: values must be pushed in ascending order; blocks are
   flushed as they fill, so only one block of buffer memory is needed no
   matter how large the run — exactly the memory profile of an external
   merge. *)
type writer = {
  wdev : Block_device.t;
  waddr : int;
  expected : int;
  mutable written : int;
  wbuf : int array;
  mutable wfill : int;
  mutable last : int;
  mutable finished : bool;
}

let writer dev ~length =
  if length <= 0 then invalid_arg "Run.writer: length must be positive";
  let bsize = Block_device.block_size dev in
  let nblocks = blocks_needed ~block_size:bsize length in
  let addr = Block_device.alloc dev nblocks in
  {
    wdev = dev;
    waddr = addr;
    expected = length;
    written = 0;
    wbuf = Array.make bsize 0;
    wfill = 0;
    last = min_int;
    finished = false;
  }

let writer_flush w ~pad =
  if w.wfill > 0 then begin
    if pad && w.wfill < Array.length w.wbuf then
      Array.fill w.wbuf w.wfill (Array.length w.wbuf - w.wfill) w.last;
    let block_index = (w.written - w.wfill) / Array.length w.wbuf in
    Block_device.write_block w.wdev ~addr:(w.waddr + block_index) w.wbuf;
    w.wfill <- 0
  end

let writer_push w v =
  if w.finished then invalid_arg "Run.writer_push: writer already finished";
  if w.written >= w.expected then invalid_arg "Run.writer_push: more values than declared";
  if v < w.last then invalid_arg "Run.writer_push: values must be ascending";
  w.wbuf.(w.wfill) <- v;
  w.wfill <- w.wfill + 1;
  w.written <- w.written + 1;
  w.last <- v;
  if w.wfill = Array.length w.wbuf then writer_flush w ~pad:false

let writer_finish w =
  if w.finished then invalid_arg "Run.writer_finish: already finished";
  if w.written <> w.expected then
    invalid_arg
      (Printf.sprintf "Run.writer_finish: wrote %d of %d declared values" w.written w.expected);
  writer_flush w ~pad:true;
  w.finished <- true;
  let bsize = Block_device.block_size w.wdev in
  {
    dev = w.wdev;
    addr = w.waddr;
    nblocks = blocks_needed ~block_size:bsize w.expected;
    length = w.expected;
    cache_addr = -1;
    cache = [||];
    cache_enabled = true;
    freed = false;
  }

(* Sequential cursor used by merges; owns its own block buffer so it does
   not disturb the run's random-access cache. *)
type cursor = {
  run : t;
  mutable pos : int;
  mutable buf : int array;
  mutable buf_block : int; (* relative block index loaded in [buf]; -1 = none *)
}

let cursor t =
  check_live t "cursor";
  { run = t; pos = 0; buf = [||]; buf_block = -1 }

let read_seq t b =
  check_live t "read_seq";
  if b < 0 || b >= t.nblocks then invalid_arg "Run.read_seq: block out of range";
  Block_device.read_block ~hint:true t.dev ~addr:(t.addr + b)

let cursor_peek c =
  if c.pos >= c.run.length then None
  else begin
    let bsize = Block_device.block_size c.run.dev in
    let b = c.pos / bsize in
    if c.buf_block <> b then begin
      c.buf <- Block_device.read_block ~hint:true c.run.dev ~addr:(c.run.addr + b);
      c.buf_block <- b
    end;
    Some c.buf.(c.pos mod bsize)
  end

let cursor_advance c = if c.pos < c.run.length then c.pos <- c.pos + 1

let cursor_next c =
  match cursor_peek c with
  | None -> None
  | Some v ->
    cursor_advance c;
    Some v
