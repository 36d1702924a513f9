(* The on-disk historical structure HD and its in-memory summary HS
   (Section 2.1, Algorithm 3, Figure 2).

   Partitions live in levels; each level holds at most kappa partitions.
   A new batch is sorted into a level-0 partition; whenever a level
   exceeds kappa partitions, all of its partitions are multi-way merged
   into a single partition one level up, recursively.  Merging is the
   only time data moves, so each element takes part in at most
   log_kappa(T) merges (Lemma 6).

   Every partition carries a Partition_summary built from the sorted
   batch or through the merge's observe hook, costing no additional
   I/O. *)

type update_report = {
  sort_seconds : float;
  load_seconds : float;
  merge_seconds : float;
  summary_seconds : float;
  io_total : Hsq_storage.Io_stats.counters;
  io_merge : Hsq_storage.Io_stats.counters;
  merges_performed : int;
  highest_level_after : int;
  deferred_merge : string option;
      (* device fault that interrupted the merge cascade: the batch is
         archived, the over-full level keeps its partitions, and the
         merge is retried by a later cascade or [run_deferred_merges] *)
}

(* Per-partition health, keyed by the run's first block (stable and
   unique: the bump allocator never reuses addresses).  [failures]
   counts consecutive unrecoverable probe failures; at the caller's
   threshold the partition flips to [quarantined] and query paths
   exclude it (widening their reported error bound by its element
   count) until a scrub re-verifies and reinstates it.  Accessed only
   from the query/scrub caller domain — probe failures are re-raised to
   the submitting caller before it notes them — so no lock is needed. *)
type health = { mutable failures : int; mutable quarantined : bool }

type t = {
  dev : Hsq_storage.Block_device.t;
  kappa : int;
  beta1 : int;
  mutable levels : Partition.t list array; (* levels.(l): oldest-first *)
  mutable total : int;
  mutable steps : int;
  mutable expired_through : int; (* steps [1, expired_through] have been dropped *)
  mutable epoch : int; (* bumped on every partition-set mutation; cache key *)
  mutable gauged_levels : int; (* highest level whose gauge was ever published *)
  mutable quarantined_elems : int; (* recounted at every epoch bump *)
  quarantine : (int, health) Hashtbl.t;
}

let create ~kappa ~beta1 dev =
  if kappa < 2 then invalid_arg "Level_index.create: kappa must be >= 2";
  if beta1 < 2 then invalid_arg "Level_index.create: beta1 must be >= 2";
  {
    dev;
    kappa;
    beta1;
    levels = Array.make 4 [];
    total = 0;
    steps = 0;
    expired_through = 0;
    epoch = 0;
    gauged_levels = 0;
    quarantined_elems = 0;
    quarantine = Hashtbl.create 16;
  }

let pkey p = Hsq_storage.Run.first_block (Partition.run p)

let is_quarantined t p =
  match Hashtbl.find_opt t.quarantine (pkey p) with
  | Some h -> h.quarantined
  | None -> false

(* The epoch numbers the states of the partition set: any operation
   that adds, merges, drops, or restores partitions bumps it, so a
   cached derivative of the summaries (Engine's historical aggregate)
   is valid iff its recorded epoch still matches.

   A bump is also the one place every partition-set mutation funnels
   through, so it doubles as the refresh point for the per-level
   partition-count gauges (hsq_hist_partitions_level_<l>).  Gauges are
   registered lazily per level that has ever existed; once a level
   empties its gauge reads 0 rather than disappearing. *)
let registry t = Hsq_storage.Io_stats.registry (Hsq_storage.Block_device.stats t.dev)

let refresh_level_gauges t =
  let r = registry t in
  (* Cover every level up to the highest non-empty one: a level a merge
     just emptied must be written back to 0, not left stale.  Trailing
     never-used slots of the levels array are skipped. *)
  let hi = ref t.gauged_levels in
  Array.iteri (fun l ps -> if ps <> [] then hi := max !hi l) t.levels;
  t.gauged_levels <- !hi;
  let q_total = ref 0 and q_elems = ref 0 in
  for l = 0 to !hi do
    Hsq_obs.Metrics.Gauge.set
      (Hsq_obs.Metrics.gauge ~help:"Partitions currently at this level" r
         (Printf.sprintf "hsq_hist_partitions_level_%d" l))
      (float_of_int (List.length t.levels.(l)));
    let q =
      List.fold_left
        (fun acc p ->
          if is_quarantined t p then begin
            incr q_total;
            q_elems := !q_elems + Partition.size p;
            acc + 1
          end
          else acc)
        0 t.levels.(l)
    in
    Hsq_obs.Metrics.Gauge.set
      (Hsq_obs.Metrics.gauge ~help:"Quarantined partitions at this level" r
         (Printf.sprintf "hsq_quarantined_partitions_level_%d" l))
      (float_of_int q)
  done;
  t.quarantined_elems <- !q_elems;
  Hsq_obs.Metrics.Gauge.set
    (Hsq_obs.Metrics.gauge ~help:"Quarantined partitions" r "hsq_quarantined_partitions")
    (float_of_int !q_total);
  Hsq_obs.Metrics.Gauge.set
    (Hsq_obs.Metrics.gauge ~help:"Elements in quarantined partitions" r
       "hsq_quarantined_elements")
    (float_of_int !q_elems)

let epoch t = t.epoch

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  refresh_level_gauges t

let device t = t.dev
let expired_through t = t.expired_through
let kappa t = t.kappa
let beta1 t = t.beta1
let total_elements t = t.total
let time_steps t = t.steps

let num_levels t =
  let n = ref 0 in
  Array.iteri (fun i ps -> if ps <> [] then n := i + 1) t.levels;
  !n

(* All partitions, newest time range first. *)
let partitions t =
  let all = Array.to_list t.levels |> List.concat in
  List.sort (fun a b -> Int.compare (Partition.first_step b) (Partition.first_step a)) all

let partition_count t = Array.fold_left (fun acc ps -> acc + List.length ps) 0 t.levels

(* --- Quarantine ------------------------------------------------------- *)

(* Partitions the query paths may probe: everything not quarantined,
   newest first. *)
let active_partitions t = List.filter (fun p -> not (is_quarantined t p)) (partitions t)

let quarantined t = List.filter (is_quarantined t) (partitions t)
let quarantined_count t = List.length (quarantined t)

(* Total elements locked away in quarantined partitions — exactly the
   widening a query's rank-error bound takes when it excludes them (the
   per-partition Lemma 2 interval [0, size] collapses to "anywhere").
   Every quarantine transition bumps the epoch, which recounts it. *)
let quarantined_elements t = t.quarantined_elems

let health_of t p =
  let k = pkey p in
  match Hashtbl.find_opt t.quarantine k with
  | Some h -> h
  | None ->
    let h = { failures = 0; quarantined = false } in
    Hashtbl.add t.quarantine k h;
    h

(* Move a partition to quarantine.  The partition stays in its level —
   coverage, windows, and descriptors still see it — but query paths
   exclude it via [active_partitions] and the merge cascade defers any
   merge of its level (merging would have to read its blocks). *)
let quarantine_partition t p =
  let h = health_of t p in
  if not h.quarantined then begin
    h.quarantined <- true;
    h.failures <- 0;
    bump_epoch t
  end

(* Record one unrecoverable probe failure; returns [true] when this
   failure crossed [threshold] and the partition was just quarantined. *)
let note_probe_failure t p ~threshold =
  let h = health_of t p in
  if h.quarantined then false
  else begin
    h.failures <- h.failures + 1;
    if h.failures >= max 1 threshold then begin
      h.quarantined <- true;
      h.failures <- 0;
      bump_epoch t;
      true
    end
    else false
  end

(* A successful probe resets the consecutive-failure count — only a
   *run* of failures with no success in between quarantines. *)
let note_probe_success t p =
  match Hashtbl.find_opt t.quarantine (pkey p) with
  | Some h when not h.quarantined -> h.failures <- 0
  | _ -> ()

let memory_words t =
  Array.fold_left (fun acc ps -> List.fold_left (fun a p -> a + Partition.memory_words p) acc ps) 16
    t.levels

let ensure_level t l =
  if l >= Array.length t.levels then begin
    let bigger = Array.make (max (l + 1) (2 * Array.length t.levels)) [] in
    Array.blit t.levels 0 bigger 0 (Array.length t.levels);
    t.levels <- bigger
  end

let now () = Unix.gettimeofday ()

(* Merge every partition at level [l] into one partition at [l+1].

   Merge commit protocol (crash atomicity): the merged run is written
   entirely to freshly allocated blocks while the source partitions
   remain untouched and live; only once the new run and its summary are
   complete is the in-memory level table swapped (the commit point), and
   only after the commit are the sources freed.  Because the device's
   bump allocator never reuses addresses — and the file backend leaves
   freed bytes physically intact — a crash at ANY block write during the
   merge leaves every partition named by the last committed sidecar
   (Hsq.Meta) readable: reloading that checkpoint rolls the
   uncommitted merge back, and the half-written output blocks are
   unreferenced garbage past the checkpointed allocation frontier. *)
let merge_level_impl t l =
  let parts = t.levels.(l) in
  let runs = List.map Partition.run parts in
  let size = List.fold_left (fun acc r -> acc + Hsq_storage.Run.length r) 0 runs in
  let builder = Partition_summary.builder ~beta1:t.beta1 ~size in
  (* The cascade only fires when a level exceeds kappa >= 2 partitions,
     so there are always at least two runs to merge. *)
  assert (List.length runs >= 2);
  let merged =
    Hsq_storage.Kway_merge.merge
      ~observe:(fun i v -> Partition_summary.builder_feed builder i v)
      t.dev runs
  in
  let summary = Partition_summary.builder_finish builder in
  let first_step = List.fold_left (fun acc p -> min acc (Partition.first_step p)) max_int parts in
  let last_step = List.fold_left (fun acc p -> max acc (Partition.last_step p)) min_int parts in
  let promoted =
    Partition.create ~run:merged ~summary ~first_step ~last_step ~level:(l + 1)
  in
  (* Commit point: the new partition replaces the sources atomically in
     memory; the sources are released only afterwards. *)
  t.levels.(l) <- [];
  ensure_level t (l + 1);
  t.levels.(l + 1) <- t.levels.(l + 1) @ [ promoted ];
  List.iter
    (fun p ->
      (* The sources' health records die with them (their block
         addresses are never reused). *)
      Hashtbl.remove t.quarantine (pkey p);
      Partition.free p)
    parts

(* Merges are rare (at most one cascade per batch) and ms-scale, so the
   per-merge registry lookup and span are free relative to the work. *)
let merge_level t l =
  let stats = Hsq_storage.Block_device.stats t.dev in
  let timed () =
    let nparts = List.length t.levels.(l) in
    let t0 = now () in
    merge_level_impl t l;
    let dt = now () -. t0 in
    Hsq_obs.Metrics.Histogram.observe
      (Hsq_obs.Metrics.histogram ~help:"Level merge duration" (registry t) "hsq_hist_merge_seconds")
      dt;
    nparts
  in
  match Hsq_storage.Io_stats.tracer stats with
  | Some tr ->
    Hsq_obs.Trace.with_span tr ~attrs:[ ("level", string_of_int l) ] "hist.merge" (fun span ->
        let nparts = timed () in
        Hsq_obs.Trace.add_attr tr span "partitions" (string_of_int nparts))
  | None -> ignore (timed ())

(* Cascade merges upward from [from] while levels overflow.  A level
   holding a quarantined partition is left alone even when over-full —
   merging it would read the quarantined blocks — so a level may
   temporarily exceed kappa (check_invariants tolerates exactly this
   case); the deferred merge fires from [reinstate] once the partition
   is healthy again.

   A device fault mid-cascade is contained, not surfaced: the failing
   merge rolled itself back (its commit point is the atomic in-memory
   swap, which a read fault never reaches), the level simply stays
   over-full, and the merge is retried the next time a cascade or
   [run_deferred_merges] reaches it.  Containment here is what makes
   [add_batch] — and therefore [Engine.end_time_step] — committed once
   the level-0 run is written: without it, a fault in the cascade would
   raise *after* the batch was archived, and a caller retrying the
   rollover would archive the same elements twice. *)
let cascade_merges t ~from =
  let merges = ref 0 in
  let error = ref None in
  (try
     let l = ref from in
     while
       !l < Array.length t.levels
       && List.length t.levels.(!l) > t.kappa
       && not (List.exists (is_quarantined t) t.levels.(!l))
     do
       merge_level t !l;
       incr merges;
       incr l
     done
   with Hsq_storage.Block_device.Device_error msg -> error := Some msg);
  (!merges, !error)

(* Retry every merge a quarantine or a device fault deferred: one sweep
   over all levels, merging any over-full level whose members are all
   healthy (a merge may push the level above over its own threshold, so
   the sweep only advances when a level is settled).  Faults during the
   sweep leave the remaining levels for the next attempt. *)
let run_deferred_merges t =
  let merges = ref 0 in
  (try
     let l = ref 0 in
     while !l < Array.length t.levels do
       if
         List.length t.levels.(!l) > t.kappa
         && not (List.exists (is_quarantined t) t.levels.(!l))
       then begin
         merge_level t !l;
         incr merges
       end
       else incr l
     done
   with Hsq_storage.Block_device.Device_error _ -> ());
  if !merges > 0 then bump_epoch t;
  !merges

(* Re-verify a quarantined partition against the device and return it
   to service: every element is re-read (sequential cursor I/O), the
   sortedness and count are checked, and a fresh summary replaces the
   old one (which may be the degenerate [unavailable] summary if the
   partition was restored from a sidecar while quarantined).  On any
   failure the partition stays quarantined. *)
let reinstate t p =
  let k = pkey p in
  match Hashtbl.find_opt t.quarantine k with
  | None | Some { quarantined = false; _ } -> Error "partition is not quarantined"
  | Some h -> (
    try
      let run = Partition.run p in
      let cur = Hsq_storage.Run.cursor run in
      let n = ref 0 and prev = ref min_int and sorted = ref true in
      let continue_ = ref true in
      while !continue_ do
        match Hsq_storage.Run.cursor_next cur with
        | None -> continue_ := false
        | Some v ->
          if v < !prev then sorted := false;
          prev := v;
          incr n
      done;
      if not !sorted then Error (Printf.sprintf "partition at block %d is not sorted on disk" k)
      else if !n <> Partition.size p then
        Error
          (Printf.sprintf "partition at block %d has %d elements on disk, expected %d" k !n
             (Partition.size p))
      else begin
        let summary = Partition_summary.of_run ~beta1:t.beta1 run in
        let fresh =
          Partition.create ~run ~summary ~first_step:(Partition.first_step p)
            ~last_step:(Partition.last_step p) ~level:(Partition.level p)
        in
        let l = Partition.level p in
        t.levels.(l) <- List.map (fun q -> if pkey q = k then fresh else q) t.levels.(l);
        h.quarantined <- false;
        h.failures <- 0;
        (* Run any merge the quarantine (or an earlier device fault)
           deferred — at any level, not just this partition's — then
           publish the new partition set in one epoch bump. *)
        ignore (run_deferred_merges t);
        bump_epoch t;
        Ok ()
      end
    with Hsq_storage.Block_device.Device_error msg -> Error msg)

(* HistUpdate (Algorithm 3): sort the batch into a level-0 partition,
   then cascade merges while any level exceeds kappa partitions.  The
   batch is sorted in place: the engine's step spool, one sorted run per
   hand-off, is radix-sorted in O(n) per byte in which its values
   differ. *)
let add_batch ?len t batch =
  let eta = match len with Some n -> n | None -> Array.length batch in
  if eta = 0 then invalid_arg "Level_index.add_batch: empty batch";
  if eta < 0 || eta > Array.length batch then invalid_arg "Level_index.add_batch: bad length";
  let stats = Hsq_storage.Block_device.stats t.dev in
  let before_total = Hsq_storage.Io_stats.snapshot stats in
  let step = t.steps + 1 in
  let t0 = now () in
  Hsq_util.Sorted.sort_runs ~len:eta batch;
  let t1 = now () in
  let summary = Partition_summary.of_sorted_array ~beta1:t.beta1 ~len:eta batch in
  let t2 = now () in
  let run = Hsq_storage.Run.of_sorted_array ~len:eta t.dev batch in
  let t3 = now () in
  ensure_level t 0;
  t.levels.(0) <-
    t.levels.(0) @ [ Partition.create ~run ~summary ~first_step:step ~last_step:step ~level:0 ];
  t.total <- t.total + eta;
  t.steps <- step;
  (* Cascade merges. *)
  let before_merge = Hsq_storage.Io_stats.snapshot stats in
  let t_merge0 = now () in
  let merges, deferred_merge = cascade_merges t ~from:0 in
  let merge_seconds = now () -. t_merge0 in
  bump_epoch t;
  let after = Hsq_storage.Io_stats.snapshot stats in
  {
    sort_seconds = t1 -. t0;
    load_seconds = t3 -. t2;
    merge_seconds;
    summary_seconds = t2 -. t1;
    io_total = Hsq_storage.Io_stats.diff after before_total;
    io_merge = Hsq_storage.Io_stats.diff after before_merge;
    merges_performed = merges;
    highest_level_after = num_levels t - 1;
    deferred_merge;
  }

(* Exact rank of [v] across all partitions, by disk binary searches
   bounded by the summaries.  This is the rho_1 computation of
   Algorithm 8 lines 2-7. *)
let rank t v = List.fold_left (fun acc p -> acc + Partition.rank p v) 0 (partitions t)

(* The partitions tiling exactly the step range [first, last], if that
   range is partition-aligned.  A window of the [w] most recent steps
   (Section 2.4 "Queries Over Windows") is the suffix case
   [steps - w + 1, steps]. *)
let partitions_for_range t ~first ~last =
  if first < 1 || last > t.steps || first > last then None
  else begin
    let inside =
      List.filter
        (fun p -> Partition.first_step p >= first && Partition.last_step p <= last)
        (partitions t)
    in
    (* newest-first; check exact tiling from [last] down to [first]. *)
    let rec tile expect = function
      | [] -> expect = first - 1
      | p :: rest -> Partition.last_step p = expect && tile (Partition.first_step p - 1) rest
    in
    if tile last inside then Some inside else None
  end

(* Step ranges are aligned iff both endpoints sit on partition
   boundaries; expose the boundary steps so callers can snap. *)
let partition_boundaries t =
  List.rev_map (fun p -> (Partition.first_step p, Partition.last_step p)) (partitions t)

(* Structural invariants, used by the test suites. *)
let check_invariants t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun l ps ->
      (* A level holding a quarantined partition may legitimately exceed
         kappa: its merge is deferred until the partition is reinstated
         (or expired). *)
      if List.length ps > t.kappa && not (List.exists (is_quarantined t) ps) then
        err "level %d has %d > kappa partitions" l (List.length ps);
      List.iter
        (fun p -> if Partition.level p <> l then err "partition at level %d tagged %d" l (Partition.level p))
        ps)
    t.levels;
  (* Time-step coverage must tile [1, steps] exactly. *)
  let newest_first = partitions t in
  let expect = ref t.steps in
  List.iter
    (fun p ->
      if Partition.last_step p <> !expect then
        err "coverage gap: expected last step %d, found %d" !expect (Partition.last_step p);
      expect := Partition.first_step p - 1)
    newest_first;
  if t.steps > 0 && !expect <> t.expired_through then
    err "coverage stops at step %d but retention dropped through %d" !expect t.expired_through;
  let sum = List.fold_left (fun acc p -> acc + Partition.size p) 0 newest_first in
  if sum <> t.total then err "element count %d <> recorded total %d" sum t.total;
  List.rev !errors


(* Retention (data-stream warehouses keep bounded history): drop every
   partition whose data is entirely older than the last [keep_steps]
   time steps.  Partitions are dropped whole — one straddling the
   cutoff is kept in full — so coverage stays contiguous and windowed
   queries keep working unchanged.  Returns (partitions, elements)
   dropped. *)
let expire t ~keep_steps =
  if keep_steps < 1 then invalid_arg "Level_index.expire: keep_steps must be >= 1";
  let cutoff = t.steps - keep_steps in
  let dropped_parts = ref 0 and dropped_elems = ref 0 in
  Array.iteri
    (fun l ps ->
      let keep, drop = List.partition (fun p -> Partition.last_step p > cutoff) ps in
      List.iter
        (fun p ->
          dropped_parts := !dropped_parts + 1;
          dropped_elems := !dropped_elems + Partition.size p;
          t.expired_through <- max t.expired_through (Partition.last_step p);
          (* Retention is also the exit path for a partition whose data
             aged out while quarantined. *)
          Hashtbl.remove t.quarantine (pkey p);
          Partition.free p)
        drop;
      t.levels.(l) <- keep)
    t.levels;
  t.total <- t.total - !dropped_elems;
  if !dropped_parts > 0 then bump_epoch t;
  (!dropped_parts, !dropped_elems)

(* --- Sidecar support (used by Hsq.Meta) ------------------------------- *)

type partition_descriptor = {
  first_block : int;
  length : int;
  first_step : int;
  last_step : int;
  level : int;
  quarantined : bool;
}

let describe t =
  List.map
    (fun p ->
      {
        first_block = Hsq_storage.Run.first_block (Partition.run p);
        length = Partition.size p;
        first_step = Partition.first_step p;
        last_step = Partition.last_step p;
        level = Partition.level p;
        quarantined = is_quarantined t p;
      })
    (partitions t)

(* Rebuild an index over partitions already on the device.  Summaries
   are re-read from disk (<= beta1 block reads per partition).  The
   descriptors must tile [1, steps] — check_invariants is run and any
   violation raises. *)
let restore ~kappa ~beta1 dev descriptors =
  let t = create ~kappa ~beta1 dev in
  List.iter
    (fun d ->
      let run = Hsq_storage.Run.of_existing dev ~addr:d.first_block ~length:d.length in
      (* A quarantined partition's blocks may be unreadable; it gets the
         degenerate summary (no disk reads, maximal rank uncertainty)
         and its quarantine flag back.  Scrub --repair re-verifies and
         rebuilds the real summary on reinstatement. *)
      let summary =
        if d.quarantined then Partition_summary.unavailable ~size:d.length
        else Partition_summary.of_run ~beta1 run
      in
      let p =
        Partition.create ~run ~summary ~first_step:d.first_step ~last_step:d.last_step
          ~level:d.level
      in
      if d.quarantined then
        Hashtbl.replace t.quarantine d.first_block { failures = 0; quarantined = true };
      ensure_level t d.level;
      t.levels.(d.level) <- t.levels.(d.level) @ [ p ];
      t.total <- t.total + d.length;
      t.steps <- max t.steps d.last_step)
    descriptors;
  (* Anything before the oldest restored partition counts as expired. *)
  let oldest =
    List.fold_left (fun acc d -> min acc d.first_step) max_int descriptors
  in
  t.expired_through <- (if descriptors = [] then 0 else oldest - 1);
  (* Keep each level ordered oldest-first. *)
  Array.iteri
    (fun l ps ->
      t.levels.(l) <-
        List.sort (fun a b -> Int.compare (Partition.first_step a) (Partition.first_step b)) ps)
    t.levels;
  bump_epoch t;
  (* A checkpoint may legitimately record a level over κ: a device
     fault deferred the merge mid-cascade and the batch was still
     safely archived.  Retry it now — if we got this far the device is
     readable — so the restored index satisfies the strict invariant
     again.  (A level kept over-full by a quarantined member stays as
     is; check_invariants tolerates exactly that.) *)
  if Array.exists (fun ps -> List.length ps > t.kappa) t.levels then
    ignore (run_deferred_merges t);
  match check_invariants t with
  | [] -> t
  | errs -> invalid_arg ("Level_index.restore: " ^ String.concat "; " errs)
