(* A sharded, replicated warehouse: K logical shards × R replicas each,
   one fused query surface.

   Ingest hash-partitions the stream (splitmix-style value hash mod K);
   within a shard every op is applied synchronously to every LIVE
   replica — each a complete, unmodified single-submitter engine with
   its own device, WAL, checkpoint, breaker, quarantine state and
   metrics registry.  An observe is acknowledged iff at least one live
   replica accepted it; a replica that fails its append is taken down
   (and hinted to) rather than failing the ack.

   Queries fuse per-shard state exactly as before (DESIGN.md §14), but
   read ONE live replica per shard and FAIL OVER to a sibling when a
   replica's breaker opens or its probes exhaust their retries —
   answers keep the full ±ε·m precision through any loss that leaves at
   least one replica per shard.  Only losing a shard's whole replica
   set degrades to `Shard_down with the honest element-count widening.

   Hinted handoff: while a replica is down its shard-mates buffer every
   acked op into a per-peer hint WAL (Hint_log); rejoin drains the log
   into the recovered replica — exactly-once via main-WAL sequence
   arithmetic — before it re-enters the read set.

   Anti-entropy: replicas applying identical op sequences converge
   bit-for-bit (deterministic merge cascade and seeded sketch coins),
   so a scrub-triggered pass compares per-replica state digests
   (Anti_entropy), flags mismatches as `Replica_diverged, and repairs
   the minority from the healthiest sibling by file copy.

   R = 1 is the classic layout, bit-compatible on disk and in metrics
   with stores written before replication existed.

   Concurrency: the group remains single-submitter for queries, steps
   and lifecycle.  With R > 1 the write paths (observe, observe_domain,
   end_time_step, replica up/down transitions) additionally serialize
   on one mutex so a connection-thread ingest cannot race a failover
   transition; R = 1 takes no locks at all. *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device
module Metrics = Hsq_obs.Metrics
module Us = Hsq.Union_summary
module Ss = Hsq.Stream_summary
module Li = Hsq_hist.Level_index

exception Shard_unavailable of int * string

type degradation =
  [ `None
  | `Replica_diverged of (int * int) list
  | `Quarantined of int
  | `Deadline
  | `Device_open
  | `Shard_down of int list ]

let degradation_label : degradation -> string = function
  | #E.degradation as d -> E.degradation_label d
  | `Replica_diverged _ -> "replica_diverged"
  | `Shard_down _ -> "shard_down"

let severity : degradation -> int = function
  | `None -> 0
  | `Replica_diverged _ -> 1
  | `Quarantined _ -> 2
  | `Deadline -> 3
  | `Device_open -> 4
  | `Shard_down _ -> 5

(* Worst wins; equal severities merge their payloads so no information
   is invented (quarantine counts max — they describe the same store —
   and shard / replica lists union). *)
let worst_degradation (a : degradation) (b : degradation) : degradation =
  match (a, b) with
  | `Quarantined x, `Quarantined y -> `Quarantined (max x y)
  | `Shard_down x, `Shard_down y -> `Shard_down (List.sort_uniq compare (x @ y))
  | `Replica_diverged x, `Replica_diverged y -> `Replica_diverged (List.sort_uniq compare (x @ y))
  | _ -> if severity a >= severity b then a else b

type query_report = {
  io : Hsq_storage.Io_stats.counters;
  iterations : int;
  degradation : degradation;
  rank_error_bound : float;
}

type rstate =
  | Live of E.t
  | Dead of string (* reason *)

type replica = {
  rep : int;
  mutable state : rstate;
  mutable hints : Hint_log.t option; (* per-peer handoff log, only while Dead *)
  mutable diverged : bool; (* flagged by anti-entropy, cleared by repair/rejoin *)
}

type t = {
  config : Hsq.Config.t;
  k : int;
  r : int;
  slots : replica array array; (* k × r *)
  last_size : int array; (* last known element count per shard; frozen when all replicas die *)
  root : string option; (* durable root; None = volatile (no rejoin, no hints) *)
  lock : Mutex.t; (* replica transitions + replicated writes (r > 1 only) *)
  (* Fused-summary cache: keyed on the chosen read replica and its
     partition-set epoch (the summary additionally on stream size), so
     a failover to a sibling rebuilds. *)
  mutable agg_cache : ((int * int * int) list * Us.hist_agg) option;
  mutable us_cache : ((int * int * int * int) list * (Ss.t list * Us.t)) option;
  (* Worker pool for parallel accurate-query probes, spawned on the
     first query that fans out ([config.query_domains] > 1); joined by
     [close] / [crash].  Its round metrics go to the group's own
     registry, which outlives any one replica. *)
  query_pool : Hsq.Bisection.pool;
  metrics : Metrics.t;
  (* Per-shard step count at the last uneven cut (see "step
     alignment"); -1 = unknown. *)
  baseline : int array;
  mutable closed : bool;
}

let with_lock t f =
  if t.r = 1 then f ()
  else begin
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
  end

(* --- layout -------------------------------------------------------------- *)

let shard_dir ~root i = Filename.concat root (Printf.sprintf "shard-%d" i)

(* K = 1 stores the (single) shard in the root itself; R = 1 stores the
   (single) replica in the shard directory itself — so K = 1, R = 1 is
   byte-identical to a store laid out by a non-sharded build. *)
let store_dir ~root ~shards ~replicas ~shard ~replica =
  let home = if shards = 1 then root else shard_dir ~root shard in
  if replicas = 1 then home else Filename.concat home (Printf.sprintf "replica-%d" replica)

(* The directory hint logs live in: the shard's home (hint files are
   shard state, not any one replica's). *)
let shard_home t i =
  match t.root with
  | None -> invalid_arg "Shard_group: volatile group has no directories"
  | Some root -> if t.k = 1 then root else shard_dir ~root i

let replica_store_dir t i j =
  match t.root with
  | None -> invalid_arg "Shard_group: volatile group has no directories"
  | Some root -> store_dir ~root ~shards:t.k ~replicas:t.r ~shard:i ~replica:j

let tag_registry t e i j =
  Metrics.Gauge.set
    (Metrics.gauge ~help:"Index of this shard within its group" (E.metrics e) "hsq_shard_index")
    (float_of_int i);
  if t.r > 1 then
    Metrics.Gauge.set
      (Metrics.gauge ~help:"Index of this replica within its shard" (E.metrics e)
         "hsq_replica_index")
      (float_of_int j)

let shard_config config ~wal_dir = { config with Hsq.Config.shards = 1; replicas = 1; wal_dir }

(* --- construction ------------------------------------------------------- *)

let make_t config ~k ~r ~slots ~last_size ~root ~baseline =
  let metrics = Metrics.create () in
  let t =
    {
      config;
      k;
      r;
      slots;
      last_size;
      root;
      lock = Mutex.create ();
      agg_cache = None;
      us_cache = None;
      query_pool = Hsq.Bisection.pool ~metrics config;
      metrics;
      baseline;
      closed = false;
    }
  in
  Array.iteri
    (fun i reps ->
      Array.iter (fun rep -> match rep.state with Live e -> tag_registry t e i rep.rep | Dead _ -> ()) reps)
    slots;
  t

let create config =
  let k = config.Hsq.Config.shards in
  let r = config.Hsq.Config.replicas in
  let slots =
    Array.init k (fun _ ->
        Array.init r (fun j -> { rep = j; state = Live (E.create (shard_config config ~wal_dir:None)); hints = None; diverged = false }))
  in
  make_t config ~k ~r ~slots ~last_size:(Array.make k 0) ~root:None ~baseline:(Array.make k 0)

(* Best-effort element count of a store we failed to open: archived
   elements from the sidecar's partition table plus Observe records
   still in the WAL (the log rotates at each archived step, so the two
   never overlap).  Unreadable pieces count 0 — with an intact WAL
   under sync=Always this equals the acknowledged count; damage can
   only lower the estimate, which the chaos harness tolerates by
   checking the fused bound against the oracle, not this estimate. *)
let estimate_elements dir =
  let _, meta_path, wal_path, _ = E.store_paths ~dir in
  let hist =
    try
      let body = Hsq.Meta.verify_checksum (Hsq.Meta.read_lines meta_path) in
      List.fold_left
        (fun acc line ->
          match String.split_on_char ' ' line with
          | "partition" :: _first_block :: len :: _ -> (
            match int_of_string_opt len with Some l -> acc + l | None -> acc)
          | _ -> acc)
        0 body
    with _ -> 0
  in
  let wal =
    try
      let records, _, _ = Hsq_storage.Wal.read_path ~path:wal_path in
      List.fold_left
        (fun acc (_, r) ->
          match r with
          | Hsq_storage.Wal.Observe _ -> acc + 1
          | Hsq_storage.Wal.End_step _ | Hsq_storage.Wal.End_step_cuts _ -> acc)
        0 records
    with _ -> 0
  in
  hist + wal

type shard_recovery = {
  shard : int;
  replica : int;
  outcome : (E.recovery_report, string) result;
}

(* --- topology accessors (declared early; open_or_recover needs them) --- *)

let live_replicas_of reps =
  let out = ref [] in
  Array.iter (fun rep -> match rep.state with Live e -> out := (rep.rep, e) :: !out | Dead _ -> ()) reps;
  List.rev !out

(* The replica a query reads this shard through: the first live
   non-diverged one, else the first live one (serving a diverged
   replica is better than dropping the shard — the report says so).
   [dropped] (shard, replica) pairs are not candidates. *)
let read_replica ?(dropped = []) t i =
  let live =
    List.filter (fun (j, _) -> not (List.mem (i, j) dropped)) (live_replicas_of t.slots.(i))
  in
  let clean = List.filter (fun (j, _) -> not t.slots.(i).(j).diverged) live in
  match (clean, live) with
  | (j, e) :: _, _ -> Some (j, e, false)
  | [], (j, e) :: _ -> Some (j, e, true)
  | [], [] -> None

let engine t i =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.engine: shard index out of range";
  match read_replica t i with Some (_, e, _) -> Some e | None -> None

let engines t =
  let out = ref [] in
  for i = t.k - 1 downto 0 do
    match read_replica t i with Some (_, e, _) -> out := (i, e) :: !out | None -> ()
  done;
  !out

(* Replica [replica] of shard [shard], range-checked for [who]. *)
let slot who t ~shard ~replica =
  if shard < 0 || shard >= t.k then invalid_arg ("Shard_group." ^ who ^ ": shard out of range");
  if replica < 0 || replica >= t.r then invalid_arg ("Shard_group." ^ who ^ ": replica out of range");
  t.slots.(shard).(replica)

let replica_engine t ~shard ~replica =
  match (slot "replica_engine" t ~shard ~replica).state with Live e -> Some e | Dead _ -> None

(* Every live replica, lexicographic by (shard, replica). *)
let all_live t =
  let out = ref [] in
  for i = t.k - 1 downto 0 do
    for j = t.r - 1 downto 0 do
      match t.slots.(i).(j).state with
      | Live e -> out := (i, j, e) :: !out
      | Dead _ -> ()
    done
  done;
  !out

let live_replicas t i =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.live_replicas: shard index out of range";
  List.map fst (live_replicas_of t.slots.(i))

let shards_down t =
  let down = ref [] in
  for i = t.k - 1 downto 0 do
    if live_replicas_of t.slots.(i) = [] then down := i :: !down
  done;
  !down

(* (shard, replica) pairs whose replica satisfies [p], lexicographic. *)
let pairs_where t p =
  List.concat_map
    (fun i -> List.filter_map (fun rep -> if p rep then Some (i, rep.rep) else None) (Array.to_list t.slots.(i)))
    (List.init t.k Fun.id)

let replicas_down t = pairs_where t (fun rep -> match rep.state with Dead _ -> true | Live _ -> false)
let diverged_replicas t = pairs_where t (fun rep -> rep.diverged)

let down_reason t i =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.down_reason: shard index out of range";
  if live_replicas_of t.slots.(i) <> [] then None
  else match t.slots.(i).(0).state with Dead reason -> Some reason | Live _ -> None

let replica_down_reason t ~shard ~replica =
  match (slot "replica_down_reason" t ~shard ~replica).state with
  | Dead reason -> Some reason
  | Live _ -> None

let hints_pending t ~shard ~replica =
  Option.map Hint_log.record_count (slot "hints_pending" t ~shard ~replica).hints

let refresh_size t i =
  match read_replica t i with Some (_, e, _) -> t.last_size.(i) <- E.total_size e | None -> ()

let refresh_sizes t =
  for i = 0 to t.k - 1 do
    refresh_size t i
  done

let shard_elements t i =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.shard_elements: shard index out of range";
  refresh_size t i;
  t.last_size.(i)

let down_elements t =
  let sum = ref 0 in
  for i = 0 to t.k - 1 do
    if live_replicas_of t.slots.(i) = [] then sum := !sum + t.last_size.(i)
  done;
  !sum

let config t = t.config
let shard_count t = t.k
let replica_count t = t.r

let sketch_label t =
  match t.config.Hsq.Config.stream_sketch with `Gk -> "gk" | `Kll -> "kll"

(* Xorshift-multiply finalizer (constants fit OCaml's 63-bit int):
   uncorrelated with value order and with the block-level chaos coins,
   so adversarial value patterns still spread across the shards. *)
let route t v =
  if t.k = 1 then 0
  else begin
    let x = v lxor (v lsr 33) in
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 29) in
    let x = x * 0x100000001B3 in
    let x = x lxor (x lsr 32) in
    (x land max_int) mod t.k
  end

(* --- step alignment ------------------------------------------------------- *)

(* Step numbers are per engine, and [end_time_step] can archive a step
   on some shards only: a shard that is down, or whose open step is
   empty, does not cut.  Equal step counts therefore do not mean equal
   periods.  [baseline.(i)] is shard i's step count just after the last
   uneven cut (-1 while unknown: the shard was down then).  Every cut
   since reached every shard, so the last [w] steps of the read
   replicas cover the same periods iff each has archived the same
   number d >= w of steps past its baseline.  The baselines are rebased
   at every uneven cut, and whenever the read replicas disagree on d
   (a reopen after a crash between a cut and its rebase, a rejoin);
   a durable group keeps them in its root, written only by a rebase —
   which never happens at K = 1, so that layout stays a lone engine's. *)

let baseline_path root = Filename.concat root "step-baseline"

let render_baseline b =
  let body = Printf.sprintf "hsq-steps 1\n%s\n" (String.concat " " (List.map string_of_int (Array.to_list b))) in
  Printf.sprintf "%schecksum %x\n" body (Hsq.Meta.checksum body)

(* A store written before baselines existed has no file: nothing was
   ever rebased.  An unreadable file makes every baseline unknown, so
   the opening [settle_steps] rebases. *)
let load_baseline ~root ~k =
  let path = baseline_path root in
  let parse () =
    match Hsq.Meta.verify_checksum (Hsq.Meta.read_lines path) with
    | [ "hsq-steps 1"; line ] -> Array.of_list (List.map int_of_string (String.split_on_char ' ' line))
    | _ -> [||]
  in
  if not (Sys.file_exists path) then Array.make k 0
  else match parse () with b when Array.length b = k -> b | _ | (exception _) -> Array.make k (-1)

(* Steps every read replica in [es] has archived past its baseline, if
   they agree. *)
let aligned_steps t es =
  let past (i, e) = if t.baseline.(i) < 0 then -1 else E.time_steps e - t.baseline.(i) in
  match es with
  | [] -> None
  | first :: rest ->
    let d = past first in
    if d >= 0 && List.for_all (fun x -> past x = d) rest then Some d else None

let rebase_steps t =
  for i = 0 to t.k - 1 do
    t.baseline.(i) <- (match read_replica t i with Some (_, e, _) -> E.time_steps e | None -> -1)
  done;
  match t.root with
  | None -> ()
  | Some root -> (
    (* A failed write keeps the previous file: the uneven counts still
       show at the next open, unless another uneven cut whose write
       also failed evens them out. *)
    try Hsq.Meta.write ~path:(baseline_path root) (render_baseline t.baseline) with _ -> ())

let settle_steps t =
  let es = engines t in
  if es <> [] && aligned_steps t es = None then rebase_steps t

(* --- replica transitions ------------------------------------------------ *)

let invalidate t = t.us_cache <- None

let drop_caches t =
  t.agg_cache <- None;
  invalidate t

(* Take one replica down (caller holds the lock when r > 1).  The
   engine is crash-released — a close would flush through the device
   that just died; under WAL [Always] nothing acknowledged is pending.
   If the replica is durable and single-lane, a hint log is started so
   shard-mates can buffer subsequent acked ops for it: the base seq is
   the replica's main-WAL next_seq, its op cursor (each op appends
   exactly one record, so on rejoin [recovered next_seq - base_seq]
   counts the hints already applied — exactly-once across crashes
   mid-drain).  Multi-lane engines spread ops over several logs, the
   arithmetic does not hold, and rejoin must repair from a sibling
   instead. *)
let replica_down_locked t i rep ~reason =
  match rep.state with
  | Dead _ -> ()
  | Live e ->
    (* Freeze the shard's element count if this was its last live
       replica (refresh_sizes skips shards with nothing live). *)
    if List.length (live_replicas_of t.slots.(i)) = 1 then
      t.last_size.(i) <- (try E.total_size e with _ -> t.last_size.(i));
    let base =
      if t.r > 1 && t.root <> None && t.config.Hsq.Config.ingest_domains = 1 then
        match E.durability_status e with Some ds -> Some ds.E.wal_next_seq | None -> None
      else None
    in
    (try E.crash e with _ -> ());
    rep.state <- Dead reason;
    rep.diverged <- false;
    (match rep.hints with
    | Some hl ->
      Hint_log.crash hl;
      rep.hints <- None
    | None -> ());
    (match base with
    | Some base_seq -> (
      try
        rep.hints <-
          Some
            (Hint_log.start ~dir:(shard_home t i) ~peer:rep.rep
               ~sync:t.config.Hsq.Config.wal_sync ~base_seq)
      with _ -> rep.hints <- None)
    | None -> ());
    drop_caches t

let mark_replica_down t ~shard ~replica ~reason =
  let rep = slot "mark_replica_down" t ~shard ~replica in
  with_lock t (fun () -> replica_down_locked t shard rep ~reason)

let mark_down t i ~reason =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.mark_down: shard index out of range";
  with_lock t (fun () ->
      Array.iter (fun rep -> replica_down_locked t i rep ~reason) t.slots.(i))

(* --- ingest ------------------------------------------------------------- *)

(* Append one acked op to the hint log of every dead replica.  A hint
   append that itself fails breaks the pair ([mark_broken]) so rejoin
   falls back to repair — the ack stands either way. *)
let hint_dead reps hint =
  Array.iter
    (fun rep ->
      match (rep.state, rep.hints) with
      | Dead _, Some hl -> (
        try hint hl
        with _ ->
          Hint_log.mark_broken hl;
          rep.hints <- None)
      | _ -> ())
    reps

(* Replicated write fan-out (r > 1, caller holds the lock): apply to
   every live replica first — one that fails its append is taken down
   (and from now on hinted to) instead of failing the ack; the op is
   acknowledged iff at least one live replica accepted it.  Only then
   are hints appended for the dead replicas: a hint must never cover an
   op that was not acked. *)
let fanout_locked t i ~apply ~hint =
  let reps = t.slots.(i) in
  let acked = ref 0 in
  let last_err = ref "every replica is down" in
  Array.iter
    (fun rep ->
      match rep.state with
      | Dead reason -> if !acked = 0 then last_err := reason
      | Live e -> (
        match apply e with
        | () -> incr acked
        | exception (BD.Device_error msg | Sys_error msg) ->
          last_err := msg;
          replica_down_locked t i rep ~reason:msg))
    reps;
  if !acked = 0 then raise (Shard_unavailable (i, !last_err));
  hint_dead reps hint

let observe t v =
  let i = route t v in
  if t.r = 1 then begin
    let rep = t.slots.(i).(0) in
    match rep.state with
    | Dead reason -> raise (Shard_unavailable (i, reason))
    | Live e ->
      E.observe e v;
      t.last_size.(i) <- t.last_size.(i) + 1;
      invalidate t
  end
  else
    with_lock t (fun () ->
        fanout_locked t i ~apply:(fun e -> E.observe e v) ~hint:(fun hl -> Hint_log.observe hl v);
        t.last_size.(i) <- t.last_size.(i) + 1;
        invalidate t)

(* Concurrent ingest: value-hash picks the shard (same routing as
   [observe]), the caller's domain picks the lane within it.  With
   r = 1 there is no [last_size] bump and no cache invalidation — both
   are plain mutable fields a concurrent writer would race; the
   us_cache key embeds each engine's [stream_size] (which only moves
   under the engine's propagation lock), so a query on the
   single-submitter thread rebuilds exactly when propagated data
   changed, and [refresh_sizes] re-reads sizes on every query path.
   With r > 1 the fan-out serializes on the group lock (replication
   trades lane concurrency for redundancy; the bench's R rows price
   it). *)
let observe_domain t ~domain v =
  let i = route t v in
  if t.r = 1 then begin
    match t.slots.(i).(0).state with
    | Dead reason -> raise (Shard_unavailable (i, reason))
    | Live e -> E.observe_domain e ~domain v
  end
  else
    with_lock t (fun () ->
        fanout_locked t i
          ~apply:(fun e -> E.observe_domain e ~domain v)
          ~hint:(fun hl -> Hint_log.observe hl v))

(* Seal-and-drain every lane of every live replica (engine-thread only). *)
let flush_ingest t = List.iter (fun (_, _, e) -> E.flush_ingest e) (all_live t)

let checkpoint_if_due t =
  List.fold_left (fun acc (_, _, e) -> E.checkpoint_if_due e || acc) false (all_live t)

(* A replica whose open step is empty is skipped.  The engine's own
   cut is the test ([Invalid_argument] on an empty batch): elements
   still sitting in ingest-lane buffers are not yet counted by
   [E.stream_size], but the cut seals the lanes first and sees them.
   A step that reached some shards but not all rebases the step
   alignment. *)
let end_time_step t =
  let out = ref [] in
  with_lock t (fun () ->
      Array.iteri
        (fun i reps ->
          if t.r = 1 then begin
            match reps.(0).state with
            | Dead _ -> ()
            | Live e -> (
              match E.end_time_step e with
              | report -> out := (i, Ok report) :: !out
              | exception Invalid_argument _ -> ()
              | exception BD.Device_error msg -> out := (i, Error msg) :: !out)
          end
          else begin
            (* Cut on every live replica holding elements in the open
               step; a replica that fails its cut goes down (its
               sibling's cut stands).  The cut is then hinted to dead
               replicas so their drains archive the same step boundary. *)
            let ok = ref None in
            let err = ref None in
            Array.iter
              (fun rep ->
                match rep.state with
                | Live e -> (
                  match E.end_time_step e with
                  | report -> if !ok = None then ok := Some (report, E.time_steps e)
                  | exception Invalid_argument _ -> ()
                  | exception BD.Device_error msg ->
                    err := Some msg;
                    replica_down_locked t i rep ~reason:msg)
                | Dead _ -> ())
              reps;
            match (!ok, !err) with
            | Some (report, step), _ ->
              out := (i, Ok report) :: !out;
              hint_dead reps (fun hl -> Hint_log.end_step hl ~step ~count:0)
            | None, Some msg -> out := (i, Error msg) :: !out
            | None, None -> ()
          end)
        t.slots;
      let cut = List.length (List.filter (fun (_, r) -> Result.is_ok r) !out) in
      if cut > 0 && cut < t.k then rebase_steps t;
      drop_caches t);
  List.rev !out

(* --- sizes -------------------------------------------------------------- *)

let total_size t =
  refresh_sizes t;
  Array.fold_left ( + ) 0 t.last_size

let hist_size t = List.fold_left (fun acc (_, e) -> acc + E.hist_size e) 0 (engines t)
let stream_size t = List.fold_left (fun acc (_, e) -> acc + E.stream_size e) 0 (engines t)
let time_steps t = List.fold_left (fun acc (_, e) -> max acc (E.time_steps e)) 0 (engines t)

let epsilon t =
  match engines t with
  | [] -> invalid_arg "Shard_group.epsilon: every shard is down"
  | (_, e) :: rest -> List.fold_left (fun acc (_, e) -> Float.max acc (E.epsilon e)) (E.epsilon e) rest

let memory_words t = List.fold_left (fun acc (_, _, e) -> acc + E.memory_words e) 0 (all_live t)

(* --- fused view --------------------------------------------------------- *)

(* The state one fused query works from: ONE read replica per shard.
   [excluded]/[excluded_elems] name the shards with no eligible replica
   at all (permanently down plus any whose whole replica set was
   dropped at runtime) — the honest widening of every answer derived
   from this view.  A shard that merely lost its first-choice replica
   fails over to a sibling and widens nothing: the sibling holds the
   same logical data.  [served_diverged] lists read replicas serving
   while flagged by anti-entropy (only chosen when no clean sibling is
   live) — surfaced as `Replica_diverged.  [window] is the partition
   selector: [None] is every archived step, [Some w] the last [w]
   (Section 2.4). *)
type view = {
  alive : (int * int * E.t) list; (* (shard, replica, engine) *)
  window : int option;
  streams : Ss.t list;
  us : Us.t;
  excluded : int list;
  excluded_elems : int;
  served_diverged : (int * int) list;
}

(* A window the read replicas cannot answer together. *)
exception Misaligned

(* Whether the read replicas [es] can answer a window of [w] steps
   together: each has archived at least [w] steps since the last uneven
   cut (see "step alignment") and aligns [w] with its partition
   boundaries. *)
let window_fits t es w =
  match aligned_steps t es with
  | Some d -> w <= d && List.for_all (fun (_, e) -> Li.partitions_for_window (E.hist e) w <> None) es
  | None -> false

(* The replica's partitions the selector keeps, quarantined ones
   included. *)
let selected ~window e =
  match window with
  | None -> Li.partitions (E.hist e)
  | Some w -> (
    match Li.partitions_for_window (E.hist e) w with Some ps -> ps | None -> raise Misaligned)

let active ~window e =
  List.filter (fun p -> not (Li.is_quarantined (E.hist e) p)) (selected ~window e)

(* Quarantined elements inside the selection, re-read on every call: a
   quarantine earlier in a query widens every later answer too. *)
let quarantined_sum view =
  List.fold_left
    (fun acc (_, _, e) ->
      List.fold_left
        (fun acc p ->
          if Li.is_quarantined (E.hist e) p then acc + Hsq_hist.Partition.size p else acc)
        acc (selected ~window:view.window e))
    0 view.alive

let agg_key alive = List.map (fun (i, j, e) -> (i, j, Li.epoch (E.hist e))) alive
let us_key alive = List.map (fun (i, j, e) -> (i, j, Li.epoch (E.hist e), E.stream_size e)) alive

let fused_agg t alive =
  let key = agg_key alive in
  match t.agg_cache with
  | Some (k, agg) when k = key -> agg
  | _ ->
    let partitions = List.concat_map (fun (_, _, e) -> Li.active_partitions (E.hist e)) alive in
    let agg = Us.hist_aggregate ~partitions in
    t.agg_cache <- Some (key, agg);
    agg

(* Per-shard stream summaries for a fused build.  When every read
   replica runs the mergeable KLL sketch, the per-shard snapshots merge
   into ONE sketch and the view carries a single stream summary: the
   fused heap then brackets union ranks through sketch merge instead of
   summed per-shard windows (DESIGN.md §16).  Any GK shard (or an empty
   group) falls back to the summed-window path unchanged. *)
let streams_of alive =
  let snapshots = List.map (fun (_, _, e) -> E.kll_snapshot e) alive in
  if alive <> [] && List.for_all Option.is_some snapshots then
    let merged =
      List.fold_left
        (fun acc s ->
          match (acc, s) with
          | None, s -> s
          | acc, None -> acc
          | Some a, Some b -> Some (Hsq_sketch.Kll.merge a b))
        None snapshots
    in
    match merged with
    | Some m -> [ Ss.extract (Hsq.Stream_sketch.Kll m) ]
    | None -> []
  else List.map (fun (_, _, e) -> E.stream_summary e) alive

let fused_summaries t alive =
  let key = us_key alive in
  let note hit = List.iter (fun (_, _, e) -> E.note_summary_cache e ~hit) alive in
  match t.us_cache with
  | Some (k, v) when k = key ->
    note true;
    v
  | _ ->
    note false;
    let agg = fused_agg t alive in
    let streams = streams_of alive in
    let us = Us.build_fused ~agg ~streams in
    let v = (streams, us) in
    t.us_cache <- Some (key, v);
    v

(* The read replicas a query works from, [dropped] (shard, replica)
   pairs disqualified, with the shards left without one and the
   diverged replicas serving.  The one place that decides whether
   [window] is answerable: raises [Misaligned] when it is not. *)
let choose ?window t ~dropped =
  refresh_sizes t;
  let alive = ref [] in
  let excluded = ref [] in
  let served_diverged = ref [] in
  for i = t.k - 1 downto 0 do
    match read_replica ~dropped t i with
    | Some (j, e, diverged) ->
      alive := (i, j, e) :: !alive;
      if diverged then served_diverged := (i, j) :: !served_diverged
    | None -> excluded := i :: !excluded
  done;
  let alive = !alive in
  (match window with
  | Some w when not (window_fits t (List.map (fun (i, _, e) -> (i, e)) alive) w) -> raise Misaligned
  | _ -> ());
  (alive, !excluded, !served_diverged)

let make_view ?window t ~dropped =
  let alive, excluded, served_diverged = choose ?window t ~dropped in
  let excluded_elems = List.fold_left (fun acc i -> acc + t.last_size.(i)) 0 excluded in
  let streams, us =
    (* The cache only serves the full view without runtime drops; a
       window or a mid-query drop rebuilds fresh. *)
    if window = None && dropped = [] then fused_summaries t alive
    else
      let streams = streams_of alive in
      let partitions = List.concat_map (fun (_, _, e) -> active ~window e) alive in
      (streams, Us.build_fused ~agg:(Us.hist_aggregate ~partitions) ~streams)
  in
  { alive; window; streams; us; excluded; excluded_elems; served_diverged }

(* The view's active partitions tagged with their (shard, replica)
   owner: the accurate path's probes, built only there. *)
let probes view =
  List.concat_map
    (fun (i, j, e) -> List.map (fun p -> ((i, j), p)) (active ~window:view.window e))
    view.alive

(* Memory-only fallback when quarantine emptied the active view: the
   full selection (quarantined included) still carries honest — if
   wide — summary windows, at zero device reads (the engine's
   quick_view argument, fused).  Returns [true] iff it substituted the
   full-selection summary, whose windows already cover the quarantined
   elements (no double widening). *)
let full_view_fallback view =
  if Us.n_total view.us > 0 then (view, false)
  else begin
    let partitions = List.concat_map (fun (_, _, e) -> selected ~window:view.window e) view.alive in
    let streams = streams_of view.alive in
    let full = Us.build_fused ~agg:(Us.hist_aggregate ~partitions) ~streams in
    if Us.size full > 0 then ({ view with us = full; streams }, true) else (view, false)
  end

let down_degradation view : degradation =
  let shard_deg : degradation =
    match view.excluded with [] -> `None | ks -> `Shard_down ks
  in
  let diverged_deg : degradation =
    match view.served_diverged with [] -> `None | ps -> `Replica_diverged ps
  in
  worst_degradation shard_deg diverged_deg

(* --- fused quick -------------------------------------------------------- *)

let ensure_open t = if t.closed then invalid_arg "Shard_group: closed"

let fused_quick ?window t ~rank =
  ensure_open t;
  let view, fallback = full_view_fallback (make_view ?window t ~dropped:[]) in
  if Us.n_total view.us = 0 then invalid_arg "Shard_group.quick: no data";
  let q = if fallback then 0 else quarantined_sum view in
  let v, bound = Hsq.Bisection.memory_answer view.us ~rank ~widen:(q + view.excluded_elems) in
  let degradation =
    worst_degradation (down_degradation view) (if q > 0 then `Quarantined q else `None)
  in
  (v, bound, degradation)

let quick_with_bound t ~rank = fused_quick t ~rank

let quick t ~rank =
  let v, _, _ = quick_with_bound t ~rank in
  v

(* --- fused accurate ------------------------------------------------------ *)

(* Algorithms 6-8 across all shards: the shared bisection (Hsq.Bisection)
   over the view's owner-tagged partitions and per-shard stream
   summaries, under the group's failure policy — quarantine first, then
   drop the (shard, replica) and fail over to a sibling. *)
let fused_accurate ?window ?(tolerance_factor = 0.5) ?deadline_ms t ~rank =
  ensure_open t;
  let t0 = Metrics.now_s () in
  let dropped = ref [] in
  (* Memory answer from whatever summary is in hand.  Widening: live
     quarantined elements plus every shard absent from this view's
     summary — shards dropped *after* the view was built still have
     their in-memory contribution inside [us], so they widen nothing
     here (the summary covers them). *)
  let from_memory view degradation =
    let widen = quarantined_sum view + view.excluded_elems in
    Hsq.Bisection.From_memory (view.us, degradation, widen)
  in
  let fetch () =
    let view, mem_fallback = full_view_fallback (make_view ?window t ~dropped:!dropped) in
    if Us.n_total view.us = 0 then
      (* Nothing reachable at all (every shard down or empty). *)
      invalid_arg "Shard_group.accurate: no data";
    let probes = probes view in
    if mem_fallback || (probes = [] && view.streams = []) then
      from_memory view (worst_degradation (down_degradation view) `Device_open)
    else
      Hsq.Bisection.Bisect
        { Hsq.Bisection.summary = view.us; streams = view.streams; probes; meta = view }
  in
  let total_parts =
    List.fold_left (fun acc (_, _, e) -> acc + Li.partition_count (E.hist e)) 0 (all_live t)
  in
  let max_retries = (total_parts * t.config.Hsq.Config.quarantine_after) + (t.k * t.r) + 2 in
  let policy =
    {
      Hsq.Bisection.outcome =
        (fun { meta = view; _ } ending ->
          (* Failed-over shards are NOT excluded: their sibling replicas
             carry the same logical data, so the full ±ε·m contract
             survives any loss that leaves one replica per shard. *)
          let q = quarantined_sum view in
          let d =
            match ending with
            | `Completed -> if q > 0 then `Quarantined q else `None
            | `Deadline -> `Deadline
          in
          (worst_degradation (down_degradation view) d, q + view.excluded_elems));
      note_success =
        (fun (i, j) p ->
          match t.slots.(i).(j).state with
          | Live e -> Li.note_probe_success (E.hist e) p
          | Dead _ -> ());
      on_failure =
        (fun ~tries src (s, j) p ->
          let view = src.Hsq.Bisection.meta in
          (* Quarantine machinery still learns from every failure, so a
             single sick partition quarantines instead of condemning its
             whole replica. *)
          let breaker_open, quarantined_now =
            match t.slots.(s).(j).state with
            | Dead _ -> (true, false)
            | Live e ->
              let breaker_open = BD.breaker_state (E.device e) = Hsq_storage.Breaker.Open in
              let threshold = t.config.Hsq.Config.quarantine_after in
              (breaker_open, Li.note_probe_failure (E.hist e) p ~threshold)
          in
          if breaker_open || tries >= max_retries then begin
            (* The replica, not the partition, is the fault domain now:
               drop it from this query and restart over the survivors —
               the shard fails over to a sibling replica if it has one
               (full precision preserved), and only a shard whose whole
               replica set is gone leaves the fused answer.  Restart
               (rather than patching the probe set) is required for
               correctness — earlier narrowing used the dropped
               replica's ranks. *)
            dropped := List.sort_uniq compare ((s, j) :: !dropped);
            let any_candidate =
              List.exists (fun (i, jj, _) -> not (List.mem (i, jj) !dropped)) (all_live t)
            in
            if not any_candidate then
              (* Every replica of every shard dropped: answer from the
                 last summary in hand (it still covers the dropped
                 replicas' memory state). *)
              from_memory view (worst_degradation (`Shard_down (List.init t.k Fun.id)) `Device_open)
            else fetch ()
          end
          else if quarantined_now then fetch () (* epoch bumped: rebuild *)
          else Hsq.Bisection.Bisect src);
    }
  in
  let deadline_at = Hsq.Bisection.deadline_at ~start:t0 ?deadline_ms t.config in
  (* IO accounting spans every live replica: a failover mid-query reads
     a sibling that was not in the opening view. *)
  let stats = List.map (fun (_, _, e) -> BD.stats (E.device e)) (all_live t) in
  let { Hsq.Bisection.answer; degradation; bound = rank_error_bound; iterations; io } =
    Hsq.Bisection.run ?deadline_at ~pool:t.query_pool ~stats ~tolerance_factor ~policy ~rank
      (fetch ())
  in
  let seconds = Metrics.now_s () -. t0 in
  List.iter
    (fun (_, e) -> E.note_accurate e ~seconds ~iterations ~degraded:(degradation <> `None))
    (engines t);
  (answer, { io; iterations; degradation; rank_error_bound })

let accurate ?tolerance_factor ?deadline_ms t ~rank =
  fused_accurate ?tolerance_factor ?deadline_ms t ~rank

let quantile t phi =
  let n = total_size t in
  if n = 0 then invalid_arg "Shard_group.quantile: no data";
  accurate t ~rank:(Hsq.Bisection.rank_of_phi ~who:"Shard_group.quantile" ~n phi)

(* --- windows --------------------------------------------------------------- *)

let window_sizes t =
  match engines t with [] -> [] | (_, e) :: _ as es -> List.filter (window_fits t es) (E.window_sizes e)

let windowed t f =
  match f () with
  | v -> Ok v
  | exception Misaligned -> Error (E.Window_not_aligned (window_sizes t))

let window_total t ~window =
  windowed t (fun () ->
      let alive, _, _ = choose ~window t ~dropped:[] in
      List.fold_left
        (fun acc (_, _, e) ->
          List.fold_left
            (fun acc p -> acc + Hsq_hist.Partition.size p)
            (acc + E.stream_size e)
            (selected ~window:(Some window) e))
        0 alive)

let quick_window t ~window ~rank = windowed t (fun () -> fused_quick ~window t ~rank)

let accurate_window ?tolerance_factor ?deadline_ms t ~window ~rank =
  windowed t (fun () -> fused_accurate ~window ?tolerance_factor ?deadline_ms t ~rank)

(* --- anti-entropy -------------------------------------------------------- *)

type entropy_report = {
  entropy_shard : int;
  digests : (int * Anti_entropy.digest) list; (* live replicas, ascending *)
  flagged : (int * string) list; (* replicas flagged diverged this pass, with their digest *)
  repaired : int list;
  repair_failed : (int * string) list;
}

(* The replica repairs copy from: among the candidate live replicas,
   prefer a closed breaker, then the most data, then the lowest
   index — "healthiest sibling". *)
let healthiest candidates =
  let score (j, e) =
    let breaker_ok =
      match BD.breaker_state (E.device e) with Hsq_storage.Breaker.Closed -> 1 | _ -> 0
    in
    (breaker_ok, E.total_size e, -j)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (fun best c -> if score c > score best then c else best) first rest)

(* Converge replica [rep] of shard [i] onto live sibling [src]: force a
   checkpoint on the source so its files are a complete rendering of
   its state, crash-release the target, copy the store byte-for-byte,
   and recover the copy — recovery of identical bytes yields an
   identical engine (deterministic replay).  Caller holds the lock. *)
let repair_replica_locked t i rep ~src:(src_j, src_e) =
  (try E.checkpoint_now src_e with _ -> ());
  (match rep.state with
  | Live e -> ( try E.crash e with _ -> ())
  | Dead _ -> ());
  rep.state <- Dead "repairing from sibling";
  (match rep.hints with
  | Some hl ->
    Hint_log.discard hl;
    rep.hints <- None
  | None -> ());
  match
    Anti_entropy.copy_store ~src:(replica_store_dir t i src_j) ~dst:(replica_store_dir t i rep.rep);
    E.open_or_recover (shard_config t.config ~wal_dir:(Some (replica_store_dir t i rep.rep)))
  with
  | e, _report ->
    tag_registry t e i rep.rep;
    rep.state <- Live e;
    rep.diverged <- false;
    drop_caches t;
    Ok e
  | exception exn ->
    let reason = "repair failed: " ^ Printexc.to_string exn in
    rep.state <- Dead reason;
    drop_caches t;
    Error reason

(* Compare per-replica state digests within each shard; flag the
   minority as diverged ([`Replica_diverged] in reports that must serve
   them, a warning in health) and, with [repair], converge them onto
   the healthiest sibling.  Digest equality is exact for single-lane
   groups (replicas see identical op sequences); requires a durable
   group with r > 1 — otherwise returns []. *)
let anti_entropy ?(repair = false) t =
  ensure_open t;
  if t.r = 1 || t.root = None then []
  else
    with_lock t (fun () ->
        let reports = ref [] in
        for i = 0 to t.k - 1 do
          let live = live_replicas_of t.slots.(i) in
          if List.length live >= 2 then begin
            let digests =
              List.map
                (fun (j, e) ->
                  (j, Anti_entropy.digest ~store_dir:(replica_store_dir t i j) e))
                live
            in
            (* Majority rule: the largest group of equal digests is the
               truth; ties break toward the group holding the
               healthiest replica. *)
            let groups =
              List.fold_left
                (fun acc (j, d) ->
                  match List.partition (fun (d', _) -> Anti_entropy.equal d d') acc with
                  | [ (d', js) ], rest -> (d', j :: js) :: rest
                  | _, rest -> (d, [ j ]) :: rest)
                [] digests
            in
            let ref_group =
              List.fold_left
                (fun best (d, js) ->
                  match best with
                  | None -> Some (d, js)
                  | Some (_, bjs) when List.length js > List.length bjs -> Some (d, js)
                  | Some (bd, bjs) when List.length js = List.length bjs -> (
                    let members jset =
                      List.filter (fun (j, _) -> List.mem j jset) live
                    in
                    match (healthiest (members js), healthiest (members bjs)) with
                    | Some (hj, _), Some (bhj, _) ->
                      if d.Anti_entropy.elements > bd.Anti_entropy.elements
                         || (d.Anti_entropy.elements = bd.Anti_entropy.elements && hj < bhj)
                      then Some (d, js)
                      else best
                    | _ -> best)
                  | best -> best)
                None groups
            in
            match ref_group with
            | None -> ()
            | Some (ref_digest, ref_js) ->
              let flagged = ref [] in
              let repaired = ref [] in
              let repair_failed = ref [] in
              List.iter
                (fun (j, d) ->
                  let rep = t.slots.(i).(j) in
                  if Anti_entropy.equal d ref_digest then rep.diverged <- false
                  else begin
                    rep.diverged <- true;
                    flagged := (j, Anti_entropy.to_string d) :: !flagged;
                    if repair then begin
                      let src =
                        healthiest (List.filter (fun (j', _) -> List.mem j' ref_js) live)
                      in
                      match src with
                      | None -> ()
                      | Some src -> (
                        match repair_replica_locked t i rep ~src with
                        | Ok _ -> repaired := j :: !repaired
                        | Error reason -> repair_failed := (j, reason) :: !repair_failed)
                    end
                  end)
                digests;
              (* Flags (set or cleared) steer read-replica choice. *)
              drop_caches t;
              reports :=
                {
                  entropy_shard = i;
                  digests;
                  flagged = List.rev !flagged;
                  repaired = List.rev !repaired;
                  repair_failed = List.rev !repair_failed;
                }
                :: !reports
          end
        done;
        (* A repaired read replica takes its source's step count. *)
        settle_steps t;
        List.rev !reports)

(* --- rejoin -------------------------------------------------------------- *)

(* Apply one drained hint record to a recovering replica. *)
let apply_hint e = function
  | Hsq_storage.Wal.Observe v -> E.observe e v
  | Hsq_storage.Wal.End_step _ | Hsq_storage.Wal.End_step_cuts _ ->
    if E.stream_size e > 0 then ignore (E.end_time_step e)

(* Admit a freshly recovered engine [e] as replica [rep] of shard [i]:
   drain its hint log (exactly-once via the seq arithmetic), verify the
   result against a live sibling, and fall back to sibling repair on
   any doubt.  Caller holds the lock; [rep.state] is Dead on entry. *)
let admit_replica_locked t i rep e =
  let sync = t.config.Hsq.Config.wal_sync in
  let home = shard_home t i in
  let had_pair = Hint_log.exists ~dir:home ~peer:rep.rep in
  (* Any stale in-memory handle was closed by the caller; reattach from
     disk so we read the complete flushed log. *)
  let hl = if had_pair then Hint_log.reopen ~dir:home ~peer:rep.rep ~sync else None in
  let single_lane = t.config.Hsq.Config.ingest_domains = 1 in
  (* `Clean: nothing to drain. `Drained: hints applied. Any Error:
     the replica's state is in doubt — repair from a sibling. *)
  let drain =
    match hl with
    | None -> if had_pair then Error "hint log unreadable" else Ok `Clean
    | Some _ when not single_lane -> Error "multi-lane replica cannot drain hints"
    | Some hl -> (
      match E.durability_status e with
      | None -> Error "replica has no durability status"
      | Some ds ->
        let skip = ds.E.wal_next_seq - Hint_log.base_seq hl in
        if skip < 0 then
          (* The replica lost acknowledged ops that predate the hints
             (possible under Group/Never sync): they are not in the
             log, so only a repair can restore them. *)
          Error "replica recovered below the hint base (pre-hint acked ops lost)"
        else begin
          let recs = Hint_log.records hl in
          let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
          let todo = drop skip recs in
          match List.iter (apply_hint e) todo with
          | () -> Ok (`Drained (List.length todo))
          | exception exn -> Error ("hint drain failed: " ^ Printexc.to_string exn)
        end)
  in
  let discard_pair () =
    (match hl with
    | Some hl -> Hint_log.discard hl
    | None ->
      (try Sys.remove (Hint_log.wal_path ~dir:home ~peer:rep.rep) with Sys_error _ -> ());
      (try Sys.remove (Hint_log.base_path ~dir:home ~peer:rep.rep) with Sys_error _ -> ()));
    rep.hints <- None
  in
  let sibling () =
    healthiest
      (List.filter (fun (j, _) -> j <> rep.rep) (live_replicas_of t.slots.(i)))
  in
  (* Cheap consistency check against a live sibling: op cursor and
     logical sizes must agree once hints are drained (full digests run
     under scrub's anti-entropy pass, which catches deeper divergence). *)
  let consistent_with_sibling () =
    match sibling () with
    | None -> true (* nothing to compare against: this replica IS the best copy *)
    | Some (_, se) -> (
      E.total_size e = E.total_size se
      && E.time_steps e = E.time_steps se
      &&
      match (E.durability_status e, E.durability_status se) with
      | Some a, Some b -> a.E.wal_next_seq = b.E.wal_next_seq
      | _ -> true)
  in
  let admit e =
    tag_registry t e i rep.rep;
    rep.state <- Live e;
    rep.diverged <- false;
    discard_pair ();
    drop_caches t;
    Ok e
  in
  match drain with
  | Ok _ when consistent_with_sibling () -> admit e
  | Ok _ | Error _ -> (
    (* Drain impossible or the drained state disagrees with a live
       sibling: converge by repair.  With no live sibling the recovered
       state is the best copy there is — admit it as-is. *)
    match sibling () with
    | None -> admit e
    | Some src ->
      (try E.crash e with _ -> ());
      rep.state <- Dead "repairing on rejoin";
      discard_pair ();
      repair_replica_locked t i rep ~src)

let rejoin_replica t ~shard ~replica =
  let rep = slot "rejoin_replica" t ~shard ~replica in
  match rep.state with
  | Live _ -> Error "replica is not down"
  | Dead _ -> (
    match t.root with
    | None -> Error "volatile shard cannot rejoin (its data died with it)"
    | Some _ ->
      with_lock t (fun () ->
          (* Flush and detach the in-memory hint handle so the on-disk
             pair is complete before the drain re-reads it. *)
          (match rep.hints with
          | Some hl ->
            Hint_log.close hl;
            rep.hints <- None
          | None -> ());
          let dir = replica_store_dir t shard replica in
          match E.open_or_recover (shard_config t.config ~wal_dir:(Some dir)) with
          | exception exn ->
            (* Still down; reattach the hint log so ongoing acked ops
               keep accumulating for a later attempt. *)
            rep.hints <-
              Hint_log.reopen ~dir:(shard_home t shard) ~peer:replica
                ~sync:t.config.Hsq.Config.wal_sync;
            Error ("rejoin recovery failed: " ^ Printexc.to_string exn)
          | e, recovery -> (
            match admit_replica_locked t shard rep e with
            | Error _ as err -> err
            | Ok e -> (
              match Hsq.Persist.scrub ~repair:true e with
              | scrub ->
                t.last_size.(shard) <- E.total_size e;
                drop_caches t;
                settle_steps t;
                Ok (recovery, scrub)
              | exception exn ->
                replica_down_locked t shard rep
                  ~reason:("rejoin scrub failed: " ^ Printexc.to_string exn);
                Error ("rejoin scrub failed: " ^ Printexc.to_string exn)))))

(* Shard-level rejoin: every dead replica of the shard attempts its
   per-replica rejoin.  Succeeds if at least one replica came back
   (the shard serves again); returns the first successful replica's
   reports, matching the unreplicated signature. *)
let rejoin t i =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.rejoin: shard index out of range";
  let dead =
    List.filter_map
      (fun rep -> match rep.state with Dead _ -> Some rep.rep | Live _ -> None)
      (Array.to_list t.slots.(i))
  in
  if dead = [] then Error "shard is not down"
  else if t.root = None then Error "volatile shard cannot rejoin (its data died with it)"
  else begin
    let results = List.map (fun j -> rejoin_replica t ~shard:i ~replica:j) dead in
    match List.find_opt Result.is_ok results with
    | Some (Ok payload) -> Ok payload
    | _ -> ( match results with Error e :: _ -> Error e | _ -> Error "rejoin failed")
  end

let open_or_recover config =
  let root =
    match config.Hsq.Config.wal_dir with
    | Some d -> d
    | None -> invalid_arg "Shard_group.open_or_recover: config.wal_dir not set"
  in
  let k = config.Hsq.Config.shards in
  let r = config.Hsq.Config.replicas in
  if Sys.file_exists root then begin
    if not (Sys.is_directory root) then
      invalid_arg "Shard_group.open_or_recover: wal_dir is not a directory"
  end
  else Sys.mkdir root 0o755;
  let recoveries = ref [] in
  let slots =
    Array.init k (fun i ->
        let home = if k = 1 then root else shard_dir ~root i in
        if r > 1 && not (Sys.file_exists home) then Sys.mkdir home 0o755;
        Array.init r (fun j ->
            let dir = store_dir ~root ~shards:k ~replicas:r ~shard:i ~replica:j in
            match E.open_or_recover (shard_config config ~wal_dir:(Some dir)) with
            | e, report ->
              recoveries := { shard = i; replica = j; outcome = Ok report } :: !recoveries;
              { rep = j; state = Live e; hints = None; diverged = false }
            | exception
                (( BD.Device_error _ | Hsq.Meta.Corrupt_metadata _ | Sys_error _
                 | Invalid_argument _ ) as exn) ->
              let reason = Printexc.to_string exn in
              recoveries := { shard = i; replica = j; outcome = Error reason } :: !recoveries;
              { rep = j; state = Dead reason; hints = None; diverged = false }))
  in
  let t =
    make_t config ~k ~r ~slots ~last_size:(Array.make k 0) ~root:(Some root)
      ~baseline:(load_baseline ~root ~k)
  in
  (* Post-pass per shard: absorb stale hint pairs (a replica that was
     down — or mid-drain — when the whole group died), reattach hint
     logs for replicas still dead, and settle element counts. *)
  for i = 0 to k - 1 do
    if r > 1 then
      Array.iter
        (fun rep ->
          if Hint_log.exists ~dir:(shard_home t i) ~peer:rep.rep then begin
            match rep.state with
            | Live e ->
              (* Recovered but never finished its drain: re-run it
                 (idempotent by the seq arithmetic) before the replica
                 serves reads.  On failure the admit path repairs or, as
                 a last resort, keeps it out with a reason. *)
              rep.state <- Dead "absorbing stale hints";
              (match admit_replica_locked t i rep e with Ok _ | Error _ -> ())
            | Dead _ ->
              rep.hints <-
                Hint_log.reopen ~dir:(shard_home t i) ~peer:rep.rep
                  ~sync:config.Hsq.Config.wal_sync
          end)
        t.slots.(i);
    (* Element count: live read replica, else max estimate over the
       replica stores (overcount-safe for bound widening). *)
    (match read_replica t i with
    | Some (_, e, _) -> t.last_size.(i) <- E.total_size e
    | None ->
      let est = ref 0 in
      for j = 0 to r - 1 do
        est := max !est (estimate_elements (store_dir ~root ~shards:k ~replicas:r ~shard:i ~replica:j))
      done;
      t.last_size.(i) <- !est)
  done;
  settle_steps t;
  (t, List.rev !recoveries)

(* --- scrub ---------------------------------------------------------------- *)

let scrub ?repair t =
  List.map (fun (i, e) -> (i, Hsq.Persist.scrub ?repair e)) (engines t)

let scrub_all ?repair t =
  List.map (fun (i, j, e) -> ((i, j), Hsq.Persist.scrub ?repair e)) (all_live t)

(* --- lifecycle ----------------------------------------------------------- *)

let checkpoint_now t = List.iter (fun (_, _, e) -> try E.checkpoint_now e with _ -> ()) (all_live t)

(* Close or crash ([release] each engine and hint log) exactly once. *)
let shut t ~release ~release_hints =
  if not t.closed then begin
    t.closed <- true;
    Hsq.Bisection.shutdown_pool t.query_pool;
    List.iter (fun (_, _, e) -> release e) (all_live t);
    Array.iter
      (Array.iter (fun rep ->
           Option.iter (fun hl -> try release_hints hl with _ -> ()) rep.hints;
           rep.hints <- None))
      t.slots
  end

let close t =
  shut t ~release_hints:Hint_log.close ~release:(fun e ->
      (try E.checkpoint_now e with _ -> ());
      try E.close e with _ -> ())

let crash t = shut t ~release_hints:Hint_log.crash ~release:(fun e -> try E.crash e with _ -> ())

let is_closed t = t.closed

(* --- metrics -------------------------------------------------------------- *)

(* Prometheus has no registry-level labels, so the group exporter
   injects shard="<k>" (and replica="<j>" when replicated) into each
   per-shard line: after the opening brace when the metric already
   carries labels (histogram buckets), as a fresh label set otherwise.
   Comment lines pass through. *)
let label_prometheus_line ~label line =
  if line = "" || line.[0] = '#' then line
  else
    match String.index_opt line ' ' with
    | None -> line
    | Some sp -> (
      let name = String.sub line 0 sp in
      let rest = String.sub line sp (String.length line - sp) in
      match String.index_opt name '{' with
      | Some b ->
        String.sub name 0 (b + 1) ^ label ^ "," ^ String.sub name (b + 1) (String.length name - b - 1)
        ^ rest
      | None -> name ^ "{" ^ label ^ "}" ^ rest)

(* The unlabelled registries: [extra] and the group's own. *)
let group_registries ?extra t = Option.to_list extra @ [ t.metrics ]

let labelled_prometheus ?extra t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Metrics.to_prometheus_merged (group_registries ?extra t));
  List.iter
    (fun (i, j, e) ->
      let label =
        if t.r = 1 then Printf.sprintf "shard=\"%d\"" i
        else Printf.sprintf "shard=\"%d\",replica=\"%d\"" i j
      in
      String.split_on_char '\n' (Metrics.to_prometheus (E.metrics e))
      |> List.iter (fun line ->
             if line <> "" then begin
               Buffer.add_string buf (label_prometheus_line ~label line);
               Buffer.add_char buf '\n'
             end))
    (all_live t);
  Buffer.contents buf

let json_escape reason =
  let b = Buffer.create 32 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    reason;
  Buffer.add_char b '"';
  Buffer.contents b

let nested_json ?extra t =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '{';
  if extra <> None || Metrics.names t.metrics <> [] then begin
    Buffer.add_string buf "\"group\":";
    Buffer.add_string buf (Metrics.to_json_merged (group_registries ?extra t));
    Buffer.add_char buf ','
  end;
  Buffer.add_string buf "\"shards\":{";
  Array.iteri
    (fun i reps ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%d\":" i;
      if t.r = 1 then begin
        (* R = 1 keeps the pre-replication shape exactly. *)
        match reps.(0).state with
        | Live e -> Buffer.add_string buf (Metrics.to_json (E.metrics e))
        | Dead reason -> Printf.bprintf buf "{\"down\":true,\"reason\":%s}" (json_escape reason)
      end
      else begin
        let down = live_replicas_of reps = [] in
        Printf.bprintf buf "{\"down\":%b,\"replicas\":{" down;
        Array.iteri
          (fun j rep ->
            if j > 0 then Buffer.add_char buf ',';
            Printf.bprintf buf "\"%d\":" j;
            match rep.state with
            | Live e ->
              if rep.diverged then
                Printf.bprintf buf "{\"diverged\":true,\"metrics\":%s}"
                  (Metrics.to_json (E.metrics e))
              else Buffer.add_string buf (Metrics.to_json (E.metrics e))
            | Dead reason ->
              Printf.bprintf buf "{\"down\":true,\"reason\":%s%s}" (json_escape reason)
                (match rep.hints with
                | Some hl -> Printf.sprintf ",\"hints_pending\":%d" (Hint_log.record_count hl)
                | None -> ""))
          reps;
        Buffer.add_string buf "}}"
      end)
    t.slots;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* A K = 1, R = 1 group is one engine: its registry is exported
   unlabelled, merged flat with the group registries, so the dump reads
   like a lone engine's. *)
let flat t = t.k = 1 && t.r = 1

let flat_registries ?extra t =
  group_registries ?extra t @ List.map (fun (_, _, e) -> E.metrics e) (all_live t)

let metrics_prometheus ?extra t =
  if flat t then Metrics.to_prometheus_merged (flat_registries ?extra t)
  else labelled_prometheus ?extra t

let metrics_json ?extra t =
  if flat t then Metrics.to_json_merged (flat_registries ?extra t) else nested_json ?extra t
