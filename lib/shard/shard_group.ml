(* A sharded, replicated warehouse: K logical shards × R replicas each,
   one fused query surface.

   Ingest hash-partitions the stream (splitmix-style value hash mod K);
   within a shard every op is applied synchronously to every LIVE
   replica — each a complete, unmodified single-submitter engine with
   its own device, WAL, breaker, quarantine state and
   metrics registry.  An observe is acknowledged iff at least one live
   replica accepted it; a replica that fails its append is taken down
   (and hinted to) rather than failing the ack.

   Queries are the engine's own view (Engine.quick_over /
   accurate_over, DESIGN.md §14) over ONE live replica per shard; the
   group only chooses the replicas, selects a step range's partitions,
   and FAILS OVER to a sibling when a replica's breaker opens or its
   probes exhaust their retries — answers keep the full ±ε·m precision
   through any loss that leaves at least one replica per shard.  Only
   losing a shard's whole replica set degrades to `Shard_down with the
   honest element-count widening.

   Hinted handoff: while a replica is down its shard-mates buffer every
   acked op into a per-peer hint WAL (Hint_log); rejoin drains the log
   into the recovered replica — exactly-once via main-WAL sequence
   arithmetic — before it re-enters the read set.

   Anti-entropy: replicas applying identical op sequences converge
   bit-for-bit (deterministic merge cascade and GK sketch),
   so a scrub-triggered pass compares per-replica state digests
   (Anti_entropy), flags mismatches as `Replica_diverged, and repairs
   the minority from the healthiest sibling by file copy.

   R = 1 is the classic layout, bit-compatible on disk and in metrics
   with stores written before replication existed.

   Concurrency: the group is single-submitter.  With R > 1 the write
   paths (observe, end_time_step, replica up/down transitions)
   additionally serialize on one mutex; R = 1 takes no locks at all. *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device
module Metrics = Hsq_obs.Metrics
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

(* The root records K and R in [root/layout] when it creates a store
   that is not flat, so every reopen finds every shard.  A flat store
   (K = 1, R = 1) writes no file and stays byte-identical to a lone
   engine's; so does a root an older build created, whose layout is
   inferred from its shard-<i> / replica-<j> directories. *)
let layout_path root = Filename.concat root "layout"

let render_layout (k, r) = Hsq.Meta.seal (Printf.sprintf "hsq-layout 1\nshards %d\nreplicas %d\n" k r)

let recorded_layout root =
  try
    match Hsq.Meta.read_sealed (layout_path root) with
    | [ "hsq-layout 1"; ks; rs ] ->
      Scanf.sscanf (ks ^ " " ^ rs) "shards %u replicas %u%!" (fun k r ->
          if k >= 1 && r >= 1 then Some (k, r) else None)
    | _ -> None
  with _ -> None

(* One past the largest i of a <prefix><i> subdirectory of [dir]. *)
let span dir prefix =
  let p = String.length prefix in
  let index name =
    if not (String.starts_with ~prefix name) then -1
    else
      match int_of_string_opt (String.sub name p (String.length name - p)) with
      | Some i when prefix ^ string_of_int i = name && Sys.is_directory (Filename.concat dir name) -> i
      | _ -> -1
  in
  match Sys.readdir dir with
  | names -> 1 + Array.fold_left (fun acc name -> max acc (index name)) (-1) names
  | exception Sys_error _ -> 0

let inferred_layout root =
  match span root "shard-" with
  | 0 -> (
    match span root "replica-" with
    | 0 -> if E.store_exists ~dir:root then Some (1, 1) else None
    | r -> Some (1, r))
  | k ->
    let replicas i = span (shard_dir ~root i) "replica-" in
    Some (k, List.fold_left (fun acc i -> max acc (replicas i)) 1 (List.init k Fun.id))

let layout ~root = match recorded_layout root with Some l -> Some l | None -> inferred_layout root

(* --- construction ------------------------------------------------------- *)

let make_t config ~k ~r ~slots ~last_size ~root ~baseline =
  let t =
    {
      config;
      k;
      r;
      slots;
      last_size;
      root;
      lock = Mutex.create ();
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

(* An engine built elsewhere (a file device, a saved warehouse) as a
   volatile K = 1, R = 1 group: no root, so no hints and no rejoin. *)
let of_engine e =
  let config = { (E.config e) with Hsq.Config.shards = 1; replicas = 1 } in
  let slots = [| [| { rep = 0; state = Live e; hints = None; diverged = false } |] |] in
  make_t config ~k:1 ~r:1 ~slots ~last_size:[| E.total_size e |] ~root:None ~baseline:[| 0 |]

(* Best-effort element count of a store we failed to open: archived
   elements from the sidecar's partition table plus Observe records
   still in the WAL (the log rotates at each archived step, so the two
   never overlap).  Unreadable pieces count 0 — with an intact WAL
   under sync=Always this equals the acknowledged count; damage can
   only lower the estimate, which the chaos harness tolerates by
   checking the fused bound against the oracle, not this estimate. *)
let estimate_elements dir =
  let _, meta_path, wal_path = E.store_paths ~dir in
  let hist =
    try
      let _, descriptors = Hsq.Meta.read meta_path in
      List.fold_left (fun acc (d : Li.partition_descriptor) -> acc + d.length) 0 descriptors
    with _ -> 0
  in
  let wal =
    try
      let n, _, _ =
        Hsq_storage.Wal.fold_path ~path:wal_path
          (fun n _ r -> match r with Hsq_storage.Wal.Observe _ -> n + 1 | End_step _ -> n)
          0
      in
      n
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
   [dropped] engines are not candidates. *)
let read_replica ?(dropped = []) t i =
  let live = List.filter (fun (_, e) -> not (List.memq e dropped)) (live_replicas_of t.slots.(i)) in
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

let set_tracer t tr = List.iter (fun (_, _, e) -> E.set_tracer e tr) (all_live t)

let shard_count t = t.k
let replica_count t = t.r

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
  Hsq.Meta.seal
    (Printf.sprintf "hsq-steps 1\n%s\n" (String.concat " " (List.map string_of_int (Array.to_list b))))

(* A store written before baselines existed has no file: nothing was
   ever rebased.  An unreadable file makes every baseline unknown, so
   the opening [settle_steps] rebases. *)
let load_baseline ~root ~k =
  let path = baseline_path root in
  let parse () =
    match Hsq.Meta.read_sealed path with
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

(* Take one replica down (caller holds the lock when r > 1).  The
   engine is crash-released — a close would flush through the device
   that just died; under WAL [Always] nothing acknowledged is pending.
   If the replica is durable, a hint log is started so shard-mates can
   buffer subsequent acked ops for it: the base seq is the replica's
   WAL next_seq, its op cursor (each op appends exactly one record, so
   on rejoin [recovered next_seq - base_seq] counts the hints already
   applied — exactly-once across crashes mid-drain). *)
let replica_down_locked t i rep ~reason =
  match rep.state with
  | Dead _ -> ()
  | Live e ->
    (* Freeze the shard's element count if this was its last live
       replica (refresh_sizes skips shards with nothing live). *)
    if List.length (live_replicas_of t.slots.(i)) = 1 then
      t.last_size.(i) <- (try E.total_size e with _ -> t.last_size.(i));
    let base =
      if t.r > 1 && t.root <> None then
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
    | None -> ())

let mark_replica_down t ~shard ~replica ~reason =
  let rep = slot "mark_replica_down" t ~shard ~replica in
  with_lock t (fun () -> replica_down_locked t shard rep ~reason)

let mark_down t i ~reason =
  if i < 0 || i >= t.k then invalid_arg "Shard_group.mark_down: shard index out of range";
  with_lock t (fun () ->
      Array.iter (fun rep -> replica_down_locked t i rep ~reason) t.slots.(i))

(* --- ingest ------------------------------------------------------------- *)

(* Append acked ops to the hint log of every dead replica: [hint rep hl]
   appends what [rep]'s own log lacks.  A hint append that itself fails
   breaks the pair ([mark_broken]) so rejoin falls back to repair — the
   ack stands either way. *)
let hint_dead reps hint =
  Array.iter
    (fun rep ->
      match (rep.state, rep.hints) with
      | Dead _, Some hl -> (
        try hint rep hl
        with _ ->
          Hint_log.mark_broken hl;
          rep.hints <- None)
      | _ -> ())
    reps

(* Replicated fan-out of shard [i]'s sub-batch [vs] (r > 1, caller
   holds the lock): apply it to every live replica first.  Each accepts
   a prefix — all of [vs], or the values before its WAL fault — and one
   that fails is taken down (and from now on hinted to) instead of
   failing the ack; the shard acknowledges the longest prefix some live
   replica accepted.  Only then are hints appended for the dead
   replicas, each from where its own log stops: a hint must never cover
   an op that was not acked, nor one the replica's log already holds
   (its drain would replay it twice).  Returns the acked prefix length
   and, when it is short, the failure. *)
let fanout_batch_locked t i vs =
  let reps = t.slots.(i) in
  let m = Array.length vs in
  let accepted = Array.make t.r 0 in
  let acked = ref 0 in
  let last_err = ref "every replica is down" in
  Array.iter
    (fun rep ->
      match rep.state with
      | Dead reason -> if !acked = 0 then last_err := reason
      | Live e -> (
        let accept n =
          accepted.(rep.rep) <- n;
          acked := max !acked n
        in
        let down n exn =
          let msg =
            match exn with
            | BD.Device_error msg | Sys_error msg -> msg
            | _ -> Printexc.to_string exn
          in
          accept n;
          last_err := msg;
          replica_down_locked t i rep ~reason:msg
        in
        match E.observe_batch e vs with
        | () -> accept m
        | exception Hsq_storage.Wal.Partial (j, exn) -> down j exn
        (* Raised after the whole run was logged: the log holds it all. *)
        | exception ((BD.Device_error _ | Sys_error _) as exn) -> down m exn))
    reps;
  let a = !acked in
  if a > 0 then
    hint_dead reps (fun rep hl ->
        let from = accepted.(rep.rep) in
        if from < a then Hint_log.observe_batch hl (Array.sub vs from (a - from)));
  (a, if a < m then Some (Shard_unavailable (i, !last_err)) else None)

(* Apply sub-batch [vs] to shard [i] (caller holds the lock): how much
   of it is acknowledged — a prefix — and, when that is short, why. *)
let observe_shard t i vs =
  if t.r > 1 then fanout_batch_locked t i vs
  else
    match t.slots.(i).(0).state with
    | Dead reason -> (0, Some (Shard_unavailable (i, reason)))
    | Live e -> (
      match E.observe_batch e vs with
      | () -> (Array.length vs, None)
      | exception Hsq_storage.Wal.Partial (j, exn) -> (j, Some exn))

(* One request's values, routed into per-shard sub-batches (request
   order kept within each), each applied with one WAL append call per
   replica.  The acknowledged part is the request's longest prefix that
   is durable: a shard stopping at request position p caps it there,
   and shards applied later skip what lies past the cap.  Values past
   it on shards applied earlier stay applied, unacked. *)
let observe_batch t vs =
  let n = Array.length vs in
  let dest = Array.map (route t) vs in
  let sizes = Array.make t.k 0 in
  Array.iter (fun i -> sizes.(i) <- sizes.(i) + 1) dest;
  let subs = Array.map (fun c -> Array.make c 0) sizes in
  let pos = Array.map (fun c -> Array.make c 0) sizes in
  let fill = Array.make t.k 0 in
  Array.iteri
    (fun p i ->
      subs.(i).(fill.(i)) <- vs.(p);
      pos.(i).(fill.(i)) <- p;
      fill.(i) <- fill.(i) + 1)
    dest;
  let limit = ref n and failure = ref None in
  with_lock t (fun () ->
      for i = 0 to t.k - 1 do
        let within = ref 0 in
        while !within < sizes.(i) && pos.(i).(!within) < !limit do
          incr within
        done;
        if !within > 0 then begin
          let sub = if !within = sizes.(i) then subs.(i) else Array.sub subs.(i) 0 !within in
          (* Set, not bumped: a shard whose last replica died in
             [observe_shard] was already frozen at that replica's
             size. *)
          let before = t.last_size.(i) in
          let a, f = observe_shard t i sub in
          t.last_size.(i) <- before + a;
          match f with
          | Some exn when pos.(i).(a) < !limit ->
            limit := pos.(i).(a);
            failure := Some exn
          | _ -> ()
        end
      done);
  Option.iter (fun exn -> raise (Hsq_storage.Wal.Partial (!limit, exn))) !failure

let observe t v = try observe_batch t [| v |] with Hsq_storage.Wal.Partial (_, exn) -> raise exn

(* A replica whose open step is empty is skipped: the engine's own cut
   is the test ([Invalid_argument] on an empty batch).  A step that
   reached some shards but not all rebases the step alignment. *)
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
              hint_dead reps (fun _ hl -> Hint_log.end_step hl ~step ~count:0)
            | None, Some msg -> out := (i, Error msg) :: !out
            | None, None -> ()
          end)
        t.slots;
      let cut = List.length (List.filter (fun (_, r) -> Result.is_ok r) !out) in
      if cut > 0 && cut < t.k then rebase_steps t);
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

(* The one partition selector: archived group steps [first, last],
   plus the live streams when [with_streams].  Group step g is step
   [baseline.(i) + g] on shard i (see "step alignment"), so at K = 1
   the numbers are the engine's own, and only the d steps every read
   replica has archived since the last uneven cut are numbered at all:
   a range reaching back before that cut is refused.  A window of [w]
   steps (Section 2.4) is the range [d - w + 1, d] with the streams;
   a historical range leaves them out.  The streams only continue the
   newest step, so a range that keeps them must end there. *)
type range = { first : int; last : int; with_streams : bool }

(* A range the read replicas cannot answer together. *)
exception Misaligned

let window_range ~aligned w = { first = aligned - w + 1; last = aligned; with_streams = true }

(* Shard [i]'s partitions tiling group steps [r], newest first. *)
let tiling t i e r =
  let b = t.baseline.(i) in
  Li.partitions_for_range (E.hist e) ~first:(b + r.first) ~last:(b + r.last)

(* The one fit check: whether the read replicas [es] can answer [r]
   together — it lies within the d aligned steps (ending at d if it
   keeps the streams) and every replica tiles it with partitions. *)
let window_fits t es r =
  match aligned_steps t es with
  | Some d ->
    r.first >= 1 && r.last <= d
    && ((not r.with_streams) || r.last = d)
    && List.for_all (fun (i, e) -> tiling t i e r <> None) es
  | None -> false

(* The replica's partitions the selector keeps, quarantined ones
   included. *)
let selected t ~range i e =
  match range with
  | None -> Li.partitions (E.hist e)
  | Some r -> ( match tiling t i e r with Some ps -> ps | None -> raise Misaligned)

(* The replicas one query reads: ONE read replica per shard, [dropped]
   engines disqualified, as (shard, replica, engine); the shards left
   with no eligible replica at all (permanently down, or their whole
   replica set dropped at runtime), whose elements widen every answer;
   and the read replicas serving while flagged by anti-entropy (chosen
   only when no clean sibling is live), surfaced as `Replica_diverged.
   A shard that merely lost its first-choice replica fails over to a
   sibling and widens nothing: the sibling holds the same logical data.
   The one place that decides whether [range] is answerable: raises
   [Misaligned] when it is not. *)
type choice = {
  alive : (int * int * E.t) list;
  excluded : int list;
  served_diverged : (int * int) list;
}

let choose ?range t ~dropped =
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
  (match range with
  | Some r when not (window_fits t (List.map (fun (i, _, e) -> (i, e)) alive) r) -> raise Misaligned
  | _ -> ());
  { alive; excluded = !excluded; served_diverged = !served_diverged }

(* The engine view of a choice: each read replica whole, or the
   partitions tiling [range] with the streams it keeps. *)
let view_of ?range t c =
  let source (i, _, e) =
    match range with
    | None -> E.source e
    | Some r -> { E.engine = e; parts = Some (selected t ~range i e); stream = r.with_streams }
  in
  {
    E.sources = List.map source c.alive;
    widen = List.fold_left (fun acc i -> acc + t.last_size.(i)) 0 c.excluded;
  }

let down_degradation c : degradation =
  let shard_deg : degradation = match c.excluded with [] -> `None | ks -> `Shard_down ks in
  let diverged_deg : degradation =
    match c.served_diverged with [] -> `None | ps -> `Replica_diverged ps
  in
  worst_degradation shard_deg diverged_deg

(* --- fused quick -------------------------------------------------------- *)

let ensure_open t = if t.closed then invalid_arg "Shard_group: closed"

let fused_quick ?range t ~rank =
  ensure_open t;
  let c = choose ?range t ~dropped:[] in
  let v, bound, q = E.quick_over (view_of ?range t c) ~rank in
  (v, bound, worst_degradation (down_degradation c) (if q > 0 then `Quarantined q else `None))

let quick_with_bound t ~rank = fused_quick t ~rank

let quick t ~rank =
  let v, _, _ = quick_with_bound t ~rank in
  v

(* --- fused accurate ------------------------------------------------------ *)

(* Algorithms 6-8 across all shards: the engine's accurate query over
   one read replica per shard, failing over when it condemns one — the
   (shard, replica) is dropped and the query re-fetches its view, the
   shard read through a sibling.  Restarting, rather than patching the
   probe set, is required for correctness: earlier narrowing used the
   dropped replica's ranks.  Failed-over shards are NOT excluded: their
   sibling replicas carry the same logical data, so the full ±ε·m
   contract survives any loss that leaves one replica per shard. *)
let fused_accurate ?range ?tolerance_factor ?deadline_ms t ~rank =
  ensure_open t;
  let live = List.map (fun (_, _, e) -> e) (all_live t) in
  let dropped = ref [] in
  let last = ref { alive = []; excluded = []; served_diverged = [] } in
  let choose () =
    last := choose ?range t ~dropped:!dropped;
    view_of ?range t !last
  in
  let left () = List.exists (fun e -> not (List.memq e !dropped)) live in
  let condemn e =
    dropped := e :: !dropped;
    left ()
  in
  let v, r =
    E.accurate_over ?tolerance_factor ?deadline_ms ~config:t.config
      ~failover:{ E.reach = live; condemn } choose ~rank
  in
  let degradation = worst_degradation (down_degradation !last) (r.E.degradation :> degradation) in
  (* Every replica of every shard dropped: the answer came from the last
     summary in hand, which still covers the dropped replicas' memory
     state. *)
  let degradation =
    if !dropped <> [] && not (left ()) then
      worst_degradation (`Shard_down (List.init t.k Fun.id)) degradation
    else degradation
  in
  let { E.io; iterations; rank_error_bound; _ } = r in
  (v, { io; iterations; degradation; rank_error_bound })

let accurate ?tolerance_factor ?deadline_ms t ~rank =
  fused_accurate ?tolerance_factor ?deadline_ms t ~rank

let quantile t phi =
  let n = total_size t in
  if n = 0 then invalid_arg "Shard_group.quantile: no data";
  accurate t ~rank:(Hsq.Bisection.rank_of_phi ~who:"Shard_group.quantile" ~n phi)

(* --- windows and ranges ---------------------------------------------------- *)

(* Window sizes the first read replica's partition starts allow, kept
   if every read replica can answer them. *)
let window_sizes t =
  let es = engines t in
  match (es, aligned_steps t es) with
  | (_, e) :: _, Some aligned ->
    List.filter
      (fun w -> window_fits t es (window_range ~aligned w))
      (List.rev_map
         (fun (first, _) -> E.time_steps e - first + 1)
         (Li.partition_boundaries (E.hist e)))
  | _ -> []

(* The partition extents, in group steps, every read replica shares. *)
let range_boundaries t =
  let es = engines t in
  let extents (i, e) =
    let b = t.baseline.(i) in
    List.filter_map
      (fun (first, last) -> if first > b then Some (first - b, last - b) else None)
      (Li.partition_boundaries (E.hist e))
  in
  match List.map extents es with
  | bs :: rest when aligned_steps t es <> None ->
    List.filter (fun x -> List.for_all (List.mem x) rest) bs
  | _ -> []

(* The window of [w] steps as a range over the current read replicas. *)
let window_of t w =
  match aligned_steps t (engines t) with
  | Some aligned -> window_range ~aligned w
  | None -> raise Misaligned

let selecting f refusal = match f () with v -> Ok v | exception Misaligned -> Error (refusal ())
let windowed t f = selecting f (fun () -> E.Window_not_aligned (window_sizes t))
let ranged t f = selecting f (fun () -> E.Range_not_aligned (range_boundaries t))

let selection_total t r =
  List.fold_left
    (fun acc (i, _, e) ->
      List.fold_left
        (fun acc p -> acc + Hsq_hist.Partition.size p)
        (if r.with_streams then acc + E.stream_size e else acc)
        (selected t ~range:(Some r) i e))
    0 (choose ~range:r t ~dropped:[]).alive

let window_total t ~window = windowed t (fun () -> selection_total t (window_of t window))
let quick_window t ~window ~rank =
  windowed t (fun () -> fused_quick ~range:(window_of t window) t ~rank)

let accurate_window ?tolerance_factor ?deadline_ms t ~window ~rank =
  windowed t (fun () ->
      fused_accurate ~range:(window_of t window) ?tolerance_factor ?deadline_ms t ~rank)

let range_total t ~first ~last =
  ranged t (fun () -> selection_total t { first; last; with_streams = false })

let accurate_range ?tolerance_factor ?deadline_ms t ~first ~last ~rank =
  let range = { first; last; with_streams = false } in
  ranged t (fun () -> fused_accurate ~range ?tolerance_factor ?deadline_ms t ~rank)

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

(* Converge replica [rep] of shard [i] onto live sibling [src]: sync
   the source's WAL, so its files are a complete rendering of its state,
   crash-release the target, copy the store byte-for-byte, and recover
   the copy — the replay repeats every hand-off, so the copy's sketch is
   the source's.  Caller holds the lock. *)
let repair_replica_locked t i rep ~src:(src_j, src_e) =
  (try E.sync src_e with _ -> ());
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
    Ok e
  | exception exn ->
    let reason = "repair failed: " ^ Printexc.to_string exn in
    rep.state <- Dead reason;
    Error reason

(* Compare per-replica state digests within each shard; flag the
   minority as diverged ([`Replica_diverged] in reports that must serve
   them, a warning in health) and, with [repair], converge them onto
   the healthiest sibling.  Replicas see identical op sequences, so
   their digests agree exactly (Anti_entropy); requires a durable
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
            let digests = List.map (fun (j, e) -> (j, Anti_entropy.digest e)) live in
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
  | Hsq_storage.Wal.End_step _ -> if E.stream_size e > 0 then ignore (E.end_time_step e)

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
  (* Ok: nothing to drain, or the hints applied.  Any Error: the
     replica's state is in doubt — repair from a sibling. *)
  let drain =
    match hl with
    | None -> if had_pair then Error "hint log unreadable" else Ok ()
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
          (* Hint #n is main seq [base_seq + n]: the first [skip] are
             already in the replica's own log. *)
          match Hint_log.fold hl (fun n r -> if n >= skip then apply_hint e r; n + 1) 0 with
          | _ -> Ok ()
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
      let dir = replica_store_dir t shard replica in
      let lost = not (E.store_exists ~dir) in
      if lost && live_replicas_of t.slots.(shard) = [] then Error "store missing"
      else
      with_lock t (fun () ->
          (* Flush and detach the in-memory hint handle so the on-disk
             pair is complete before the drain re-reads it. *)
          (match rep.hints with
          | Some hl ->
            Hint_log.close hl;
            rep.hints <- None
          | None -> ());
          (* A store that is lost, or that fails to open, comes back as a
             copy of its healthiest live sibling; the hint drain then
             skips every op the copy holds. *)
          let copy_sibling () =
            match healthiest (live_replicas_of t.slots.(shard)) with
            | Some (src_j, src_e) ->
              (try E.sync src_e with _ -> ());
              Anti_entropy.copy_store ~src:(replica_store_dir t shard src_j) ~dst:dir;
              true
            | None -> false
          in
          let recover () = E.open_or_recover (shard_config t.config ~wal_dir:(Some dir)) in
          match
            if lost then begin
              ignore (copy_sibling ());
              recover ()
            end
            else try recover () with exn -> if copy_sibling () then recover () else raise exn
          with
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
              match E.scrub ~repair:true e with
              | scrub ->
                t.last_size.(shard) <- E.total_size e;
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
  if Sys.file_exists root && not (Sys.is_directory root) then
    invalid_arg "Shard_group.open_or_recover: wal_dir is not a directory";
  let found = layout ~root in
  (match found with
  | Some (k', r') when (k', r') <> (k, r) ->
    invalid_arg
      (Printf.sprintf "Shard_group.open_or_recover: %s holds %d shards x %d replicas, not %d x %d"
         root k' r' k r)
  | _ -> ());
  (* Only a root holding no store is created; in a store that exists, a
     missing store directory is lost, and opens down. *)
  let fresh = found = None in
  if fresh then begin
    if not (Sys.file_exists root) then (
      try Sys.mkdir root 0o755
      with Sys_error msg -> invalid_arg ("Shard_group.open_or_recover: cannot create " ^ msg));
    for i = 0 to k - 1 do
      let home = if k = 1 then root else shard_dir ~root i in
      if r > 1 && not (Sys.file_exists home) then Sys.mkdir home 0o755
    done
  end;
  (* Written before any shard store, and by the first open of a root an
     older build created. *)
  if (k, r) <> (1, 1) && recorded_layout root = None then
    Hsq.Meta.write ~path:(layout_path root) (render_layout (k, r));
  let recoveries = ref [] in
  let slots =
    Array.init k (fun i ->
        Array.init r (fun j ->
            let dir = store_dir ~root ~shards:k ~replicas:r ~shard:i ~replica:j in
            let down reason =
              recoveries := { shard = i; replica = j; outcome = Error reason } :: !recoveries;
              { rep = j; state = Dead reason; hints = None; diverged = false }
            in
            if not (fresh || E.store_exists ~dir) then down "store missing"
            else
              match E.open_or_recover (shard_config config ~wal_dir:(Some dir)) with
              | e, report ->
                recoveries := { shard = i; replica = j; outcome = Ok report } :: !recoveries;
                { rep = j; state = Live e; hints = None; diverged = false }
              | exception
                  (( BD.Device_error _ | Hsq.Meta.Corrupt_metadata _ | Sys_error _
                   | Invalid_argument _ ) as exn) ->
                down (Printexc.to_string exn)))
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

let scrub_all ?repair t =
  List.map (fun (i, j, e) -> ((i, j), E.scrub ?repair e)) (all_live t)

(* --- lifecycle ----------------------------------------------------------- *)

(* Close or crash ([release] each engine and hint log) exactly once. *)
let shut t ~release ~release_hints =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun (_, _, e) -> release e) (all_live t);
    Array.iter
      (Array.iter (fun rep ->
           Option.iter (fun hl -> try release_hints hl with _ -> ()) rep.hints;
           rep.hints <- None))
      t.slots
  end

let close t = shut t ~release_hints:Hint_log.close ~release:(fun e -> try E.close e with _ -> ())

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

let labelled_prometheus ?extra t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Metrics.to_prometheus_merged (Option.to_list extra));
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

let nested_json ?extra t =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '{';
  Option.iter
    (fun extra ->
      Buffer.add_string buf "\"group\":";
      Buffer.add_string buf (Metrics.to_json_merged [ extra ]);
      Buffer.add_char buf ',')
    extra;
  Buffer.add_string buf "\"shards\":{";
  Array.iteri
    (fun i reps ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\"%d\":" i;
      if t.r = 1 then begin
        (* R = 1 keeps the pre-replication shape exactly. *)
        match reps.(0).state with
        | Live e -> Buffer.add_string buf (Metrics.to_json (E.metrics e))
        | Dead reason ->
          Printf.bprintf buf "{\"down\":true,\"reason\":\"%s\"}" (Metrics.json_escape reason)
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
              Printf.bprintf buf "{\"down\":true,\"reason\":\"%s\"%s}" (Metrics.json_escape reason)
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
   unlabelled, merged flat with [extra], so the dump reads like a lone
   engine's. *)
let flat t = t.k = 1 && t.r = 1

let flat_registries ?extra t =
  Option.to_list extra @ List.map (fun (_, _, e) -> E.metrics e) (all_live t)

let metrics_prometheus ?extra t =
  if flat t then Metrics.to_prometheus_merged (flat_registries ?extra t)
  else labelled_prometheus ?extra t

let metrics_json ?extra t =
  if flat t then Metrics.to_json_merged (flat_registries ?extra t) else nested_json ?extra t
