(* Failure-containment health, collected once and rendered two ways.

   Extracted from the CLI so `hsq status --health` and the daemon's
   `health` wire verb cannot drift: both build the same {!t} through
   {!collect} (the daemon once per replica of its shard group) and
   derive their output (text lines, JSON fields) and their exit code /
   healthy flag from it. *)

module Metrics = Hsq_obs.Metrics

type scrub_info = {
  errors : int;
  quarantined : int;
  reinstated : int;
}

type recovery_info = {
  wal_replayed : int;
  steps_reingested : int;
}

type t = {
  breaker : string; (* closed / open / half_open *)
  breaker_transitions : int;
  quarantined_partitions : int;
  quarantined_elements : int;
  per_level : (int * int) list; (* (level, quarantined partitions), nonzero only *)
  last_scrub : scrub_info option; (* None: no scrub recorded in this process *)
  recovery : recovery_info option; (* None: engine was created, not recovered *)
}

let collect eng =
  let reg = Hsq.Engine.metrics eng in
  let hist = Hsq.Engine.hist eng in
  let counter name = Option.value ~default:0 (Metrics.counter_value reg name) in
  let gauge name = Option.value ~default:0.0 (Metrics.gauge_value reg name) in
  let per_level =
    List.filter_map
      (fun l ->
        match
          Metrics.gauge_value reg (Printf.sprintf "hsq_quarantined_partitions_level_%d" l)
        with
        | Some g when g > 0.0 -> Some (l, int_of_float g)
        | _ -> None)
      (List.init (Hsq_hist.Level_index.num_levels hist) Fun.id)
  in
  let last_scrub =
    match Metrics.gauge_value reg "hsq_scrub_last_time_s" with
    | None | Some 0.0 -> None
    | Some _ ->
      Some
        {
          errors = int_of_float (gauge "hsq_scrub_last_errors");
          quarantined = int_of_float (gauge "hsq_scrub_last_quarantined");
          reinstated = int_of_float (gauge "hsq_scrub_last_reinstated");
        }
  in
  (* open_or_recover publishes what the last open did as gauges; their
     absence means this engine was created fresh, not recovered. *)
  let recovery =
    match Metrics.gauge_value reg "hsq_recovery_wal_replayed" with
    | None -> None
    | Some replayed ->
      Some
        {
          wal_replayed = int_of_float replayed;
          steps_reingested = int_of_float (gauge "hsq_recovery_steps_reingested");
        }
  in
  {
    breaker =
      Hsq_storage.Breaker.state_to_string
        (Hsq_storage.Block_device.breaker_state (Hsq.Engine.device eng));
    breaker_transitions = counter "hsq_breaker_transitions_total";
    quarantined_partitions = Hsq_hist.Level_index.quarantined_count hist;
    quarantined_elements = Hsq_hist.Level_index.quarantined_elements hist;
    per_level;
    last_scrub;
    recovery;
  }

(* Healthy = fully un-degraded: the breaker admits probes and no
   partition is excluded from queries.  (A half-open breaker is still
   degraded: it is one failed trial away from open.) *)
let healthy h = h.breaker = "closed" && h.quarantined_partitions = 0

(* Shared exit-code convention: 0 healthy, 1 degraded — the same
   0-vs-1 split scrub and status use for damage. *)
let exit_code h = if healthy h then 0 else 1

let to_lines h =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "health: device breaker %s (%d transitions)" h.breaker h.breaker_transitions;
  if h.quarantined_partitions = 0 then add "health: no quarantined partitions"
  else begin
    add "health: %d quarantined partitions (%d elements unavailable to queries)"
      h.quarantined_partitions h.quarantined_elements;
    List.iter (fun (l, q) -> add "health:   level %d: %d quarantined" l q) h.per_level
  end;
  (match h.last_scrub with
  | None -> add "health: no scrub recorded in this process"
  | Some s ->
    add "health: last scrub: %d errors, %d quarantined, %d reinstated" s.errors s.quarantined
      s.reinstated);
  (match h.recovery with
  | None -> ()
  | Some r ->
    add "health: recovery: %d WAL records replayed, %d steps re-archived" r.wal_replayed
      r.steps_reingested);
  List.rev !lines

(* One engine's health as JSON fields, rendered per replica by the
   group rollup below. *)
let to_fields h =
  [
    ("healthy", Json.Bool (healthy h));
    ("breaker", Json.Str h.breaker);
    ("breaker_transitions", Json.int h.breaker_transitions);
    ("quarantined_partitions", Json.int h.quarantined_partitions);
    ("quarantined_elements", Json.int h.quarantined_elements);
    ( "quarantined_per_level",
      Json.List (List.map (fun (l, q) -> Json.List [ Json.int l; Json.int q ]) h.per_level) );
    ( "last_scrub",
      match h.last_scrub with
      | None -> Json.Null
      | Some s ->
        Json.Obj
          [
            ("errors", Json.int s.errors);
            ("quarantined", Json.int s.quarantined);
            ("reinstated", Json.int s.reinstated);
          ] );
    ( "recovery",
      match h.recovery with
      | None -> Json.Null
      | Some r ->
        Json.Obj
          [
            ("wal_replayed", Json.int r.wal_replayed);
            ("steps_reingested", Json.int r.steps_reingested);
          ] );
  ]

(* --- group rollup -------------------------------------------------------
   Replica-aware rollup over a Shard_group with a two-tier verdict:

   - FULL PRECISION (exit 0): every shard serves reads through a live,
     healthy, non-diverged replica — answers carry the full ±ε·m
     guarantees even if sibling replicas are down, draining hints, or
     flagged diverged.  Those conditions surface as WARNINGS.
   - ANSWERS DEGRADED (exit 1): some shard cannot produce an
     undegraded answer — its whole replica set is down, its serving
     replica is quarantined / breaker-open, or it can only serve
     through a diverged replica.

   With R = 1 this collapses to the pre-replication contract exactly:
   any shard problem degrades answers, so exit 0 ⇔ the old
   "every shard up and individually healthy". *)

module G = Hsq_shard.Shard_group

type replica_health = {
  replica : int;
  state : [ `Up of t | `Down of string ];
  diverged : bool;
  hints_pending : int option; (* Some n while a dead replica has a drainable hint log *)
}

type shard_health = {
  serving : (int * t) option; (* the read replica and its health; None = shard dark *)
  elements : int; (* live count while serving, frozen when dark *)
  reason : string option; (* why the shard is dark, when it is *)
  replicas : replica_health list; (* ascending; singleton when R = 1 *)
}

type group = (int * shard_health) list

let collect_group g : group =
  let r = G.replica_count g in
  let diverged = G.diverged_replicas g in
  List.init (G.shard_count g) (fun i ->
      let replicas =
        List.init r (fun j ->
            match G.replica_engine g ~shard:i ~replica:j with
            | Some e ->
              {
                replica = j;
                state = `Up (collect e);
                diverged = List.mem (i, j) diverged;
                hints_pending = None;
              }
            | None ->
              {
                replica = j;
                state =
                  `Down
                    (Option.value ~default:"down"
                       (G.replica_down_reason g ~shard:i ~replica:j));
                diverged = false;
                hints_pending = G.hints_pending g ~shard:i ~replica:j;
              })
      in
      let serving =
        match G.engine g i with
        | None -> None
        | Some e ->
          let j =
            List.find_opt
              (fun j ->
                match G.replica_engine g ~shard:i ~replica:j with
                | Some e' -> e' == e
                | None -> false)
              (List.init r Fun.id)
          in
          Some (Option.value ~default:0 j, collect e)
      in
      ( i,
        {
          serving;
          elements = G.shard_elements g i;
          reason = (match serving with Some _ -> None | None -> G.down_reason g i);
          replicas;
        } ))

let replica_is_diverged (sh : shard_health) j =
  List.exists (fun rh -> rh.replica = j && rh.diverged) sh.replicas

(* Full precision: every shard's answers keep the complete ±ε·m
   contract — it serves through a live, healthy, non-diverged
   replica. *)
let shard_full_precision (sh : shard_health) =
  match sh.serving with
  | None -> false
  | Some (j, h) -> healthy h && not (replica_is_diverged sh j)

let group_full_precision (gh : group) =
  List.for_all (fun (_, sh) -> shard_full_precision sh) gh

(* Warning-free: additionally, every replica of every shard is live,
   healthy, non-diverged, with no hints waiting to drain. *)
let group_healthy (gh : group) =
  List.for_all
    (fun (_, sh) ->
      List.for_all
        (fun rh ->
          match rh.state with
          | `Up h -> healthy h && not rh.diverged
          | `Down _ -> false)
        sh.replicas)
    gh

(* Conditions that do not degrade answers but deserve an operator's
   eye: the degraded-but-full-precision tier. *)
let group_warnings (gh : group) =
  List.concat_map
    (fun (i, sh) ->
      if not (shard_full_precision sh) then []
      else
        List.concat_map
          (fun rh ->
            match rh.state with
            | `Down reason ->
              [
                Printf.sprintf "shard %d replica %d down (sibling serving%s): %s" i rh.replica
                  (match rh.hints_pending with
                  | Some n -> Printf.sprintf ", %d hints pending" n
                  | None -> ", repair on rejoin")
                  reason;
              ]
            | `Up h ->
              (if rh.diverged then
                 [ Printf.sprintf "shard %d replica %d diverged (not serving)" i rh.replica ]
               else [])
              @
              if not (healthy h) && Some rh.replica <> Option.map fst sh.serving then
                [ Printf.sprintf "shard %d replica %d degraded (not serving)" i rh.replica ]
              else [])
          sh.replicas)
    gh

(* Exit-code contract: 0 = answers keep full-precision guarantees
   (warnings possible), 1 = answers degraded.  With R = 1 this is the
   old "0 iff every shard up and healthy". *)
let group_exit_code gh = if group_full_precision gh then 0 else 1

let replica_fields rh =
  Json.Obj
    (("replica", Json.int rh.replica)
    ::
    (match rh.state with
    | `Up h ->
      (("up", Json.Bool true) :: ("diverged", Json.Bool rh.diverged) :: to_fields h)
    | `Down reason ->
      [
        ("up", Json.Bool false);
        ("reason", Json.Str reason);
        ( "hints_pending",
          match rh.hints_pending with Some n -> Json.int n | None -> Json.Null );
      ]))

let group_to_fields (gh : group) =
  [
    ("healthy", Json.Bool (group_healthy gh));
    ("full_precision", Json.Bool (group_full_precision gh));
    ("warnings", Json.List (List.map (fun w -> Json.Str w) (group_warnings gh)));
    ("shards", Json.int (List.length gh));
    ( "shards_down",
      Json.List
        (List.filter_map
           (fun (i, sh) -> if sh.serving = None then Some (Json.int i) else None)
           gh) );
    ( "replicas_down",
      Json.List
        (List.concat_map
           (fun (i, sh) ->
             List.filter_map
               (fun rh ->
                 match rh.state with
                 | `Down _ -> Some (Json.List [ Json.int i; Json.int rh.replica ])
                 | `Up _ -> None)
               sh.replicas)
           gh) );
    ( "per_shard",
      Json.List
        (List.map
           (fun (i, sh) ->
             Json.Obj
               (("shard", Json.int i)
               ::
               (match sh.serving with
               | Some (j, h) ->
                 ("up", Json.Bool true)
                 :: ("serving_replica", Json.int j)
                 :: ("replicas", Json.List (List.map replica_fields sh.replicas))
                 :: to_fields h
               | None ->
                 [
                   ("up", Json.Bool false);
                   ("reason", Json.Str (Option.value ~default:"down" sh.reason));
                   ("elements", Json.int sh.elements);
                   ("replicas", Json.List (List.map replica_fields sh.replicas));
                 ])))
           gh) );
  ]
