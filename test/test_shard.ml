(* Unit tests for the sharded warehouse: routing, fused-summary
   windows, degradation algebra, exact bound widening for down
   shards, worst-wins composition under deadlines, and the recovery
   gauges surfaced through the health rollup. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module Us = Hsq.Union_summary
module Li = Hsq_hist.Level_index
module Metrics = Hsq_obs.Metrics

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let config ?(shards = 1) ?wal_dir () =
  Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 ~shards ?wal_dir
    (Hsq.Config.Epsilon 0.05)

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* --- routing ------------------------------------------------------------ *)

let test_route_deterministic () =
  let g = G.create (config ~shards:4 ()) in
  let hits = Array.make 4 0 in
  for v = 0 to 9_999 do
    let s = G.route g v in
    Alcotest.(check bool) "route in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "route is deterministic" s (G.route g v);
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 1_000 then Alcotest.failf "shard %d badly underloaded: %d/10000 values" i n)
    hits;
  G.close g

let test_route_matches_observe () =
  let g = G.create (config ~shards:3 ()) in
  for v = 0 to 500 do
    G.observe g (v * 7919)
  done;
  let by_engine = List.map (fun (i, e) -> (i, E.total_size e)) (G.engines g) in
  List.iter
    (fun (i, n) ->
      let expected = ref 0 in
      for v = 0 to 500 do
        if G.route g (v * 7919) = i then incr expected
      done;
      Alcotest.(check int) (Printf.sprintf "shard %d got its routed values" i) !expected n)
    by_engine;
  Alcotest.(check int) "nothing lost" 501 (G.total_size g);
  G.close g

(* --- fused summary ------------------------------------------------------ *)

(* Fused windows must bracket the true union rank: check every entry of
   a K=3 fusion against an exact oracle. *)
let test_fused_windows_bracket () =
  let g = G.create (config ~shards:3 ()) in
  let oracle = Hsq_workload.Oracle.create () in
  let rng = Hsq_util.Xoshiro.create 0xBEEF in
  for step = 1 to 4 do
    for _ = 1 to 600 do
      let v = Hsq_util.Xoshiro.int rng 50_000 in
      G.observe g v;
      Hsq_workload.Oracle.add oracle v
    done;
    if step < 4 then ignore (G.end_time_step g)
  done;
  let partitions =
    List.concat_map (fun (_, e) -> Li.active_partitions (E.hist e)) (G.engines g)
  in
  let streams = List.map (fun (_, e) -> E.stream_summary e) (G.engines g) in
  let us = Us.build ~agg:(Us.hist_aggregate ~partitions) ~streams in
  Alcotest.(check int) "fused n_total" (G.total_size g) (Us.n_total us);
  let values, lowers, uppers = Us.columns us in
  Array.iteri
    (fun i value ->
      let lower = lowers.(i) and upper = uppers.(i) in
      (* a value answers any rank in [|{x<v}|+1, |{x≤v}|]; the fused
         window must intersect that legitimate interval *)
      let hi_true = float_of_int (Hsq_workload.Oracle.rank_of oracle value) in
      let lo_true = float_of_int (Hsq_workload.Oracle.rank_of oracle (value - 1) + 1) in
      if lower > hi_true || upper < lo_true then
        Alcotest.failf "value %d: legitimate ranks [%.0f, %.0f] outside fused window [%.1f, %.1f]"
          value lo_true hi_true lower upper)
    values;
  G.close g

(* --- degradation algebra ------------------------------------------------ *)

let test_worst_degradation () =
  let check name expected a b =
    Alcotest.(check string)
      name
      (G.degradation_label expected)
      (G.degradation_label (G.worst_degradation a b));
    (* symmetry (up to payload merge) *)
    Alcotest.(check int)
      (name ^ " symmetric severity")
      (G.severity (G.worst_degradation a b))
      (G.severity (G.worst_degradation b a))
  in
  check "none vs quarantined" (`Quarantined 3) `None (`Quarantined 3);
  check "quarantined vs deadline" `Deadline (`Quarantined 3) `Deadline;
  check "deadline vs device_open" `Device_open `Deadline `Device_open;
  check "device_open vs shard_down" (`Shard_down [ 1 ]) `Device_open (`Shard_down [ 1 ]);
  check "shard_down vs deadline" (`Shard_down [ 2 ]) (`Shard_down [ 2 ]) `Deadline;
  (match G.worst_degradation (`Quarantined 2) (`Quarantined 7) with
  | `Quarantined 7 -> ()
  | d -> Alcotest.failf "quarantine merge: got %s" (G.degradation_label d));
  match G.worst_degradation (`Shard_down [ 3; 1 ]) (`Shard_down [ 1; 2 ]) with
  | `Shard_down [ 1; 2; 3 ] -> ()
  | `Shard_down ks ->
    Alcotest.failf "shard list union: got [%s]"
      (String.concat ";" (List.map string_of_int ks))
  | d -> Alcotest.failf "shard list union: got %s" (G.degradation_label d)

(* --- exact widening ----------------------------------------------------- *)

(* Two K=3 groups over the same value stream: A ingests everything and
   then loses shard [victim]; B ingests only the values routed to A's
   survivors.  The surviving state is identical, so the fused quick
   answers must agree exactly and A's bound must exceed B's by exactly
   the victim's element count — the down shard widens the bound by its
   elements, no more, no less. *)
let test_down_shard_widens_exactly () =
  let a = G.create (config ~shards:3 ()) in
  let b = G.create (config ~shards:3 ()) in
  let victim = 1 in
  let rng = Hsq_util.Xoshiro.create 0xACE in
  let victim_count = ref 0 in
  for step = 1 to 3 do
    for _ = 1 to 500 do
      let v = Hsq_util.Xoshiro.int rng 80_000 in
      G.observe a v;
      if G.route a v = victim then incr victim_count else G.observe b v
    done;
    if step < 3 then begin
      ignore (G.end_time_step a);
      ignore (G.end_time_step b)
    end
  done;
  G.mark_down a victim ~reason:"unit test";
  Alcotest.(check (list int)) "A reports the victim down" [ victim ] (G.shards_down a);
  Alcotest.(check int) "frozen element count" !victim_count (G.down_elements a);
  let n = G.total_size b in
  List.iter
    (fun rank ->
      let va, bound_a, deg_a = G.quick_with_bound a ~rank in
      let vb, bound_b, deg_b = G.quick_with_bound b ~rank in
      Alcotest.(check int) (Printf.sprintf "rank %d: same answer" rank) vb va;
      (match deg_a with
      | `Shard_down [ s ] when s = victim -> ()
      | d -> Alcotest.failf "rank %d: A degradation %s" rank (G.degradation_label d));
      (match deg_b with
      | `None -> ()
      | d -> Alcotest.failf "rank %d: B degradation %s" rank (G.degradation_label d));
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rank %d: bound widens by exactly the victim's %d elements" rank
           !victim_count)
        (bound_b +. float_of_int !victim_count)
        bound_a)
    [ 1; n / 4; n / 2; (3 * n) / 4; n ];
  G.close a;
  G.close b

(* --- worst-wins under a deadline ---------------------------------------- *)

let test_shard_down_beats_deadline () =
  let g = G.create (config ~shards:3 ()) in
  let oracle = Hsq_workload.Oracle.create () in
  let rng = Hsq_util.Xoshiro.create 0xD1CE in
  for _step = 1 to 4 do
    for _ = 1 to 800 do
      let v = Hsq_util.Xoshiro.int rng 200_000 in
      G.observe g v;
      Hsq_workload.Oracle.add oracle v
    done;
    ignore (G.end_time_step g)
  done;
  G.mark_down g 2 ~reason:"unit test";
  let rank = G.total_size g / 2 in
  (* An effectively-zero deadline forces a cut; the report must still
     lead with the worse Shard_down and keep an honest bound. *)
  let v, report = G.accurate ~deadline_ms:0.000_001 g ~rank in
  (match report.G.degradation with
  | `Shard_down [ 2 ] -> ()
  | d -> Alcotest.failf "expected shard_down to win over deadline, got %s" (G.degradation_label d));
  let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
  if float_of_int err > report.G.rank_error_bound then
    Alcotest.failf "deadline-cut error %d above bound %.1f" err report.G.rank_error_bound;
  G.close g

(* --- accurate under a down shard holds its bound ------------------------ *)

let test_accurate_bound_with_down_shard () =
  let g = G.create (config ~shards:4 ()) in
  let oracle = Hsq_workload.Oracle.create () in
  let rng = Hsq_util.Xoshiro.create 0xFACE in
  for _step = 1 to 5 do
    for _ = 1 to 700 do
      let v = Hsq_util.Xoshiro.int rng 1_000_000 in
      G.observe g v;
      Hsq_workload.Oracle.add oracle v
    done;
    ignore (G.end_time_step g)
  done;
  G.mark_down g 0 ~reason:"unit test";
  let n = G.total_size g in
  List.iter
    (fun rank ->
      let v, report = G.accurate g ~rank in
      (match report.G.degradation with
      | `Shard_down [ 0 ] -> ()
      | d -> Alcotest.failf "rank %d: degradation %s" rank (G.degradation_label d));
      let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
      if float_of_int err > report.G.rank_error_bound then
        Alcotest.failf "rank %d: error %d above reported bound %.1f" rank err
          report.G.rank_error_bound;
      (* the widening is bounded by the dead shard's elements plus the
         healthy ±εm band *)
      let healthy_band = (G.epsilon g *. float_of_int (G.total_size g)) +. 20.0 in
      if report.G.rank_error_bound > float_of_int (G.down_elements g) +. healthy_band then
        Alcotest.failf "rank %d: bound %.1f wider than down elements %d + healthy band %.1f"
          rank report.G.rank_error_bound (G.down_elements g) healthy_band)
    [ 1; n / 3; n / 2; n ];
  G.close g

(* --- ingest containment ------------------------------------------------- *)

let test_observe_down_shard_raises () =
  let g = G.create (config ~shards:2 ()) in
  for v = 0 to 99 do
    G.observe g v
  done;
  G.mark_down g 0 ~reason:"gone";
  let routed_down = List.filter (fun v -> G.route g v = 0) (List.init 50 (fun i -> i + 1000)) in
  List.iter
    (fun v ->
      match G.observe g v with
      | () -> Alcotest.fail "observe to a down shard must raise"
      | exception G.Shard_unavailable (0, reason) ->
        Alcotest.(check string) "carries the down reason" "gone" reason)
    routed_down;
  Alcotest.(check bool) "routed_down test values exist" true (routed_down <> []);
  (* survivors keep acknowledging *)
  let before = G.total_size g in
  let routed_up = List.filter (fun v -> G.route g v = 1) (List.init 50 (fun i -> i + 2000)) in
  List.iter (G.observe g) routed_up;
  Alcotest.(check int) "survivor observes acked" (before + List.length routed_up)
    (G.total_size g);
  G.close g

(* --- durable groups: recovery gauges, rejoin, health rollup ------------- *)

let test_recovery_gauges_and_rejoin () =
  let root = temp_dir "hsq_shard_recovery" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg = config ~shards:2 ~wal_dir:root () in
      let g, recs = G.open_or_recover cfg in
      List.iter
        (fun { G.shard = _; outcome; _ } ->
          if Result.is_error outcome then Alcotest.fail "fresh open must recover cleanly")
        recs;
      let rng = Hsq_util.Xoshiro.create 0x5EED in
      let acked = ref [] in
      for _ = 1 to 400 do
        let v = Hsq_util.Xoshiro.int rng 30_000 in
        G.observe g v;
        acked := v :: !acked
      done;
      ignore (G.end_time_step g);
      for _ = 1 to 120 do
        let v = Hsq_util.Xoshiro.int rng 30_000 in
        G.observe g v;
        acked := v :: !acked
      done;
      let total = G.total_size g in
      Alcotest.(check int) "acked count" (List.length !acked) total;
      (* power-cut the whole group; reopen replays each shard's WAL *)
      G.crash g;
      let g2, recs2 = G.open_or_recover cfg in
      List.iter
        (fun { G.shard; outcome; _ } ->
          match outcome with
          | Error msg -> Alcotest.failf "shard %d failed to recover: %s" shard msg
          | Ok (r : E.recovery_report) -> (
            (* satellite: the recovery counters are published as pull
               gauges on the shard's own registry, exactly matching the
               report the open returned *)
            match G.engine g2 shard with
            | None -> Alcotest.fail "recovered shard must be up"
            | Some e ->
              let gauge name =
                match Metrics.gauge_value (E.metrics e) name with
                | Some v -> int_of_float v
                | None -> Alcotest.failf "shard %d: gauge %s missing" shard name
              in
              Alcotest.(check int)
                (Printf.sprintf "shard %d: hsq_recovery_wal_replayed" shard)
                r.E.replayed
                (gauge "hsq_recovery_wal_replayed");
              Alcotest.(check int)
                (Printf.sprintf "shard %d: hsq_recovery_steps_reingested" shard)
                r.E.steps_reingested
                (gauge "hsq_recovery_steps_reingested");
              (* ... and the health surface exposes the same numbers *)
              let h = Hsq_serve.Health.collect e in
              (match h.Hsq_serve.Health.recovery with
              | None -> Alcotest.failf "shard %d: health lost the recovery info" shard
              | Some ri ->
                Alcotest.(check int) "health wal_replayed" r.E.replayed
                  ri.Hsq_serve.Health.wal_replayed)))
        recs2;
      Alcotest.(check int) "zero acked loss across the crash" total (G.total_size g2);
      (* mark one shard down, then rejoin: durable shards come back with
         everything they acknowledged *)
      G.mark_down g2 1 ~reason:"unit test";
      let gh = Hsq_serve.Health.collect_group g2 in
      Alcotest.(check bool) "rollup sees the down shard" false
        (Hsq_serve.Health.group_healthy gh);
      Alcotest.(check int) "rollup exit code" 1 (Hsq_serve.Health.group_exit_code gh);
      (match G.rejoin g2 1 with
      | Error msg -> Alcotest.failf "rejoin failed: %s" msg
      | Ok (_recovery, scrub) ->
        Alcotest.(check int) "rejoin scrub clean" 0 scrub.Hsq.Engine.still_quarantined);
      Alcotest.(check (list int)) "no shards down after rejoin" [] (G.shards_down g2);
      Alcotest.(check int) "zero acked loss across the rejoin" total (G.total_size g2);
      Alcotest.(check bool) "rollup healthy again" true
        (Hsq_serve.Health.group_healthy (Hsq_serve.Health.collect_group g2));
      G.close g2)

let test_volatile_rejoin_refused () =
  let g = G.create (config ~shards:2 ()) in
  G.mark_down g 0 ~reason:"gone";
  (match G.rejoin g 0 with
  | Ok _ -> Alcotest.fail "volatile rejoin must be refused"
  | Error _ -> ());
  G.close g

(* --- ingest buffer ---------------------------------------------------------- *)

(* Elements still in an engine's ingest buffer belong to the open step:
   the group's cut archives them on every replica. *)
let test_end_step_archives_buffer () =
  List.iter
    (fun replicas ->
      let g =
        G.create
          (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:2 ~replicas (Hsq.Config.Epsilon 0.05))
      in
      for v = 0 to 99 do
        G.observe g v
      done;
      let what = Printf.sprintf "R=%d" replicas in
      Alcotest.(check int) (what ^ ": every shard cut") 2 (List.length (G.end_time_step g));
      Alcotest.(check int) (what ^ ": all archived") 100 (G.hist_size g);
      Alcotest.(check int) (what ^ ": one step") 1 (G.time_steps g);
      G.close g)
    [ 1; 2 ]

let stream_image g ~shard ~replica =
  match G.replica_engine g ~shard ~replica with
  | Some e -> Hsq_sketch.Gk.dump (E.stream_sketch e)
  | None -> Alcotest.failf "shard %d replica %d is down" shard replica

(* Observe [sizes] elements per step (the last step left open), with a
   quick after every 7th observe and an accurate after every 97th. *)
let ingest_with_reads g rng sizes =
  let last = List.length sizes - 1 in
  List.iteri
    (fun step size ->
      for i = 1 to size do
        G.observe g (Hsq_util.Xoshiro.int rng 1_000_000);
        let rank () = 1 + Hsq_util.Xoshiro.int rng (G.total_size g) in
        if i mod 7 = 0 then ignore (G.quick_with_bound g ~rank:(rank ()));
        if i mod 97 = 0 then ignore (G.accurate g ~rank:(rank ()))
      done;
      if step < last then ignore (G.end_time_step g))
    sizes

(* A crash and a recovery leave every replica's GK tuples, the summary
   footprint and every answer as the uncrashed group had them, reads
   during ingest included: replay repeats every hand-off. *)
let test_recovery_equals_live () =
  List.iter
    (fun (shards, replicas) ->
      let root = temp_dir "hsq_shard_live" in
      Fun.protect
        ~finally:(fun () -> try rm_rf root with _ -> ())
        (fun () ->
          let cfg =
            Hsq.Config.make ~kappa:3 ~block_size:32 ~shards ~replicas ~wal_dir:root
              (Hsq.Config.Epsilon 0.05)
          in
          let g, _ = G.open_or_recover cfg in
          ingest_with_reads g (Hsq_util.Xoshiro.create ((10 * shards) + replicas)) [ 1_300; 1_700; 1_111 ];
          let state g =
            let n = G.total_size g in
            ( List.concat_map
                (fun shard -> List.init replicas (fun replica -> stream_image g ~shard ~replica))
                (List.init shards Fun.id),
              G.memory_words g,
              List.map
                (fun phi ->
                  let rank = max 1 (int_of_float (phi *. float_of_int n)) in
                  (G.quick g ~rank, fst (G.accurate g ~rank)))
                [ 0.01; 0.25; 0.5; 0.75; 0.99; 1.0 ] )
          in
          let images, words, answers = state g in
          G.crash g;
          let g, _ = G.open_or_recover cfg in
          let images', words', answers' = state g in
          let what = Printf.sprintf "K=%d R=%d" shards replicas in
          Alcotest.(check bool) (what ^ ": GK tuples") true (images = images');
          Alcotest.(check int) (what ^ ": memory words") words words';
          Alcotest.(check (list (pair int int))) (what ^ ": answers") answers answers';
          G.close g))
    [ (1, 1); (1, 2); (3, 1); (3, 2) ]

(* A replica whose hint log is lost rejoins by a file copy of its
   sibling and a replay: it comes back with the sibling's GK tuples. *)
let test_repaired_replica_image () =
  let root = temp_dir "hsq_shard_repair" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let g, _ =
        G.open_or_recover
          (Hsq.Config.make ~kappa:3 ~block_size:32 ~replicas:2 ~wal_dir:root
             (Hsq.Config.Epsilon 0.05))
      in
      let rng = Hsq_util.Xoshiro.create 0x4E9 in
      ingest_with_reads g rng [ 900; 700 ];
      G.mark_replica_down g ~shard:0 ~replica:1 ~reason:"unit test";
      ingest_with_reads g rng [ 333 ];
      Out_channel.with_open_bin (Filename.concat root "hint-1.base") (fun oc ->
          Out_channel.output_string oc "garbage\n");
      (match G.rejoin_replica g ~shard:0 ~replica:1 with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "rejoin failed: %s" why);
      Alcotest.(check (list (triple int int int)))
        "repaired GK tuples" (stream_image g ~shard:0 ~replica:0) (stream_image g ~shard:0 ~replica:1);
      G.close g)

(* Reads go to one replica, and they change no sketch: replicas that
   applied the same observes hold the same GK tuples, and anti-entropy
   flags nothing. *)
let test_entropy_ignores_handoff_points () =
  let root = temp_dir "hsq_shard_entropy" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let g, _ =
        G.open_or_recover
          (Hsq.Config.make ~kappa:3 ~block_size:32 ~replicas:2 ~wal_dir:root
             (Hsq.Config.Epsilon 0.05))
      in
      let rng = Hsq_util.Xoshiro.create 0xE7 in
      for round = 1 to 6 do
        for _ = 1 to 37 * round do
          G.observe g (Hsq_util.Xoshiro.int rng 100_000)
        done;
        ignore (G.quick_with_bound g ~rank:1)
      done;
      List.iter
        (fun (er : G.entropy_report) ->
          match er.G.flagged with
          | [] -> ()
          | (j, d) :: _ -> Alcotest.failf "replica %d flagged: %s" j d)
        (G.anti_entropy g);
      Alcotest.(check (list (pair int int))) "no divergence" [] (G.diverged_replicas g);
      Alcotest.(check (list (triple int int int)))
        "equal GK tuples" (stream_image g ~shard:0 ~replica:0) (stream_image g ~shard:0 ~replica:1);
      G.close g)

(* --- the store records its layout ----------------------------------------- *)

(* A K = 2, R = 2 root records its layout, and a config that disagrees
   with it is refused; a flat root records nothing.  A replica store
   lost with its volume opens down without being recreated, its sibling
   answers at full precision, and rejoin restores it as a copy of the
   sibling, every acknowledged element back. *)
let test_layout_and_lost_replica () =
  let root = temp_dir "hsq_shard_layout" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg ~shards ~replicas =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards ~replicas ~wal_dir:root
          (Hsq.Config.Epsilon 0.05)
      in
      let g, _ = G.open_or_recover (cfg ~shards:2 ~replicas:2) in
      let rng = Hsq_util.Xoshiro.create 0x1A40 in
      ingest_with_reads g rng [ 700; 500 ];
      let n = G.total_size g in
      G.close g;
      Alcotest.(check (option (pair int int))) "recorded" (Some (2, 2)) (G.layout ~root);
      (match G.open_or_recover (cfg ~shards:3 ~replicas:2) with
      | exception Invalid_argument _ -> ()
      | g, _ ->
        G.close g;
        Alcotest.fail "a disagreeing config must be refused");
      let lost = G.store_dir ~root ~shards:2 ~replicas:2 ~shard:1 ~replica:0 in
      rm_rf lost;
      let g, recoveries = G.open_or_recover (cfg ~shards:2 ~replicas:2) in
      Alcotest.(check bool) "lost store not recreated" false (Sys.file_exists lost);
      Alcotest.(check bool) "reported missing" true
        (List.exists
           (fun { G.shard; replica; outcome } ->
             (shard, replica) = (1, 0) && outcome = Error "store missing")
           recoveries);
      Alcotest.(check (list (pair int int))) "one replica down" [ (1, 0) ] (G.replicas_down g);
      Alcotest.(check int) "every element served" n (G.total_size g);
      let _, _, d = G.quick_with_bound g ~rank:(n / 2) in
      Alcotest.(check string) "full precision" "none" (G.degradation_label d);
      (match G.rejoin_replica g ~shard:1 ~replica:0 with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "rejoin failed: %s" why);
      Alcotest.(check (list (triple int int int)))
        "restored from the sibling" (stream_image g ~shard:1 ~replica:1)
        (stream_image g ~shard:1 ~replica:0);
      G.close g;
      let flat = Filename.concat root "flat" in
      let g, _ = G.open_or_recover { (cfg ~shards:1 ~replicas:1) with Hsq.Config.wal_dir = Some flat } in
      G.close g;
      Alcotest.(check bool) "a flat store records nothing" false
        (Sys.file_exists (Filename.concat flat "layout")))

(* A replica store that exists but fails to open (one digit of its
   sidecar changed, so its checksum fails) comes back from a repair
   scrub as a copy of its sibling, as a lost one does. *)
let test_corrupt_replica_rejoins () =
  let root = temp_dir "hsq_shard_corrupt" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:3 ~replicas:2 ~wal_dir:root
          (Hsq.Config.Epsilon 0.05)
      in
      let g, _ = G.open_or_recover cfg in
      ingest_with_reads g (Hsq_util.Xoshiro.create 0xC0DE) [ 900; 800 ];
      let n = G.total_size g in
      G.close g;
      let meta = Filename.concat (G.store_dir ~root ~shards:3 ~replicas:2 ~shard:1 ~replica:0) "meta" in
      let text = In_channel.with_open_bin meta In_channel.input_all in
      let i = String.index text '3' in
      Out_channel.with_open_bin meta (fun oc ->
          Out_channel.output_string oc (String.mapi (fun j c -> if j = i then '4' else c) text));
      let g, _ = G.open_or_recover cfg in
      Alcotest.(check (list (pair int int))) "the tampered replica opens down" [ (1, 0) ]
        (G.replicas_down g);
      (* What [hsq scrub --repair] does: rejoin every downed replica,
         then repair-scrub every live one. *)
      (match G.rejoin_replica g ~shard:1 ~replica:0 with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "rejoin failed: %s" why);
      List.iter
        (fun (_, (r : E.scrub_report)) -> Alcotest.(check (list string)) "scrub clean" [] r.E.errors)
        (G.scrub_all ~repair:true g);
      Alcotest.(check (list (pair int int))) "no replica down" [] (G.replicas_down g);
      Alcotest.(check (list (triple int int int)))
        "the sibling's GK tuples" (stream_image g ~shard:1 ~replica:1)
        (stream_image g ~shard:1 ~replica:0);
      Alcotest.(check int) "every element served" n (G.total_size g);
      G.close g)

(* A group's root files and a hint log's base keep the bytes earlier
   builds wrote.  One flipped byte in any of them is rejected: the
   layout is inferred from the directories, the step baselines rebase,
   and the hint base reads as absent. *)
let test_root_files_golden () =
  let root = temp_dir "hsq_shard_golden" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let path = Filename.concat root in
      let read name = In_channel.with_open_bin (path name) In_channel.input_all in
      let flip name off =
        let text = read name in
        Out_channel.with_open_bin (path name) (fun oc ->
            Out_channel.output_string oc
              (String.mapi (fun i c -> if i = off then Char.chr (Char.code c lxor 1) else c) text))
      in
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:3 ~replicas:2 ~wal_dir:root
          (Hsq.Config.Epsilon 0.05)
      in
      let g, _ = G.open_or_recover cfg in
      let rng = Hsq_util.Xoshiro.create 7 in
      for _ = 1 to 400 do
        G.observe g (Hsq_util.Xoshiro.int rng 50_000)
      done;
      ignore (G.end_time_step g);
      (* One value reaches one shard: an uneven cut writes the baselines. *)
      G.observe g 17;
      ignore (G.end_time_step g);
      G.close g;
      let layout = "hsq-layout 1\nshards 3\nreplicas 2\nchecksum 1d9e72067cd029b9\n" in
      let baseline = "hsq-steps 1\n1 1 2\nchecksum 9e6f66d38fde401\n" in
      let base = "hsq-hint 1\npeer 1\nbase_seq 1234\nchecksum 2dda6095384bdc74\n" in
      Alcotest.(check string) "layout" layout (read "layout");
      Alcotest.(check string) "step-baseline" baseline (read "step-baseline");
      let sync = Hsq_storage.Wal.Always in
      Hsq_shard.Hint_log.close (Hsq_shard.Hint_log.start ~dir:root ~peer:1 ~sync ~base_seq:1234);
      Alcotest.(check string) "hint base" base (read "hint-1.base");
      let reopened_base () =
        Option.map
          (fun h ->
            Hsq_shard.Hint_log.close h;
            Hsq_shard.Hint_log.base_seq h)
          (Hsq_shard.Hint_log.reopen ~dir:root ~peer:1 ~sync)
      in
      Alcotest.(check (option int)) "hint base reads back" (Some 1234) (reopened_base ());
      (* "shards 3" becomes "shards 2": the file is refused, and the
         directories still name three shards. *)
      flip "layout" (String.length "hsq-layout 1\nshards ");
      Alcotest.(check (option (pair int int))) "flipped layout inferred" (Some (3, 2)) (G.layout ~root);
      flip "step-baseline" (String.length "hsq-steps 1\n");
      let g, _ = G.open_or_recover cfg in
      G.close g;
      Alcotest.(check string) "flipped baselines rebased" baseline (read "step-baseline");
      flip "hint-1.base" (String.length "hsq-hint 1\npeer 1\nbase_seq ");
      Alcotest.(check (option int)) "flipped hint base absent" None (reopened_base ()))

(* --- windows ---------------------------------------------------------------- *)

(* Shard 0 down across one step, shard 1 down across a later one: both
   end with the same step count but not the same periods, so windows
   stay refused, across a reopen too, until a step reaches both shards,
   and then cover only that step. *)
let test_windows_refuse_mixed_periods () =
  let root = temp_dir "hsq_shard_windows" in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg = config ~shards:2 ~wal_dir:root () in
      let rng = Hsq_util.Xoshiro.create 0x51E9 in
      (* Observe [n] values (those routed to a live shard) and cut. *)
      let step g n =
        let vs = List.init n (fun _ -> Hsq_util.Xoshiro.int rng 50_000) in
        let kept = List.filter (fun v -> G.down_reason g (G.route g v) = None) vs in
        List.iter (G.observe g) kept;
        ignore (G.end_time_step g);
        kept
      in
      let down_for_a_step g i =
        G.mark_down g i ~reason:"unit test";
        ignore (step g 400);
        match G.rejoin g i with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "rejoin %d: %s" i msg
      in
      let refused g what =
        Alcotest.(check (list int)) (what ^ ": no window") [] (G.window_sizes g);
        (match G.quick_window g ~window:1 ~rank:1 with
        | Error (E.Window_not_aligned []) -> ()
        | _ -> Alcotest.failf "%s: quick window 1 must be refused" what);
        match G.accurate_window g ~window:1 ~rank:1 with
        | Error (E.Window_not_aligned []) -> ()
        | _ -> Alcotest.failf "%s: accurate window 1 must be refused" what
      in
      let g, _ = G.open_or_recover cfg in
      ignore (step g 400);
      ignore (step g 400);
      Alcotest.(check bool) "windows before any skip" true (G.window_sizes g <> []);
      down_for_a_step g 0;
      ignore (step g 400);
      down_for_a_step g 1;
      Alcotest.(check (list int))
        "equal step counts" [ 4; 4 ]
        (List.map (fun (_, e) -> E.time_steps e) (G.engines g));
      refused g "after the skips";
      G.close g;
      let g, _ = G.open_or_recover cfg in
      refused g "after a reopen";
      let last = step g 400 in
      let tail = List.init 100 (fun _ -> Hsq_util.Xoshiro.int rng 50_000) in
      List.iter (G.observe g) tail;
      Alcotest.(check (list int)) "one step since the skips" [ 1 ] (G.window_sizes g);
      let oracle = Hsq_workload.Oracle.create () in
      List.iter (Hsq_workload.Oracle.add oracle) (last @ tail);
      let n = Hsq_workload.Oracle.count oracle in
      Alcotest.(check int) "window total" n (Result.get_ok (G.window_total g ~window:1));
      List.iter
        (fun rank ->
          let check what v bound =
            let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
            if float_of_int err > bound then
              Alcotest.failf "%s rank %d: err %d > bound %.1f" what rank err bound
          in
          let v, bound, _ = Result.get_ok (G.quick_window g ~window:1 ~rank) in
          check "quick" v bound;
          let v, rep = Result.get_ok (G.accurate_window g ~window:1 ~rank) in
          check "accurate" v rep.G.rank_error_bound)
        [ 1; n / 4; n / 2; n ];
      G.close g)

(* --- ranges ------------------------------------------------------------------ *)

(* Observe [n] random values, keeping only those [keep] routes accept,
   then cut; returns the values observed. *)
let range_step ?(keep = fun _ -> true) g rng n =
  let vs =
    List.filter (fun v -> keep (G.route g v)) (List.init n (fun _ -> Hsq_util.Xoshiro.int rng 50_000))
  in
  List.iter (G.observe g) vs;
  ignore (G.end_time_step g);
  vs

(* [range] answers within its bound against an oracle of exactly the
   values of [steps] (no stream), and totals their count. *)
let check_range g ~steps (first, last) =
  let oracle = Hsq_workload.Oracle.create () in
  List.iter (fun vs -> List.iter (Hsq_workload.Oracle.add oracle) vs) steps;
  let n = Hsq_workload.Oracle.count oracle in
  let what = Printf.sprintf "range [%d,%d]" first last in
  (match G.range_total g ~first ~last with
  | Ok total -> Alcotest.(check int) (what ^ " total") n total
  | Error _ -> Alcotest.failf "%s refused" what);
  List.iter
    (fun rank ->
      match G.accurate_range g ~first ~last ~rank with
      | Error _ -> Alcotest.failf "%s refused" what
      | Ok (v, rep) ->
        let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
        if float_of_int err > rep.G.rank_error_bound then
          Alcotest.failf "%s rank %d: err %d > bound %.1f" what rank err rep.G.rank_error_bound)
    [ 1; n / 4; n / 2; (3 * n) / 4; n ]

(* K=3: every range over shared partition boundaries answers from the
   archived steps it names alone — the live streams stay out and stay
   intact — and an unaligned range is refused with the boundaries. *)
let test_ranges_k3 () =
  let g = G.create (config ~shards:3 ()) in
  let rng = Hsq_util.Xoshiro.create 0x4A4E in
  let steps = List.init 9 (fun _ -> range_step g rng 900) in
  (* The open step draws from the same values, so a stream leaking into
     a range would move its ranks. *)
  List.iter (G.observe g) (List.init 300 (fun _ -> Hsq_util.Xoshiro.int rng 50_000));
  let bounds = G.range_boundaries g in
  Alcotest.(check (list (pair int int))) "shared boundaries" [ (1, 4); (5, 8); (9, 9) ] bounds;
  let steps_in first last = List.filteri (fun s _ -> s + 1 >= first && s + 1 <= last) steps in
  List.iteri
    (fun i (first, _) ->
      List.iteri
        (fun j (_, last) -> if j >= i then check_range g ~steps:(steps_in first last) (first, last))
        bounds)
    bounds;
  Alcotest.(check int) "streams untouched" 300 (G.stream_size g);
  List.iter
    (fun (first, last) ->
      match G.accurate_range g ~first ~last ~rank:1 with
      | Error (E.Range_not_aligned bs) ->
        let what = Printf.sprintf "[%d,%d] lists boundaries" first last in
        Alcotest.(check (list (pair int int))) what bounds bs
      | Ok _ -> Alcotest.failf "misaligned range [%d,%d] answered" first last)
    [ (2, 6); (1, 3); (5, 10); (0, 4); (6, 5) ];
  G.close g

(* Steps that skip shard 0 (its open step is empty) are uneven cuts:
   group steps restart after the last one, so a range reaching back
   across it is refused with the boundaries every shard shares, and the
   steps since answer as ranges of their own. *)
let test_range_across_uneven_cut () =
  let g = G.create (config ~shards:3 ()) in
  let rng = Hsq_util.Xoshiro.create 0xC07 in
  for _ = 1 to 4 do
    ignore (range_step g rng 600)
  done;
  for _ = 1 to 4 do
    ignore (range_step ~keep:(fun s -> s <> 0) g rng 600)
  done;
  let after = List.init 5 (fun _ -> range_step g rng 600) in
  let shared = [ (1, 4); (5, 5) ] in
  Alcotest.(check (list (pair int int))) "boundaries since the cut" shared (G.range_boundaries g);
  List.iter
    (fun (first, last) ->
      (match G.range_total g ~first ~last with
      | Error (E.Range_not_aligned bs) ->
        Alcotest.(check (list (pair int int))) "refusal lists shared boundaries" shared bs
      | Ok _ -> Alcotest.failf "range [%d,%d] across the cut answered" first last);
      match G.accurate_range g ~first ~last ~rank:1 with
      | Error (E.Range_not_aligned bs) ->
        Alcotest.(check (list (pair int int))) "accurate refusal lists shared boundaries" shared bs
      | Ok _ -> Alcotest.failf "accurate range [%d,%d] across the cut answered" first last)
    [ (0, 4); (-3, 5); (-7, 0) ];
  check_range g ~steps:after (1, 5);
  check_range g ~steps:[ List.nth after 4 ] (5, 5);
  G.close g

(* --- metrics exporters -------------------------------------------------- *)

let test_metrics_labels () =
  let g = G.create (config ~shards:2 ()) in
  for v = 0 to 200 do
    G.observe g v
  done;
  ignore (G.end_time_step g);
  let prom = G.metrics_prometheus g in
  List.iter
    (fun label ->
      if not (contains ~sub:label prom) then Alcotest.failf "prometheus dump missing %s" label)
    [ "shard=\"0\""; "shard=\"1\""; "hsq_shard_index{shard=\"0\"}" ];
  (* every sample line carries a shard label; comments never do *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (contains ~sub:"shard=\"" line) then
        Alcotest.failf "unlabelled sample line: %s" line)
    (String.split_on_char '\n' prom);
  let json = G.metrics_json g in
  List.iter
    (fun sub ->
      if not (contains ~sub json) then Alcotest.failf "json dump missing %s" sub)
    [ "\"shards\":{"; "\"0\":{"; "\"1\":{" ];
  G.mark_down g 1 ~reason:"x";
  if not (contains ~sub:"\"down\":true" (G.metrics_json g)) then
    Alcotest.fail "down shard must be marked in the json dump";
  G.close g

(* --- one bisection -------------------------------------------------------- *)

(* The same seeded steps into any ingest surface: six archived steps
   plus an open one. *)
let feed ~seed ~observe ~end_step =
  let rng = Hsq_util.Xoshiro.create seed in
  for _ = 1 to 6 do
    for _ = 1 to 800 do
      observe (Hsq_util.Xoshiro.int rng 100_000)
    done;
    end_step ()
  done;
  for _ = 1 to 500 do
    observe (Hsq_util.Xoshiro.int rng 100_000)
  done

let feed_group ~seed g =
  feed ~seed ~observe:(G.observe g) ~end_step:(fun () -> ignore (G.end_time_step g))

(* 60 ranks spread over [1, n]. *)
let spread_ranks n = List.init 60 (fun i -> 1 + (i * (n - 1) / 59))

let bits = Int64.bits_of_float

(* A single engine's accurate query is the one-source case of the fused
   bisection: a K=1, R=1 group fed the same steps must agree with it bit
   for bit — value, iterations, reads and bound. *)
let test_one_source_is_engine () =
  let cfg =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 (Hsq.Config.Epsilon 0.05)
  in
  let eng = E.create cfg in
  let g = G.create cfg in
  feed ~seed:0x1B15 ~observe:(E.observe eng) ~end_step:(fun () -> ignore (E.end_time_step eng));
  feed_group ~seed:0x1B15 g;
  let n = E.total_size eng in
  Alcotest.(check int) "same population" n (G.total_size g);
  (* A non-power-of-two stopping factor makes the band's rounding
     depend on the order of its float operations. *)
  List.iter
    (fun tolerance_factor ->
      List.iter
        (fun rank ->
          let ctx what =
            Printf.sprintf "%s (gk, factor %g, rank %d)" what tolerance_factor rank
          in
          let ve, re = E.accurate ~tolerance_factor eng ~rank in
          let vg, rg = G.accurate ~tolerance_factor g ~rank in
          Alcotest.(check int) (ctx "value") ve vg;
          Alcotest.(check int) (ctx "iterations") re.E.iterations rg.G.iterations;
          Alcotest.(check int) (ctx "reads") re.E.io.Hsq_storage.Io_stats.reads
            rg.G.io.Hsq_storage.Io_stats.reads;
          Alcotest.(check int64) (ctx "bound") (bits re.E.rank_error_bound)
            (bits rg.G.rank_error_bound))
        (spread_ranks n))
    [ 0.5; 0.3 ];
  (* The quick answer is the same one-source view. *)
  List.iter
    (fun rank ->
      let ve, be = E.quick_with_bound eng ~rank in
      let vg, bg, _ = G.quick_with_bound g ~rank in
      Alcotest.(check int) (Printf.sprintf "quick value (rank %d)" rank) ve vg;
      Alcotest.(check int64) (Printf.sprintf "quick bound (rank %d)" rank) (bits be) (bits bg))
    (spread_ranks n);
  E.close eng;
  G.close g

(* The same under quarantine: one partition out of view, then every
   partition with the stream empty, when both answer from the whole
   selection's summary in memory, whose windows already cover the
   quarantined elements, so the bound does not widen by them again. *)
let test_one_source_is_engine_quarantined () =
  let cfg =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 (Hsq.Config.Epsilon 0.05)
  in
  let eng = E.create cfg in
  let g = G.create cfg in
  feed ~seed:0x0A7 ~observe:(E.observe eng) ~end_step:(fun () -> ignore (E.end_time_step eng));
  ignore (E.end_time_step eng);
  feed_group ~seed:0x0A7 g;
  ignore (G.end_time_step g);
  let ge = Option.get (G.engine g 0) in
  Alcotest.(check int) "the stream is empty" 0 (E.stream_size eng + E.stream_size ge);
  let quarantine k =
    List.iteri
      (fun i (p, q) ->
        if i < k then begin
          Li.quarantine_partition (E.hist eng) p;
          Li.quarantine_partition (E.hist ge) q
        end)
      (List.combine (Li.partitions (E.hist eng)) (Li.partitions (E.hist ge)))
  in
  let same what =
    List.iter
      (fun rank ->
        let ctx s = Printf.sprintf "%s: %s (rank %d)" what s rank in
        let ve, be = E.quick_with_bound eng ~rank in
        let vg, bg, _ = G.quick_with_bound g ~rank in
        Alcotest.(check int) (ctx "quick value") ve vg;
        Alcotest.(check int64) (ctx "quick bound") (bits be) (bits bg);
        let ve, re = E.accurate eng ~rank in
        let vg, rg = G.accurate g ~rank in
        Alcotest.(check int) (ctx "value") ve vg;
        Alcotest.(check int) (ctx "iterations") re.E.iterations rg.G.iterations;
        Alcotest.(check int) (ctx "reads") re.E.io.Hsq_storage.Io_stats.reads
          rg.G.io.Hsq_storage.Io_stats.reads;
        Alcotest.(check int64) (ctx "bound") (bits re.E.rank_error_bound)
          (bits rg.G.rank_error_bound);
        Alcotest.(check string) (ctx "degradation")
          (E.degradation_label re.E.degradation)
          (G.degradation_label rg.G.degradation))
      (spread_ranks (E.total_size eng))
  in
  quarantine 1;
  same "one partition quarantined";
  quarantine max_int;
  same "every partition quarantined";
  E.close eng;
  G.close g

(* A K=3 group's probe rounds batch reads across all three shards'
   partitions and stop once the windows decide each step, pinned:
   (rank, value, iterations) over [spread_ranks n], with the reads the
   early-deciding rounds make.  Under midpoint candidates these were the
   one-partition-at-a-time exact-rank loop's answers (432 reads in all
   there, 162 with early decisions); re-recorded under the
   summary-guided candidates (164 reads), and again under the rank
   model's first candidates (156 reads), whose agreement with exact
   ranks test_engine checks.  Each answer also lies within its bound
   of the exact rank. *)
let sequential_group_answers =
  [
    (1, 22, 1, 1); (90, 1785, 5, 8); (180, 3154, 1, 2); (270, 4862, 6, 1);
    (360, 6411, 3, 2); (450, 8296, 1, 1); (539, 10034, 1, 5); (629, 11524, 2, 2);
    (719, 13524, 1, 4); (809, 15285, 5, 1); (899, 16742, 6, 3); (988, 18504, 1, 3);
    (1078, 20261, 1, 1); (1168, 22154, 1, 2); (1258, 23879, 1, 6); (1348, 25388, 5, 3);
    (1438, 27064, 6, 1); (1527, 28744, 1, 3); (1617, 30333, 1, 1); (1707, 31991, 1, 2);
    (1797, 33929, 1, 3); (1887, 35608, 2, 2); (1976, 37447, 1, 4); (2066, 39026, 1, 3);
    (2156, 40560, 1, 2); (2246, 42307, 6, 1); (2336, 44070, 4, 3); (2425, 45628, 1, 4);
    (2515, 47299, 5, 0); (2605, 49183, 3, 5); (2695, 50684, 4, 2); (2785, 51910, 2, 3);
    (2875, 53593, 1, 3); (2964, 55075, 1, 2); (3054, 57047, 4, 2); (3144, 58766, 1, 3);
    (3234, 60455, 5, 4); (3324, 62217, 3, 1); (3413, 63980, 5, 3); (3503, 66189, 3, 4);
    (3593, 67798, 1, 3); (3683, 69608, 3, 2); (3773, 71230, 5, 2); (3862, 72879, 5, 5);
    (3952, 74892, 2, 2); (4042, 76703, 1, 3); (4132, 78663, 1, 2); (4222, 80297, 1, 4);
    (4312, 82265, 6, 1); (4401, 83994, 6, 3); (4491, 85743, 4, 3); (4581, 87086, 4, 2);
    (4671, 88516, 1, 2); (4761, 90108, 3, 4); (4850, 91450, 4, 1); (4940, 93220, 1, 4);
    (5030, 94699, 3, 2); (5120, 96548, 1, 3); (5210, 98221, 1, 2); (5300, 99987, 1, 0);
  ]

let test_group_parallel_identical () =
  let g =
    G.create
      (Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 ~shards:3
         (Hsq.Config.Epsilon 0.05))
  in
  let oracle = Hsq_workload.Oracle.create () in
  feed ~seed:0x9A11
    ~observe:(fun v ->
      G.observe g v;
      Hsq_workload.Oracle.add oracle v)
    ~end_step:(fun () -> ignore (G.end_time_step g));
  let n = G.total_size g in
  Alcotest.(check (list int)) "same ranks"
    (List.map (fun (r, _, _, _) -> r) sequential_group_answers)
    (spread_ranks n);
  List.iter
    (fun (rank, value, iterations, reads) ->
      let v, rep = G.accurate g ~rank in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
      if float_of_int err > rep.G.rank_error_bound then
        Alcotest.failf "rank %d: error %d above the bound %.1f" rank err rep.G.rank_error_bound;
      Alcotest.(check int) (Printf.sprintf "value at rank %d" rank) value v;
      Alcotest.(check int) (Printf.sprintf "iterations at rank %d" rank) iterations
        rep.G.iterations;
      Alcotest.(check int)
        (Printf.sprintf "reads at rank %d" rank)
        reads rep.G.io.Hsq_storage.Io_stats.reads)
    sequential_group_answers;
  G.close g

(* One phi -> rank rule: phi must lie in (0, 1], as for the engine. *)
let test_quantile_phi_range () =
  let g = G.create (config ~shards:2 ()) in
  feed_group ~seed:0x0F1 g;
  List.iter
    (fun phi ->
      Alcotest.check_raises (Printf.sprintf "phi = %g" phi)
        (Invalid_argument "Shard_group.quantile: phi not in (0,1]") (fun () ->
          ignore (G.quantile g phi)))
    [ 0.0; -0.5; 1.5 ];
  let v, _ = G.quantile g 1.0 in
  Alcotest.(check int) "phi = 1 is the maximum" v (fst (G.accurate g ~rank:(G.total_size g)));
  G.close g

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "deterministic and balanced" `Quick test_route_deterministic;
          Alcotest.test_case "matches observe placement" `Quick test_route_matches_observe;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fused windows bracket true ranks" `Quick
            test_fused_windows_bracket;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "worst wins, payloads merge" `Quick test_worst_degradation;
          Alcotest.test_case "shard_down beats deadline" `Quick test_shard_down_beats_deadline;
        ] );
      ( "fault domains",
        [
          Alcotest.test_case "down shard widens bound exactly" `Quick
            test_down_shard_widens_exactly;
          Alcotest.test_case "accurate bound honest with a down shard" `Quick
            test_accurate_bound_with_down_shard;
          Alcotest.test_case "observe to a down shard raises" `Quick
            test_observe_down_shard_raises;
          Alcotest.test_case "volatile rejoin refused" `Quick test_volatile_rejoin_refused;
        ] );
      ( "durability",
        [
          Alcotest.test_case "recovery gauges, rejoin, health rollup" `Quick
            test_recovery_gauges_and_rejoin;
          Alcotest.test_case "recovery equals live" `Quick test_recovery_equals_live;
          Alcotest.test_case "corrupt replica store rejoins from its sibling" `Quick
            test_corrupt_replica_rejoins;
          Alcotest.test_case "root and hint files golden" `Quick test_root_files_golden;
          Alcotest.test_case "recorded layout, lost replica store" `Quick
            test_layout_and_lost_replica;
          Alcotest.test_case "repaired replica holds its source's sketch" `Quick
            test_repaired_replica_image;
        ] );
      ( "ingest buffer",
        [
          Alcotest.test_case "end_step archives buffered elements" `Quick
            test_end_step_archives_buffer;
          Alcotest.test_case "anti-entropy ignores hand-off points" `Quick
            test_entropy_ignores_handoff_points;
        ] );
      ( "windows",
        [
          Alcotest.test_case "skips on different shards refuse windows" `Quick
            test_windows_refuse_mixed_periods;
        ] );
      ( "ranges",
        [
          Alcotest.test_case "K=3 aligned ranges against the range oracle" `Quick test_ranges_k3;
          Alcotest.test_case "range across an uneven cut refused" `Quick
            test_range_across_uneven_cut;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "shard labels" `Quick test_metrics_labels;
        ] );
      ( "one bisection",
        [
          Alcotest.test_case "K=1 R=1 group is the engine, bit for bit" `Quick
            test_one_source_is_engine;
          Alcotest.test_case "K=1 R=1 group is the engine under quarantine" `Quick
            test_one_source_is_engine_quarantined;
          Alcotest.test_case "parallel answers identical" `Quick test_group_parallel_identical;
          Alcotest.test_case "quantile phi in (0,1]" `Quick test_quantile_phi_range;
        ] );
    ]
