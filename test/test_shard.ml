(* Unit tests for the sharded warehouse: routing, fused-summary
   equivalence, degradation algebra, exact bound widening for down
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

(* With a single stream, build_fused must agree entry-for-entry
   (including float bounds) with the steady-state single-engine path —
   the K=1 fusion is literally the engine's own summary. *)
let test_build_fused_singleton () =
  let eng = E.create (config ()) in
  let rng = Hsq_util.Xoshiro.create 0xF00D in
  for _ = 1 to 5 do
    ignore (E.ingest_batch eng (Array.init 400 (fun _ -> Hsq_util.Xoshiro.int rng 100_000)))
  done;
  for _ = 1 to 137 do
    E.observe eng (Hsq_util.Xoshiro.int rng 100_000)
  done;
  let agg = Us.hist_aggregate ~partitions:(Li.active_partitions (E.hist eng)) in
  let stream = E.stream_summary eng in
  let reference = Us.build_from_agg ~agg ~stream in
  let fused = Us.build_fused ~agg ~streams:[ stream ] in
  Alcotest.(check bool) "fused[1 stream] == build_from_agg" true (Us.equal reference fused);
  E.close eng

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
  let us = Us.build_fused ~agg:(Us.hist_aggregate ~partitions) ~streams in
  Alcotest.(check int) "fused n_total" (G.total_size g) (Us.n_total us);
  Array.iter
    (fun { Us.value; lower; upper } ->
      (* a value answers any rank in [|{x<v}|+1, |{x≤v}|]; the fused
         window must intersect that legitimate interval *)
      let hi_true = float_of_int (Hsq_workload.Oracle.rank_of oracle value) in
      let lo_true = float_of_int (Hsq_workload.Oracle.rank_of oracle (value - 1) + 1) in
      if lower > hi_true || upper < lo_true then
        Alcotest.failf "value %d: legitimate ranks [%.0f, %.0f] outside fused window [%.1f, %.1f]"
          value lo_true hi_true lower upper)
    (Us.entries us);
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
                (Printf.sprintf "shard %d: hsq_recovery_checkpoint_used" shard)
                (if r.E.checkpoint_used then 1 else 0)
                (gauge "hsq_recovery_checkpoint_used");
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
                  ri.Hsq_serve.Health.wal_replayed;
                Alcotest.(check bool) "health checkpoint_used" r.E.checkpoint_used
                  ri.Hsq_serve.Health.checkpoint_used)))
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
        Alcotest.(check int) "rejoin scrub clean" 0 scrub.Hsq.Persist.still_quarantined);
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

(* --- ingest lanes ----------------------------------------------------------- *)

(* Elements still buffered in an ingest lane belong to the open step:
   the group's cut archives them although the stream sketch has not
   counted them yet. *)
let test_end_step_seals_lanes () =
  List.iter
    (fun replicas ->
      let g =
        G.create
          (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:2 ~replicas ~ingest_domains:2
             ~ingest_batch:1024 (Hsq.Config.Epsilon 0.05))
      in
      for v = 0 to 99 do
        G.observe_domain g ~domain:(v mod 2) v
      done;
      let what = Printf.sprintf "R=%d" replicas in
      Alcotest.(check int) (what ^ ": every shard cut") 2 (List.length (G.end_time_step g));
      Alcotest.(check int) (what ^ ": all archived") 100 (G.hist_size g);
      Alcotest.(check int) (what ^ ": one step") 1 (G.time_steps g);
      G.close g)
    [ 1; 2 ]

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

(* Parallel probe rounds are recorded in the group's own registry,
   flat at K = 1 and under "group" otherwise. *)
let test_group_pool_metrics () =
  List.iter
    (fun shards ->
      let g =
        G.create
          (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards ~query_domains:2
             (Hsq.Config.Epsilon 0.05))
      in
      feed_group ~seed:11 g;
      ignore (G.accurate g ~rank:(G.total_size g / 2));
      let json = G.metrics_json g in
      let expected = if shards = 1 then "{\"hsq_" else "{\"group\":{\"hsq_query_pool_round" in
      if not (contains ~sub:"\"hsq_query_pool_round_width\"" json && contains ~sub:expected json)
      then Alcotest.failf "K=%d: pool rounds missing from %s" shards json;
      G.close g)
    [ 1; 2 ]

(* 60 ranks spread over [1, n]. *)
let spread_ranks n = List.init 60 (fun i -> 1 + (i * (n - 1) / 59))

let bits = Int64.bits_of_float

(* A single engine's accurate query is the one-source case of the fused
   bisection: a K=1, R=1 group fed the same steps must agree with it bit
   for bit — value, iterations, reads and bound — under either sketch,
   sequential or with parallel probes. *)
let test_one_source_is_engine () =
  List.iter
    (fun (stream_sketch, query_domains) ->
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 ?query_domains ~stream_sketch
          (Hsq.Config.Epsilon 0.05)
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
                Printf.sprintf "%s (%s, query_domains=%s, factor %g, rank %d)" what
                  (match stream_sketch with `Gk -> "gk" | `Kll -> "kll")
                  (match query_domains with Some d -> string_of_int d | None -> "none")
                  tolerance_factor rank
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
      E.close eng;
      G.close g)
    [ (`Gk, None); (`Gk, Some 4); (`Kll, None); (`Kll, Some 4) ]

(* --query-domains is a latency knob on a group too: a K=3 group with
   parallel probes answers exactly as the sequential one, probe for
   probe. *)
let test_group_parallel_identical () =
  let build query_domains =
    let g =
      G.create
        (Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 ~shards:3 ?query_domains
           (Hsq.Config.Epsilon 0.05))
    in
    feed_group ~seed:0x9A11 g;
    g
  in
  let seq = build None and par = build (Some 4) in
  let n = G.total_size seq in
  Alcotest.(check int) "same population" n (G.total_size par);
  List.iter
    (fun rank ->
      let vs, rs = G.accurate seq ~rank in
      let vp, rp = G.accurate par ~rank in
      Alcotest.(check int) (Printf.sprintf "value at rank %d" rank) vs vp;
      Alcotest.(check int) (Printf.sprintf "iterations at rank %d" rank) rs.G.iterations
        rp.G.iterations;
      Alcotest.(check int)
        (Printf.sprintf "reads at rank %d" rank)
        rs.G.io.Hsq_storage.Io_stats.reads rp.G.io.Hsq_storage.Io_stats.reads)
    (spread_ranks n);
  G.close seq;
  G.close par

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
          Alcotest.test_case "singleton fusion is exact" `Quick test_build_fused_singleton;
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
        ] );
      ( "ingest lanes",
        [ Alcotest.test_case "end_step archives lane buffers" `Quick test_end_step_seals_lanes ] );
      ( "windows",
        [
          Alcotest.test_case "skips on different shards refuse windows" `Quick
            test_windows_refuse_mixed_periods;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "shard labels" `Quick test_metrics_labels;
          Alcotest.test_case "pool rounds in the group registry" `Quick test_group_pool_metrics;
        ] );
      ( "one bisection",
        [
          Alcotest.test_case "K=1 R=1 group is the engine, bit for bit" `Quick
            test_one_source_is_engine;
          Alcotest.test_case "parallel answers identical" `Quick test_group_parallel_identical;
          Alcotest.test_case "quantile phi in (0,1]" `Quick test_quantile_phi_range;
        ] );
    ]
