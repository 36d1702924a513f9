(* Seeded shard-kill chaos for the sharded warehouse.

   Per seed: a K=4 durable group ingests under an exact oracle (acked
   observations only), answers a healthy sweep, then loses one shard
   mid-traffic — either its device starts failing every read (breaker /
   probe-retry path: the accurate bisection drops it at query time) or
   the whole shard process dies ([mark_down]: routing raises, fused
   answers exclude it).  While degraded, every fused answer must stay
   within its self-reported bound against the full oracle, finish
   within the deadline, and widen by no more than the victim's element
   count.  Healing (clear the injector + repair scrub, or rejoin) must
   restore exact acked totals — zero acknowledged-observation loss —
   and un-degraded answers.

   HSQ_SHARD_CHAOS_SEEDS scales the seed count (default 10; nightly CI
   runs 100). *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module BD = Hsq_storage.Block_device
module Oracle = Hsq_workload.Oracle

let seeds =
  match Sys.getenv_opt "HSQ_SHARD_CHAOS_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 10)
  | None -> 10

let k = 4
let deadline_ms = 2_000.0
let deadline_slack_s = 2.0

let temp_root seed =
  let dir = Filename.temp_file (Printf.sprintf "hsq_shard_chaos%d" seed) "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let sweep_ranks n =
  List.sort_uniq compare
    (List.filter (fun r -> r >= 1 && r <= n) [ 1; n / 10; n / 4; n / 2; (3 * n) / 4; n ])

(* One fused query checked against ground truth: the answer's true rank
   error never exceeds the self-reported bound, and the query finishes
   inside its deadline (plus scheduler slack). *)
let check_accurate ~what g oracle rank =
  let t0 = Unix.gettimeofday () in
  let v, report = G.accurate ~deadline_ms g ~rank in
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > (deadline_ms /. 1000.0) +. deadline_slack_s then
    Alcotest.failf "%s: accurate rank %d took %.2fs, deadline %.1fs" what rank elapsed
      (deadline_ms /. 1000.0);
  let err = Oracle.rank_error oracle ~rank ~value:v in
  if float_of_int err > report.G.rank_error_bound then
    Alcotest.failf "%s: accurate rank %d error %d above reported bound %.1f" what rank err
      report.G.rank_error_bound;
  report

let check_quick ~what g oracle rank =
  let v, bound, deg = G.quick_with_bound g ~rank in
  let err = Oracle.rank_error oracle ~rank ~value:v in
  if float_of_int err > bound then
    Alcotest.failf "%s: quick rank %d error %d above bound %.1f" what rank err bound;
  (bound, deg)

let ingest_acked g oracle rng n domain =
  for _ = 1 to n do
    let v = Hsq_util.Xoshiro.int rng domain in
    match G.observe g v with
    | () -> Oracle.add oracle v
    | exception G.Shard_unavailable _ -> ()
    | exception BD.Device_error _ -> ()
  done

let run_seed seed () =
  let root = temp_root seed in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 ~shards:k ~wal_dir:root
          ~checkpoint_every:500 (Hsq.Config.Epsilon 0.05)
      in
      let g, recoveries = G.open_or_recover cfg in
      List.iter
        (fun { G.shard; outcome; _ } ->
          if Result.is_error outcome then Alcotest.failf "shard %d dirty on fresh open" shard)
        recoveries;
      let rng = Hsq_util.Xoshiro.create (0x5A5A_0000 + seed) in
      let oracle = Oracle.create () in
      let domain = 1 + Hsq_util.Xoshiro.int rng 1_000_000 in
      let victim = seed mod k in
      let injector_mode = seed / k mod 2 = 0 in

      (* healthy warm-up: several archived steps plus a live stream tail *)
      for _ = 1 to 3 do
        ingest_acked g oracle rng (400 + Hsq_util.Xoshiro.int rng 200) domain;
        List.iter
          (fun (s, r) ->
            if Result.is_error r then Alcotest.failf "healthy end_time_step failed on shard %d" s)
          (G.end_time_step g)
      done;
      ingest_acked g oracle rng 150 domain;
      Alcotest.(check int) "healthy: acked == stored" (Oracle.count oracle) (G.total_size g);

      let healthy_quick = Hashtbl.create 8 in
      List.iter
        (fun rank ->
          let bound, deg = check_quick ~what:"healthy" g oracle rank in
          (match deg with
          | `None -> ()
          | d -> Alcotest.failf "healthy quick degraded: %s" (G.degradation_label d));
          Hashtbl.replace healthy_quick rank bound;
          let report = check_accurate ~what:"healthy" g oracle rank in
          match report.G.degradation with
          | `None -> ()
          | d -> Alcotest.failf "healthy accurate degraded: %s" (G.degradation_label d))
        (sweep_ranks (G.total_size g));

      (* kill the victim mid-traffic *)
      if injector_mode then begin
        match G.engine g victim with
        | None -> Alcotest.fail "victim already down"
        | Some e -> BD.set_injector (E.device e) (Some (fun _op ~attempt:_ _addr -> Some BD.Fail))
      end
      else G.mark_down g victim ~reason:"chaos: process killed";
      let victim_elems = G.shard_elements g victim in

      (* traffic keeps flowing; only survivor-routed elements ack *)
      ingest_acked g oracle rng 300 domain;
      if not injector_mode then
        Alcotest.(check int) "degraded: acked == stored" (Oracle.count oracle) (G.total_size g);

      (* degraded sweep: bounds stay honest against the full oracle
         (which still counts everything the dead shard acked), answers
         arrive within the deadline, and the widening is at most the
         victim's element count *)
      let saw_degraded = ref false in
      List.iter
        (fun rank ->
          let bound, deg = check_quick ~what:"degraded" g oracle rank in
          (match Hashtbl.find_opt healthy_quick rank with
          | Some healthy_bound ->
            (* the stream tail grew since the healthy sweep; its worst
               extra window is the new elements themselves *)
            let growth = 300.0 in
            if bound > healthy_bound +. float_of_int victim_elems +. growth +. 1e-6 then
              Alcotest.failf
                "degraded quick rank %d: bound %.1f exceeds healthy %.1f + victim %d + growth"
                rank bound healthy_bound victim_elems
          | None -> ());
          if not injector_mode then begin
            match deg with
            | `Shard_down [ s ] when s = victim -> ()
            | d ->
              Alcotest.failf "degraded quick rank %d: expected shard_down [%d], got %s" rank
                victim (G.degradation_label d)
          end;
          let report = check_accurate ~what:"degraded" g oracle rank in
          if report.G.degradation <> `None then saw_degraded := true
          else if not injector_mode then
            (* a dead shard always shows in the report; a faulty device
               only bites when the bisection actually probes it, so an
               extreme rank can legitimately converge from summaries
               alone *)
            Alcotest.failf "degraded accurate rank %d reported no degradation" rank;
          (* the clean dead-shard case widens by at most the victim's
             elements on top of the ±εm contract (the injector path may
             additionally quarantine before dropping, so it only gets
             the honesty check above) *)
          if
            (not injector_mode)
            && report.G.rank_error_bound
               > float_of_int victim_elems
                 +. (G.epsilon g *. float_of_int (G.total_size g))
                 +. 50.0
          then
            Alcotest.failf "degraded accurate rank %d: bound %.1f wider than victim %d + εm"
              rank report.G.rank_error_bound victim_elems)
        (sweep_ranks (G.total_size g));
      if not !saw_degraded then
        Alcotest.fail "no query in the degraded sweep reported any degradation";

      (* heal: clear the fault and repair-scrub, or restart + rejoin *)
      if injector_mode then begin
        (match G.engine g victim with
        | Some e -> BD.set_injector (E.device e) None
        | None ->
          (* the query path may have taken the shard fully down; bring
             it back the process-death way *)
          ());
        match G.engine g victim with
        | Some _ ->
          List.iter
            (fun ((s, _), (r : Hsq.Engine.scrub_report)) ->
              if r.Hsq.Engine.still_quarantined > 0 then
                Alcotest.failf "heal scrub left %d partitions quarantined on shard %d"
                  r.Hsq.Engine.still_quarantined s)
            (G.scrub_all ~repair:true g)
        | None -> (
          match G.rejoin g victim with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "rejoin after injector death failed: %s" msg)
      end
      else begin
        match G.rejoin g victim with
        | Ok (_recovery, scrub) ->
          if scrub.Hsq.Engine.still_quarantined > 0 then
            Alcotest.failf "rejoin scrub left %d partitions quarantined"
              scrub.Hsq.Engine.still_quarantined
        | Error msg -> Alcotest.failf "rejoin failed: %s" msg
      end;
      Alcotest.(check (list int)) "no shards down after heal" [] (G.shards_down g);

      (* zero acknowledged loss: the store holds exactly what it acked *)
      Alcotest.(check int) "healed: acked == stored, zero loss" (Oracle.count oracle)
        (G.total_size g);

      (* post-heal sweep: bounds back to the un-degraded contract *)
      ingest_acked g oracle rng 100 domain;
      List.iter
        (fun (s, r) ->
          if Result.is_error r then Alcotest.failf "post-heal end_time_step failed on shard %d" s)
        (G.end_time_step g);
      List.iter
        (fun rank ->
          let _bound, deg = check_quick ~what:"healed" g oracle rank in
          (match deg with
          | `None -> ()
          | d -> Alcotest.failf "healed quick degraded: %s" (G.degradation_label d));
          let report = check_accurate ~what:"healed" g oracle rank in
          match report.G.degradation with
          | `None -> ()
          | d -> Alcotest.failf "healed accurate degraded: %s" (G.degradation_label d))
        (sweep_ranks (G.total_size g));
      G.close g)

(* --- kill two of four: exact widening ----------------------------------

   Losing any two shards — adjacent in routing order or not — must
   degrade fused quick answers to exactly the survivors' window plus
   both victims' frozen element counts, with no hidden slack.  The test
   recomputes the survivor summary through the same public pieces the
   group itself fuses (active partitions → hist_aggregate → build
   → rank_window) and requires the reported bound to match to 1e-9. *)

module Li = Hsq_hist.Level_index
module Us = Hsq.Union_summary

let run_two_kill ~victims seed () =
  let root = temp_root (1000 + seed) in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:k ~wal_dir:root ~checkpoint_every:500
          (Hsq.Config.Epsilon 0.05)
      in
      let g, _ = G.open_or_recover cfg in
      let rng = Hsq_util.Xoshiro.create (0x2B2B_0000 + seed) in
      let oracle = Oracle.create () in
      let domain = 1 + Hsq_util.Xoshiro.int rng 1_000_000 in
      for _ = 1 to 3 do
        ingest_acked g oracle rng (400 + Hsq_util.Xoshiro.int rng 200) domain;
        List.iter
          (fun (s, r) ->
            if Result.is_error r then Alcotest.failf "end_time_step failed on shard %d" s)
          (G.end_time_step g)
      done;
      ingest_acked g oracle rng 150 domain;
      let v1, v2 = victims in
      G.mark_down g v1 ~reason:"chaos: double kill";
      G.mark_down g v2 ~reason:"chaos: double kill";
      let victim_elems = G.shard_elements g v1 + G.shard_elements g v2 in
      (* survivors keep acking *)
      ingest_acked g oracle rng 200 domain;
      Alcotest.(check int) "acked == stored" (Oracle.count oracle) (G.total_size g);
      let survivors =
        List.filter_map
          (fun i -> if i = v1 || i = v2 then None else G.engine g i)
          (List.init k Fun.id)
      in
      Alcotest.(check int) "two survivors" (k - 2) (List.length survivors);
      let partitions = List.concat_map (fun e -> Li.active_partitions (E.hist e)) survivors in
      let streams = List.map E.stream_summary survivors in
      let us = Us.build ~agg:(Us.hist_aggregate ~partitions) ~streams in
      let n = Us.n_total us in
      List.iter
        (fun rank ->
          let v, bound, deg = G.quick_with_bound g ~rank in
          (match deg with
          | `Shard_down ks when List.sort compare ks = List.sort compare [ v1; v2 ] -> ()
          | d ->
            Alcotest.failf "rank %d: expected shards %d,%d down, got %s" rank v1 v2
              (G.degradation_label d));
          let lo, hi = Us.rank_window us v in
          let r = float_of_int rank in
          let expected = Float.max (hi -. r) (r -. lo) +. float_of_int victim_elems in
          if Float.abs (bound -. expected) > 1e-9 then
            Alcotest.failf
              "rank %d: reported bound %.12g, survivor window + victims gives %.12g" rank
              bound expected;
          let err = Oracle.rank_error oracle ~rank ~value:v in
          if float_of_int err > bound then
            Alcotest.failf "rank %d: true error %d above reported bound %.1f" rank err bound)
        (sweep_ranks n);
      G.close g)

let () =
  let cases =
    List.init seeds (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Slow (run_seed seed))
  in
  let two_kill_cases =
    List.concat_map
      (fun v ->
        [
          Alcotest.test_case
            (Printf.sprintf "adjacent %d,%d" v ((v + 1) mod k))
            `Slow
            (run_two_kill ~victims:(v, (v + 1) mod k) (2 * v));
          Alcotest.test_case
            (Printf.sprintf "non-adjacent %d,%d" v ((v + 2) mod k))
            `Slow
            (run_two_kill ~victims:(v, (v + 2) mod k) ((2 * v) + 1));
        ])
      [ 0; 1; 2; 3 ]
  in
  Alcotest.run "shard_chaos"
    [
      ("kill one of four shards", cases); ("kill two of four shards", two_kill_cases);
    ]
