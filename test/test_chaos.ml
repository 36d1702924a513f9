(* Chaos harness: full engine lifecycles driven against seeded fault
   schedules (PR-gate default: 10 seeds; nightly runs 200 via the
   HSQ_CHAOS_SEEDS environment variable).

   Every seed deterministically derives a scenario — transient read
   faults the retries absorb, persistent per-block faults that drive
   partition quarantine, or a whole-device outage that trips the
   circuit breaker — and asserts, at every phase:

   - no crash: queries and ingest either succeed or degrade/raise along
     their documented containment paths, never anything else;
   - bounds hold: every answer (quick and accurate, degraded or not) is
     within its self-reported rank-error bound of an exact oracle;
   - deadlines are respected within a generous scheduling slack;
   - after the fault clears, breaker and quarantine converge back to
     healthy: a repair scrub reinstates everything, the breaker closes,
     and queries return to full undegraded accuracy.

   A failing seed prints as its own alcotest case ("seed N"), so the
   failing schedule is reproducible from the test name alone. *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device

let seeds =
  match Sys.getenv_opt "HSQ_CHAOS_SEEDS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 10)
  | None -> 10

(* Stateless per-(seed, block) coin: safe to call from any domain and
   stable across retries, so a "persistent" fault really is. *)
let coin ~seed ~salt addr pct =
  let h = (addr * 2654435761) lxor (seed * 40503) lxor (salt * 8191) in
  (h land 0x3fffffff) mod 100 < pct

type scenario = Transient | Persistent_blocks | Device_down

let scenario_name = function
  | Transient -> "transient"
  | Persistent_blocks -> "persistent-blocks"
  | Device_down -> "device-down"

(* Deadline slack: the deadline is checked between bisection iterations
   and probe rounds are cooperatively cancelled, but a single in-flight
   probe may still pay its full retry schedule (3 attempts, 50 ms
   backoff cap) several times before the breaker opens. *)
let deadline_slack_s = 2.0

let run_seed seed () =
  let rng = Hsq_util.Xoshiro.create (0x5EED0 + seed) in
  let config =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 (Hsq.Config.Epsilon 0.05)
  in
  let eng = E.create config in
  let dev = E.device eng in
  let oracle = Hsq_workload.Oracle.create () in
  let ingest n =
    let b = Array.init n (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
    Hsq_workload.Oracle.add_batch oracle b;
    ignore (E.ingest_batch eng b)
  in
  (* Ingest under an active fault schedule is contained, not crashed.
     Normally it simply succeeds: the level-0 run write is healthy in
     every scenario here, and a read fault interrupting the merge
     cascade defers the merge (update_report.deferred_merge) instead of
     surfacing — the repair scrub retries it.  If a fault ever does
     surface pre-archive, the rollover must have been atomic: batch
     retained in the stream, warehouse untouched. *)
  let ingest_contained n =
    let stream_before = E.stream_size eng and hist_before = E.hist_size eng in
    try ingest n
    with BD.Device_error _ ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: failed rollover keeps the batch" seed)
        (stream_before + n) (E.stream_size eng);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: failed rollover leaves the warehouse" seed)
        hist_before (E.hist_size eng)
  in
  let ranks () =
    let n = E.total_size eng in
    List.map
      (fun phi -> max 1 (int_of_float (ceil (phi *. float_of_int n))))
      [ 0.1; 0.5; 0.9 ]
  in
  let check_accurate ?deadline_ms ~phase rank =
    let t0 = Unix.gettimeofday () in
    let v, report = E.accurate ?deadline_ms eng ~rank in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match deadline_ms with
    | Some d when elapsed > (d /. 1000.0) +. deadline_slack_s ->
      Alcotest.failf "seed %d [%s]: deadline %.1f ms overshot: took %.3f s" seed phase d
        elapsed
    | _ -> ());
    let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
    if float_of_int err > report.E.rank_error_bound then
      Alcotest.failf "seed %d [%s]: rank %d err %d > reported bound %.1f (degradation %s)"
        seed phase rank err report.E.rank_error_bound
        (E.degradation_label report.E.degradation);
    report
  in
  let check_quick ~phase rank =
    let v, bound = E.quick_with_bound eng ~rank in
    let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
    if float_of_int err > bound then
      Alcotest.failf "seed %d [%s]: quick rank %d err %d > bound %.1f" seed phase rank err
        bound
  in
  let query_sweep ~phase =
    List.iter
      (fun r ->
        ignore (check_accurate ~phase r);
        check_quick ~phase r)
      (ranks ())
  in
  (* --- healthy warm-up ------------------------------------------------ *)
  let steps = 4 + Hsq_util.Xoshiro.int rng 4 in
  for _ = 1 to steps do
    ingest (400 + Hsq_util.Xoshiro.int rng 400)
  done;
  for _ = 1 to 50 + Hsq_util.Xoshiro.int rng 200 do
    let v = Hsq_util.Xoshiro.int rng 1_000_000 in
    E.observe eng v;
    Hsq_workload.Oracle.add oracle v
  done;
  query_sweep ~phase:"healthy";
  (* --- fault burst ---------------------------------------------------- *)
  let scenario =
    match Hsq_util.Xoshiro.int rng 3 with
    | 0 -> Transient
    | 1 -> Persistent_blocks
    | _ -> Device_down
  in
  let phase = "burst:" ^ scenario_name scenario in
  (match scenario with
  | Transient ->
    (* first attempt of ~40% of reads fails: the retry schedule absorbs
       every one of them *)
    BD.set_injector dev
      (Some
         (fun op ~attempt addr ->
           if op = BD.Read && attempt = 1 && coin ~seed ~salt:1 addr 40 then Some BD.Fail
           else None))
  | Persistent_blocks ->
    (* ~15% of blocks are bad on every attempt, failing or corrupt:
       their partitions quarantine after [quarantine_after] strikes *)
    BD.set_injector dev
      (Some
         (fun op ~attempt:_ addr ->
           if op = BD.Read && coin ~seed ~salt:2 addr 15 then
             if coin ~seed ~salt:3 addr 50 then Some BD.Fail else Some (BD.Corrupt (addr land 7))
           else None))
  | Device_down ->
    (* every read fails: the breaker opens and queries degrade to the
       in-memory summary *)
    BD.set_injector dev (Some (fun op ~attempt:_ _ -> if op = BD.Read then Some BD.Fail else None)));
  query_sweep ~phase;
  (* a deadline query mid-burst, cut or not, must respect the clock and
     its reported bound *)
  let dl = 1.0 +. (10.0 *. Hsq_util.Xoshiro.float rng) in
  ignore (check_accurate ~deadline_ms:dl ~phase:(phase ^ "+deadline") (List.nth (ranks ()) 1));
  (* the ingest path under the same schedule is contained, not crashed *)
  ingest_contained (200 + Hsq_util.Xoshiro.int rng 200);
  query_sweep ~phase:(phase ^ "+ingest");
  (* --- heal and converge ---------------------------------------------- *)
  BD.set_injector dev None;
  let rep = Hsq.Engine.scrub ~repair:true eng in
  if rep.Hsq.Engine.still_quarantined <> 0 then
    Alcotest.failf "seed %d: %d partitions still quarantined after the repair scrub" seed
      rep.Hsq.Engine.still_quarantined;
  if BD.breaker_state dev <> Hsq_storage.Breaker.Closed then
    Alcotest.failf "seed %d: breaker %s after heal" seed
      (Hsq_storage.Breaker.state_to_string (BD.breaker_state dev));
  List.iter
    (fun r ->
      let report = check_accurate ~phase:"healed" r in
      if report.E.degradation <> `None then
        Alcotest.failf "seed %d: still degraded (%s) after heal" seed
          (E.degradation_label report.E.degradation);
      check_quick ~phase:"healed" r)
    (ranks ());
  (* life goes on: post-heal ingest archives cleanly (including any
     batch a failed rollover retained) and answers stay exact-bounded *)
  ingest (300 + Hsq_util.Xoshiro.int rng 300);
  query_sweep ~phase:"post-heal";
  Alcotest.(check (list string))
    (Printf.sprintf "seed %d: invariants at end of life" seed)
    []
    (Hsq_hist.Level_index.check_invariants (E.hist eng))

let () =
  Alcotest.run "chaos"
    [
      ( "seeded lifecycles",
        List.init seeds (fun i ->
            Alcotest.test_case (Printf.sprintf "seed %d" i) `Quick (run_seed i)) );
    ]
