(* Seeded replica-kill chaos for the replicated sharded warehouse.

   Per seed: a K=4, R=2 durable group ingests under an exact oracle
   (acked observations only), answers a healthy sweep, then loses ONE
   REPLICA OF EVERY SHARD mid-traffic.  The tentpole contract under
   that loss:

   - writes keep acking (the surviving replica of each shard accepts,
     shard-mates buffer hints for the dead one), with zero
     acknowledged-observation loss at every phase;
   - reads fail over: every fused answer stays UNDEGRADED — no
     [`Shard_down], no bound widening — because each shard still
     serves through a live replica at full ±ε·m precision;
   - rejoin drains the hint logs exactly once, after which both
     replicas of every shard carry bit-identical state: the
     anti-entropy digest pass flags nothing.

   HSQ_REPLICA_CHAOS_SEEDS scales the seed count (default 8; nightly
   CI runs 100). *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module Oracle = Hsq_workload.Oracle

let seeds =
  match Sys.getenv_opt "HSQ_REPLICA_CHAOS_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 8)
  | None -> 8

let k = 4
let r = 2
let eps = 0.05

let temp_root seed =
  let dir = Filename.temp_file (Printf.sprintf "hsq_replica_chaos%d" seed) "" in
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
    (List.filter (fun x -> x >= 1 && x <= n) [ 1; n / 10; n / 4; n / 2; (3 * n) / 4; n ])

(* Undegraded sweep: both query paths answer inside their self-reported
   bound against ground truth, report no degradation, and the bound
   itself stays within the full-precision ±ε·m contract (small additive
   slack for the stream summaries' own windows). *)
let check_sweep ~what g oracle =
  let n = G.total_size g in
  let contract = (2.0 *. eps *. float_of_int n) +. 50.0 in
  List.iter
    (fun rank ->
      let v, bound, deg = G.quick_with_bound g ~rank in
      (match deg with
      | `None -> ()
      | d -> Alcotest.failf "%s: quick rank %d degraded: %s" what rank (G.degradation_label d));
      let err = Oracle.rank_error oracle ~rank ~value:v in
      if float_of_int err > bound then
        Alcotest.failf "%s: quick rank %d error %d above bound %.1f" what rank err bound;
      if bound > contract then
        Alcotest.failf "%s: quick rank %d bound %.1f outside full-precision contract %.1f" what
          rank bound contract;
      let av, report = G.accurate g ~rank in
      (match report.G.degradation with
      | `None -> ()
      | d ->
        Alcotest.failf "%s: accurate rank %d degraded: %s" what rank (G.degradation_label d));
      let aerr = Oracle.rank_error oracle ~rank ~value:av in
      if float_of_int aerr > report.G.rank_error_bound then
        Alcotest.failf "%s: accurate rank %d error %d above bound %.1f" what rank aerr
          report.G.rank_error_bound)
    (sweep_ranks n)

let ingest_acked g oracle rng n domain =
  for _ = 1 to n do
    let v = Hsq_util.Xoshiro.int rng domain in
    match G.observe g v with
    | () -> Oracle.add oracle v
    | exception G.Shard_unavailable _ -> ()
  done

let end_step_all ~what g =
  List.iter
    (fun (s, res) ->
      if Result.is_error res then Alcotest.failf "%s: end_time_step failed on shard %d" what s)
    (G.end_time_step g)

let run_seed seed () =
  let root = temp_root seed in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with _ -> ())
    (fun () ->
      let cfg =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:k ~replicas:r ~wal_dir:root
          ~checkpoint_every:500 (Hsq.Config.Epsilon eps)
      in
      let g, recoveries = G.open_or_recover cfg in
      List.iter
        (fun { G.shard; replica; outcome } ->
          if Result.is_error outcome then
            Alcotest.failf "shard %d replica %d dirty on fresh open" shard replica)
        recoveries;
      let rng = Hsq_util.Xoshiro.create (0x9E9E_0000 + seed) in
      let oracle = Oracle.create () in
      let domain = 1 + Hsq_util.Xoshiro.int rng 1_000_000 in

      (* healthy warm-up: archived steps plus a live tail *)
      for _ = 1 to 3 do
        ingest_acked g oracle rng (300 + Hsq_util.Xoshiro.int rng 200) domain;
        end_step_all ~what:"healthy" g
      done;
      ingest_acked g oracle rng 120 domain;
      Alcotest.(check int) "healthy: acked == stored" (Oracle.count oracle) (G.total_size g);
      check_sweep ~what:"healthy" g oracle;

      (* kill one replica of EVERY shard mid-traffic *)
      let victim i = (seed + i) mod r in
      for i = 0 to k - 1 do
        G.mark_replica_down g ~shard:i ~replica:(victim i) ~reason:"chaos: replica killed"
      done;
      Alcotest.(check int) "one replica down per shard" k (List.length (G.replicas_down g));
      Alcotest.(check (list int)) "no shard fully down" [] (G.shards_down g);

      (* traffic keeps flowing through the survivors; everything acks,
         and a time-step cut lands while half the fleet is dark *)
      ingest_acked g oracle rng (250 + Hsq_util.Xoshiro.int rng 150) domain;
      end_step_all ~what:"degraded" g;
      ingest_acked g oracle rng 150 domain;
      Alcotest.(check int) "degraded: acked == stored, zero loss" (Oracle.count oracle)
        (G.total_size g);

      (* hints are accumulating for each dead replica *)
      for i = 0 to k - 1 do
        match G.hints_pending g ~shard:i ~replica:(victim i) with
        | Some n when n > 0 -> ()
        | Some 0 -> Alcotest.failf "shard %d: hint log open but empty after acked traffic" i
        | _ -> Alcotest.failf "shard %d: no hint log for its dead replica" i
      done;

      (* THE tentpole assertion: answers stay fully undegraded — no
         [`Shard_down], no widening — with a replica of every shard dark *)
      check_sweep ~what:"failover" g oracle;

      (* heal: rejoin every dead replica; hint drain must be exactly-once *)
      for i = 0 to k - 1 do
        match G.rejoin_replica g ~shard:i ~replica:(victim i) with
        | Ok (_recovery, scrub) ->
          if scrub.Hsq.Engine.still_quarantined > 0 then
            Alcotest.failf "shard %d rejoin scrub left %d partitions quarantined" i
              scrub.Hsq.Engine.still_quarantined
        | Error msg -> Alcotest.failf "shard %d replica %d rejoin failed: %s" i (victim i) msg
      done;
      Alcotest.(check (list (pair int int))) "no replicas down after heal" []
        (G.replicas_down g);
      Alcotest.(check int) "healed: acked == stored, zero loss" (Oracle.count oracle)
        (G.total_size g);

      (* digest convergence: after the hint drain both replicas of every
         shard must agree bit-for-bit — the anti-entropy pass (which
         forces sketch checkpoints so the open step is covered too)
         flags nothing *)
      List.iter
        (fun (er : G.entropy_report) ->
          Alcotest.(check int)
            (Printf.sprintf "shard %d: both replicas digested" er.G.entropy_shard)
            r
            (List.length er.G.digests);
          match er.G.flagged with
          | [] -> ()
          | (j, d) :: _ ->
            Alcotest.failf "shard %d replica %d diverged after hint drain: %s"
              er.G.entropy_shard j d)
        (G.anti_entropy g);
      Alcotest.(check (list (pair int int))) "no divergence flagged" [] (G.diverged_replicas g);

      (* post-heal: more traffic, then an undegraded sweep *)
      ingest_acked g oracle rng 150 domain;
      end_step_all ~what:"healed" g;
      Alcotest.(check int) "post-heal: acked == stored" (Oracle.count oracle) (G.total_size g);
      check_sweep ~what:"healed" g oracle;
      G.close g;

      (* the whole store survives a cold restart with nothing lost *)
      let g2, recoveries2 = G.open_or_recover cfg in
      List.iter
        (fun { G.shard; replica; outcome } ->
          if Result.is_error outcome then
            Alcotest.failf "shard %d replica %d failed to recover on restart" shard replica)
        recoveries2;
      Alcotest.(check int) "restart: acked == stored" (Oracle.count oracle) (G.total_size g2);
      check_sweep ~what:"restart" g2 oracle;
      G.close g2)

let () =
  let cases =
    List.init seeds (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Slow (run_seed seed))
  in
  Alcotest.run "replica_chaos" [ ("kill one replica of every shard", cases) ]
