(* End-to-end tests of the engine: Lemma 3 (quick), Lemma 5/Theorem 2
   (accurate, error proportional to the stream), disk-access behaviour,
   windowed and range queries (through a one-engine shard group),
   memory-budget mode, and lifecycle edge cases. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group

let phis = [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

(* Drive an engine and an oracle through [steps] time steps plus a live
   stream tail, drawing values from [gen] (default: uniform below
   [universe]). *)
let drive ?(universe = 1_000_000) ?gen ~config ~steps ~step_size ~tail ~seed () =
  let rng = Hsq_util.Xoshiro.create seed in
  let gen = Option.value gen ~default:(fun rng -> Hsq_util.Xoshiro.int rng universe) in
  let eng = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to steps do
    for _ = 1 to step_size do
      let v = gen rng in
      E.observe eng v;
      Hsq_workload.Oracle.add oracle v
    done;
    ignore (E.end_time_step eng)
  done;
  for _ = 1 to tail do
    let v = gen rng in
    E.observe eng v;
    Hsq_workload.Oracle.add oracle v
  done;
  (eng, oracle)

let std_config ?(kappa = 3) ?(epsilon = 0.05) () =
  Hsq.Config.make ~kappa ~block_size:32 (Hsq.Config.Epsilon epsilon)

let test_accurate_error_bound () =
  let eng, oracle = drive ~config:(std_config ()) ~steps:13 ~step_size:2_000 ~tail:1_500 ~seed:71 () in
  let n = E.total_size eng in
  Alcotest.(check int) "sizes agree" (Hsq_workload.Oracle.count oracle) n;
  let m = E.stream_size eng in
  let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
  List.iter
    (fun phi ->
      let r = int_of_float (ceil (phi *. float_of_int n)) in
      let v, _ = E.accurate eng ~rank:r in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
      Alcotest.(check bool)
        (Printf.sprintf "phi=%.3f err=%d <= %.1f" phi err bound)
        true
        (float_of_int err <= bound))
    phis

let test_accurate_error_independent_of_history () =
  (* Theorem 2: absolute error depends on m, not n.  Grow the history
     8x and check the error bound stays the one derived from m. *)
  List.iter
    (fun steps ->
      let eng, oracle =
        drive ~config:(std_config ()) ~steps ~step_size:1_000 ~tail:800 ~seed:72 ()
      in
      let n = E.total_size eng in
      let m = E.stream_size eng in
      let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
      let r = int_of_float (ceil (0.5 *. float_of_int n)) in
      let v, _ = E.accurate eng ~rank:r in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
      Alcotest.(check bool)
        (Printf.sprintf "steps=%d err=%d <= %.1f" steps err bound)
        true
        (float_of_int err <= bound))
    [ 2; 8; 16 ]

let test_quick_error_bound () =
  let eng, oracle = drive ~config:(std_config ()) ~steps:13 ~step_size:2_000 ~tail:1_500 ~seed:73 () in
  let n = E.total_size eng in
  let m = E.stream_size eng in
  let cfg = E.config eng in
  let eps1 = 1.0 /. float_of_int (Hsq.Config.beta1 cfg - 1) in
  let parts = Hsq_hist.Level_index.partition_count (E.hist eng) in
  let bound =
    Hsq.Errors.quick_rank_bound ~eps1 ~eps2:(E.eps2 eng) ~n:(E.hist_size eng) ~m ~partitions:parts
  in
  List.iter
    (fun phi ->
      let r = int_of_float (ceil (phi *. float_of_int n)) in
      let v = E.quick eng ~rank:r in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
      Alcotest.(check bool)
        (Printf.sprintf "phi=%.3f quick err=%d <= %.1f" phi err bound)
        true
        (float_of_int err <= bound))
    phis

(* [quick] skips the rank bound yet answers as [quick_with_bound] does,
   at every rank (clamped ones included): over an open stream, with one
   partition quarantined, and with every partition quarantined and no
   stream, where the answer comes from the whole selection's summary. *)
let test_quick_is_quick_with_bound () =
  let check eng label =
    let n = E.total_size eng in
    List.iter
      (fun rank ->
        Alcotest.(check int)
          (Printf.sprintf "%s, rank %d" label rank)
          (fst (E.quick_with_bound eng ~rank))
          (E.quick eng ~rank))
      [ -3; 0; 1; n / 3; n / 2; n - 1; n; n + 7 ]
  in
  let module L = Hsq_hist.Level_index in
  let eng, _ = drive ~config:(std_config ()) ~steps:9 ~step_size:1_000 ~tail:400 ~seed:75 () in
  check eng "open stream";
  L.quarantine_partition (E.hist eng) (List.hd (L.active_partitions (E.hist eng)));
  check eng "one partition quarantined";
  let eng, _ = drive ~config:(std_config ()) ~steps:9 ~step_size:1_000 ~tail:0 ~seed:76 () in
  List.iter (L.quarantine_partition (E.hist eng)) (L.active_partitions (E.hist eng));
  check eng "all quarantined, no stream"

let test_quick_uses_no_disk () =
  let eng, _ = drive ~config:(std_config ()) ~steps:9 ~step_size:1_000 ~tail:500 ~seed:74 () in
  let stats = Hsq_storage.Block_device.stats (E.device eng) in
  Hsq_storage.Io_stats.reset stats;
  ignore (E.quick eng ~rank:E.(total_size eng / 2));
  Alcotest.(check int) "no reads" 0 (Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.reads

let test_accurate_io_logarithmic () =
  let eng, _ = drive ~config:(std_config ()) ~steps:13 ~step_size:4_000 ~tail:2_000 ~seed:75 () in
  let parts = Hsq_hist.Level_index.partition_count (E.hist eng) in
  (* Lemma 7: O(parts * log(n/B) * log |U|) — use a generous concrete
     cap: parts * log2(n) + constant slack per bisection step. *)
  let cap = (parts + 2) * 22 in
  List.iter
    (fun phi ->
      let n = E.total_size eng in
      let r = int_of_float (ceil (phi *. float_of_int n)) in
      let _, report = E.accurate eng ~rank:r in
      let io = Hsq_storage.Io_stats.total report.E.io in
      Alcotest.(check bool) (Printf.sprintf "phi=%.2f io=%d <= %d" phi io cap) true (io <= cap))
    [ 0.01; 0.5; 0.99 ]

(* The paper's query-cost metric (Figs 9-10), pinned: a fixed list of
   accurate ranks over a seeded kappa = 10, B = 256 store must stay
   within its bound against the oracle and spend no more physical reads
   in total than the committed count (90 once each partition search
   interpolates between its window's anchor values; 93 when the probe
   rounds decided each step from the partition windows and started on
   the cached block with midpoint searches; exact ranks by the
   block-settling search spent 133, element bisection 194).  Reads are deterministic per seed, so
   a probe change that costs more reads fails here, not only in a
   benchmark. *)
let accurate_reads_gate = 90

let test_accurate_read_count_gate () =
  let config = Hsq.Config.make ~kappa:10 ~block_size:256 (Hsq.Config.Epsilon 0.01) in
  let eng, oracle = drive ~config ~steps:30 ~step_size:10_000 ~tail:5_000 ~seed:2016 () in
  let n = E.total_size eng in
  let reads =
    List.fold_left
      (fun acc phi ->
        let r = int_of_float (ceil (phi *. float_of_int n)) in
        let v, report = E.accurate eng ~rank:r in
        let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
        Alcotest.(check bool)
          (Printf.sprintf "phi=%.3f err=%d <= %.1f" phi err report.E.rank_error_bound)
          true
          (float_of_int err <= report.E.rank_error_bound);
        acc + report.E.io.Hsq_storage.Io_stats.reads)
      0 phis
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d reads <= %d" reads accurate_reads_gate)
    true (reads <= accurate_reads_gate)

(* A traced accurate query records one [round] span per batch of
   partition reads, each with the searches it served and the physical
   reads it made; those reads add up to the query's own read count, and
   no per-partition probe spans remain.  Every probe of a round is one
   physical read, so each round's reads equal its probes. *)
let test_traced_round_reads () =
  let config = Hsq.Config.make ~kappa:4 ~block_size:32 (Hsq.Config.Epsilon 0.02) in
  let eng, _ = drive ~config ~steps:12 ~step_size:2_000 ~tail:1_000 ~seed:23 () in
  let tr = Hsq_obs.Trace.create () in
  E.set_tracer eng (Some tr);
  let int_attr span key =
    match Hsq_obs.Trace.attr span key with
    | Some v -> int_of_string v
    | None -> Alcotest.failf "round span without %s" key
  in
  let total =
    List.fold_left
      (fun acc phi ->
        let n = E.total_size eng in
        let _, report = E.accurate eng ~rank:(int_of_float (ceil (phi *. float_of_int n))) in
        let root = Option.get report.E.span in
        let rounds = Hsq_obs.Trace.find_all root "round" in
        let reads = List.fold_left (fun acc sp -> acc + int_attr sp "reads") 0 rounds in
        let io = report.E.io.Hsq_storage.Io_stats.reads in
        Alcotest.(check int) (Printf.sprintf "phi=%g: round reads = io.reads" phi) io reads;
        Alcotest.(check bool) "every round serves a search" true
          (List.for_all (fun sp -> int_attr sp "probes" >= 1) rounds);
        List.iter
          (fun sp ->
            Alcotest.(check int) "round reads = round probes" (int_attr sp "probes")
              (int_attr sp "reads"))
          rounds;
        Alcotest.(check int) "no probe spans" 0 (List.length (Hsq_obs.Trace.find_all root "probe"));
        Hsq_obs.Trace.clear tr;
        acc + io)
      0 phis
  in
  Alcotest.(check bool) "the queries read the disk" true (total > 0);
  E.close eng

(* Algorithm 8 with exact ranks, as a reference for the probe rounds:
   every iteration settles each partition's historical rank with a
   whole-run [Run.rank] before deciding on rho = rho1 + rho2.  The
   budget, the rho arithmetic and the candidate rule are [Bisection]'s,
   so the two decide alike bit for bit.  Returns (answer, iterations). *)
let reference_accurate ~us ~streams ~partitions ~rank =
  let module Us = Hsq.Union_summary in
  let module Ss = Hsq.Stream_summary in
  let rank = Hsq.Bisection.clamp_rank ~n:(Us.n_total us) rank in
  let tolerance =
    List.fold_left
      (fun tol ss -> tol +. (0.5 *. Ss.eps2 ss *. float_of_int (Ss.stream_size ss)))
      0.0 streams
  in
  let runs = List.map Hsq_hist.Partition.run partitions in
  let rho z =
    let rho1 = List.fold_left (fun acc run -> acc + Hsq_storage.Run.rank run z) 0 runs in
    float_of_int rho1 +. List.fold_left (fun acc ss -> acc +. Ss.rank_estimate ss z) 0.0 streams
  in
  let r = float_of_int rank in
  let filters = Us.filters us ~rank in
  let rec bisect u v past iters =
    if v - u <= 1 then ((if rho u >= r then u else v), iters)
    else
      let z, _ = Hsq.Bisection.candidate us ~rank ~tolerance ~filters ~past ~u ~v in
      let rho = rho z in
      if r < rho -. tolerance then bisect u z (`Left :: past) (iters + 1)
      else if r > rho +. tolerance then bisect z v (`Right :: past) (iters + 1)
      else (z, iters)
  in
  bisect (fst filters) (snd filters) [] 1

(* The probe rounds decide each step from the summed partition windows
   and stop reading once they do, yet answer exactly as exact ranks
   would: on seeded stores of the four datasets, a lone engine and a
   K=3 shard group give the reference's (answer, iterations) at every
   rank of a sweep. *)
let test_early_decision_matches_exact_ranks () =
  let config ~shards =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~shards (Hsq.Config.Epsilon 0.05)
  in
  let feed ds ~observe ~end_step =
    for _ = 1 to 10 do
      Array.iter observe (Hsq_workload.Datasets.next_batch ds 1_500);
      end_step ()
    done;
    Array.iter observe (Hsq_workload.Datasets.next_batch ds 700)
  in
  let ranks n = List.init 40 (fun i -> 1 + (i * (n - 1) / 39)) in
  let check ctx ~n ~us ~streams ~partitions accurate =
    List.iter
      (fun rank ->
        let want = reference_accurate ~us ~streams ~partitions ~rank in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s rank %d: (answer, iterations)" ctx rank)
          want (accurate rank))
      (ranks n)
  in
  List.iter
    (fun name ->
      let eng = E.create (config ~shards:1) in
      feed (Hsq_workload.Datasets.by_name ~seed:24 name) ~observe:(E.observe eng) ~end_step:(fun () ->
          ignore (E.end_time_step eng));
      check (name ^ " K=1") ~n:(E.total_size eng) ~us:(E.union_summary eng)
        ~streams:[ E.stream_summary eng ]
        ~partitions:(Hsq_hist.Level_index.active_partitions (E.hist eng))
        (fun rank ->
          let v, rep = E.accurate eng ~rank in
          (v, rep.E.iterations));
      E.close eng;
      let g = G.create (config ~shards:3) in
      feed (Hsq_workload.Datasets.by_name ~seed:24 name) ~observe:(G.observe g) ~end_step:(fun () ->
          ignore (G.end_time_step g));
      let engines = List.map snd (G.engines g) in
      let partitions =
        List.concat_map (fun e -> Hsq_hist.Level_index.active_partitions (E.hist e)) engines
      in
      let streams = List.map E.stream_summary engines in
      let us =
        Hsq.Union_summary.build
          ~agg:(Hsq.Union_summary.hist_aggregate ~partitions)
          ~streams
      in
      check (name ^ " K=3") ~n:(G.total_size g) ~us ~streams ~partitions (fun rank ->
          let v, rep = G.accurate g ~rank in
          (v, rep.G.iterations));
      G.close g)
    Hsq_workload.Datasets.names

(* Values of magnitude in [2^61, 2^62) with either sign, the first one
   min_int: brackets across zero are wider than max_int. *)
let full_range () =
  let first = ref true in
  fun rng ->
    if !first then begin
      first := false;
      min_int
    end
    else
      let m = (1 lsl 61) + Hsq_util.Xoshiro.int rng (1 lsl 61) in
      if Hsq_util.Xoshiro.bool rng then m else -m

(* [v - u] wraps negative once the bracket is wider than max_int, so a
   width test on it stopped the bisection after one step with no read,
   and [min_int - 1] wrapped the lower filter to max_int.  Over a
   stepped store of full-range values and min_int, with no open stream,
   ranks around the gap at zero and at the minimum answer within their
   bound (2 here), bisecting past the first step where the answer is not
   the first candidate. *)
let test_full_range_values () =
  let eng, oracle =
    drive ~gen:(full_range ()) ~config:(std_config ()) ~steps:6 ~step_size:10_000 ~tail:0 ~seed:1
      ()
  in
  let n = E.total_size eng in
  let ranks = [ 1; 2; n / 4; (n / 2) - 40; n / 2; (n / 2) + 40; n - 1; n ] in
  let steps = ref 0 in
  List.iter
    (fun rank ->
      let v, rep = E.accurate eng ~rank in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d: err %d <= %.1f" rank err rep.E.rank_error_bound)
        true
        (float_of_int err <= rep.E.rank_error_bound);
      steps := max !steps rep.E.iterations)
    ranks;
  Alcotest.(check int) "rank 1 is min_int" min_int (fst (E.accurate eng ~rank:1));
  Alcotest.(check bool) "some query bisects past one step" true (!steps > 1);
  E.close eng

(* The secant's ITP clamp keeps the midpoint rule's worst case: no query
   takes more than ⌈log₂(v₀ − u₀)⌉ + 1 iterations over its filters, and
   every answer stays within its bound.  Duplicate-heavy and full-range
   data each fill one store with a long open stream, whose summary
   windows pass the secant gate, and one with a short stream, whose
   windows fail it; the traced [bisect] spans show the secant on the
   first and only midpoints on the second. *)
let test_iteration_bound () =
  let ceil_log2 w =
    let rec go n x = if x = 0L then n else go (n + 1) (Int64.shift_right_logical x 1) in
    go 0 (Int64.pred w)
  in
  let max_iterations (u0, v0) =
    let w = Int64.sub (Int64.of_int v0) (Int64.of_int u0) in
    if w <= 1L then 1 else ceil_log2 w + 1
  in
  let duplicate_heavy rng = 1_000 * Hsq_util.Xoshiro.int rng 40 in
  List.iter
    (fun (data, gen) ->
      List.iter
        (fun (tail, gate_on) ->
          let ctx = Printf.sprintf "%s, tail %d" data tail in
          let eng, oracle =
            drive ~gen:(gen ()) ~config:(std_config ()) ~steps:8 ~step_size:2_000 ~tail ~seed:29 ()
          in
          let tr = Hsq_obs.Trace.create () in
          E.set_tracer eng (Some tr);
          let n = E.total_size eng in
          let rules = ref [] in
          for i = 0 to 60 do
            let rank = 1 + (i * (n - 1) / 60) in
            let filters = Hsq.Union_summary.filters (E.union_summary eng) ~rank in
            let v, rep = E.accurate eng ~rank in
            let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
            Alcotest.(check bool)
              (Printf.sprintf "%s rank %d: err %d <= %.1f" ctx rank err rep.E.rank_error_bound)
              true
              (float_of_int err <= rep.E.rank_error_bound);
            Alcotest.(check bool)
              (Printf.sprintf "%s rank %d: %d iterations <= %d" ctx rank rep.E.iterations
                 (max_iterations filters))
              true
              (rep.E.iterations <= max_iterations filters);
            List.iter
              (fun sp -> rules := Option.get (Hsq_obs.Trace.attr sp "rule") :: !rules)
              (Hsq_obs.Trace.find_all (Option.get rep.E.span) "bisect");
            Hsq_obs.Trace.clear tr
          done;
          Alcotest.(check bool) (ctx ^ ": secant taken") gate_on (List.mem "secant" !rules);
          Alcotest.(check bool) (ctx ^ ": midpoint taken") true (List.mem "midpoint" !rules);
          E.close eng)
        [ (12_000, true); (100, false) ])
    [ ("duplicate-heavy", fun () -> duplicate_heavy); ("full-range", full_range) ]

let test_quantile_definitions () =
  let eng, oracle = drive ~config:(std_config ()) ~steps:5 ~step_size:500 ~tail:300 ~seed:76 () in
  let v, _ = E.quantile eng 0.5 in
  let err = abs (Hsq_workload.Oracle.rank_of oracle v - Hsq_workload.Oracle.count oracle / 2) in
  Alcotest.(check bool) "median close" true (err < 300);
  Alcotest.check_raises "phi out of range" (Invalid_argument "Engine: phi not in (0,1]") (fun () ->
      ignore (E.quantile eng 1.5))

let test_stream_only_queries () =
  let eng = E.create (std_config ()) in
  for i = 1 to 1_000 do
    E.observe eng i
  done;
  let v, _ = E.accurate eng ~rank:500 in
  Alcotest.(check bool) "stream-only accurate" true (abs (v - 500) <= 60);
  let vq = E.quick eng ~rank:500 in
  Alcotest.(check bool) "stream-only quick" true (abs (vq - 500) <= 120)

let test_hist_only_queries () =
  let eng = E.create (std_config ()) in
  ignore (E.ingest_batch eng (Array.init 1_000 (fun i -> i + 1)));
  (* No live stream: the accurate path must be near-exact. *)
  let v, _ = E.accurate eng ~rank:500 in
  Alcotest.(check bool) (Printf.sprintf "hist-only accurate v=%d" v) true (abs (v - 500) <= 1)

let test_empty_engine_raises () =
  let eng = E.create (std_config ()) in
  Alcotest.check_raises "accurate on empty" (Invalid_argument "Engine.accurate: no data")
    (fun () -> ignore (E.accurate eng ~rank:1));
  Alcotest.check_raises "end of empty step" (Invalid_argument "Engine.end_time_step: empty batch")
    (fun () -> ignore (E.end_time_step eng))

let test_rank_clamping () =
  let eng, _ = drive ~config:(std_config ()) ~steps:3 ~step_size:200 ~tail:100 ~seed:77 () in
  let v_low, _ = E.accurate eng ~rank:(-5) in
  let v_high, _ = E.accurate eng ~rank:(10 * E.total_size eng) in
  Alcotest.(check bool) "clamped low <= clamped high" true (v_low <= v_high)

let test_stream_reset_on_step () =
  let eng = E.create (std_config ()) in
  for i = 1 to 100 do
    E.observe eng i
  done;
  Alcotest.(check int) "stream size" 100 (E.stream_size eng);
  ignore (E.end_time_step eng);
  Alcotest.(check int) "stream reset" 0 (E.stream_size eng);
  Alcotest.(check int) "hist grew" 100 (E.hist_size eng);
  Alcotest.(check int) "steps" 1 (E.time_steps eng)

let test_window_queries () =
  let eng = E.create (std_config ~kappa:3 ()) in
  let oracle_recent = Hsq_workload.Oracle.create () in
  (* 13 steps; values encode their step so windows are testable. *)
  for s = 1 to 13 do
    let batch = Array.init 300 (fun i -> (s * 1000) + (i mod 97)) in
    if s >= 9 then Hsq_workload.Oracle.add_batch oracle_recent batch;
    ignore (E.ingest_batch eng batch)
  done;
  let g = G.of_engine eng in
  Alcotest.(check (list int)) "window sizes" [ 1; 5; 9; 13 ] (G.window_sizes g);
  (match G.window_total g ~window:5 with
  | Ok n -> Alcotest.(check int) "window 5 total" (5 * 300) n
  | Error _ -> Alcotest.fail "window 5 should be aligned");
  (match G.accurate_window g ~window:5 ~rank:750 with
  | Ok (v, _) ->
    let err = Hsq_workload.Oracle.rank_error oracle_recent ~rank:750 ~value:v in
    Alcotest.(check bool) (Printf.sprintf "window median err=%d" err) true (err <= 20)
  | Error _ -> Alcotest.fail "window query failed");
  match G.accurate_window g ~window:2 ~rank:10 with
  | Error (E.Window_not_aligned sizes) ->
    Alcotest.(check (list int)) "reported sizes" [ 1; 5; 9; 13 ] sizes
  | Ok _ -> Alcotest.fail "window 2 must be rejected"

let test_all_windows_match_oracles () =
  (* Every advertised window must answer within the accurate bound
     against an oracle holding exactly that window's data + stream. *)
  let eng = E.create (std_config ~kappa:3 ()) in
  let rng = Hsq_util.Xoshiro.create 83 in
  let per_step = Array.init 14 (fun _ -> Array.init 400 (fun _ -> Hsq_util.Xoshiro.int rng 100_000)) in
  for s = 0 to 12 do
    ignore (E.ingest_batch eng per_step.(s))
  done;
  Array.iter (E.observe eng) per_step.(13);
  let g = G.of_engine eng in
  let steps = 13 in
  List.iter
    (fun w ->
      let oracle = Hsq_workload.Oracle.create () in
      for s = steps - w to steps - 1 do
        Hsq_workload.Oracle.add_batch oracle per_step.(s)
      done;
      Hsq_workload.Oracle.add_batch oracle per_step.(13);
      match G.window_total g ~window:w with
      | Error _ -> Alcotest.failf "advertised window %d rejected" w
      | Ok n ->
        Alcotest.(check int) (Printf.sprintf "window %d total" w) (Hsq_workload.Oracle.count oracle) n;
        List.iter
          (fun phi ->
            let r = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
            match G.accurate_window g ~window:w ~rank:r with
            | Error _ -> Alcotest.fail "window query failed"
            | Ok (v, _) ->
              let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
              let m = E.stream_size eng in
              let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
              Alcotest.(check bool)
                (Printf.sprintf "window %d phi %.2f err %d <= %.1f" w phi err bound)
                true
                (float_of_int err <= bound))
          [ 0.1; 0.5; 0.9 ])
    (G.window_sizes g)

let test_expire_engine_end_to_end () =
  (* Retention through the engine: drop old data, keep answering, and
     survive a save/load cycle with retention applied. *)
  let dir = Filename.temp_file "hsq_expire" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let dev_path, meta_path, _ = E.store_paths ~dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
      let dev = Hsq_storage.Block_device.create_file ~block_size:32 ~path:dev_path () in
      let eng = E.create ~device:dev config in
      for s = 1 to 13 do
        ignore (E.ingest_batch eng (Array.make 200 s))
      done;
      let dropped_parts, dropped_elems = E.expire eng ~keep_steps:5 in
      Alcotest.(check bool) "something dropped" true (dropped_parts > 0 && dropped_elems > 0);
      Alcotest.(check (list string)) "invariants after expire" []
        (Hsq_hist.Level_index.check_invariants (E.hist eng));
      (* Only steps 9..13 remain: the minimum is 9. *)
      let v, _ = E.accurate eng ~rank:1 in
      Alcotest.(check int) "oldest retained value" 9 v;
      Hsq.Meta.write ~path:meta_path
        (Hsq.Meta.render ~config:(E.config eng) ~descriptors:(Hsq_hist.Level_index.describe (E.hist eng)));
      Hsq_storage.Block_device.close dev;
      let restored = E.load_warehouse ~dir in
      Alcotest.(check (list string)) "invariants after restore of expired warehouse" []
        (Hsq_hist.Level_index.check_invariants (E.hist restored));
      Alcotest.(check int) "restored total" (E.total_size eng) (E.total_size restored);
      let v2, _ = E.accurate restored ~rank:1 in
      Alcotest.(check int) "restored oldest" 9 v2;
      Hsq_storage.Block_device.close (E.device restored))

(* The φ-quantile of group steps [first, last] (rank ⌈φ·n⌉ over the
   range's n elements). *)
let quantile_range g ~first ~last phi =
  Result.bind (G.range_total g ~first ~last) (fun n ->
      G.accurate_range g ~first ~last ~rank:(Hsq.Bisection.rank_of_phi ~who:"test" ~n phi))

let test_range_queries () =
  let eng = E.create (std_config ~kappa:3 ()) in
  (* 13 steps; values encode their step: step s holds s*1000 .. s*1000+299. *)
  for s = 1 to 13 do
    ignore (E.ingest_batch eng (Array.init 300 (fun i -> (s * 1000) + (i mod 97))))
  done;
  let g = G.of_engine eng in
  (* kappa=3 after 13 steps: partitions P1-4, P5-8, P9-12, P13.  A
     one-engine group numbers steps as the engine does. *)
  let boundaries = Hsq_hist.Level_index.partition_boundaries (E.hist eng) in
  Alcotest.(check (list (pair int int))) "boundaries" [ (1, 4); (5, 8); (9, 12); (13, 13) ]
    boundaries;
  Alcotest.(check (list (pair int int))) "group boundaries" boundaries (G.range_boundaries g);
  (* Aligned range [5, 12]: two partitions. *)
  (match G.range_total g ~first:5 ~last:12 with
  | Ok n -> Alcotest.(check int) "range total" (8 * 300) n
  | Error _ -> Alcotest.fail "range [5,12] should be aligned");
  (match quantile_range g ~first:5 ~last:12 0.5 with
  | Ok (v, _) ->
    (* median of steps 5..12 lies in step 8's values *)
    Alcotest.(check bool) (Printf.sprintf "range median %d in step 8/9 band" v) true
      (v >= 8000 && v < 9100)
  | Error _ -> Alcotest.fail "range quantile failed");
  (* Unaligned range rejected with boundaries. *)
  (match quantile_range g ~first:2 ~last:6 0.5 with
  | Error (E.Range_not_aligned bs) ->
    Alcotest.(check (list (pair int int))) "error carries boundaries" boundaries bs
  | Ok _ -> Alcotest.fail "range [2,6] must be rejected");
  (* Out-of-range endpoints rejected. *)
  Alcotest.(check bool) "range [0,4] rejected" true
    (match G.range_total g ~first:0 ~last:4 with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "range [13,14] rejected" true
    (match G.range_total g ~first:13 ~last:14 with Error _ -> true | Ok _ -> false);
  (* Range queries ignore the live stream and leave it intact. *)
  for i = 1 to 50 do
    E.observe eng (99_000 + i)
  done;
  (match quantile_range g ~first:13 ~last:13 1.0 with
  | Ok (v, _) -> Alcotest.(check bool) "stream excluded" true (v < 99_000)
  | Error _ -> Alcotest.fail "range [13,13] should be aligned");
  Alcotest.(check int) "stream preserved" 50 (E.stream_size eng)

let test_rank_of () =
  let eng, oracle = drive ~config:(std_config ()) ~steps:6 ~step_size:1_000 ~tail:700 ~seed:81 () in
  let m = E.stream_size eng in
  let slack = int_of_float (2.0 *. E.eps2 eng *. float_of_int m) + 1 in
  List.iter
    (fun v ->
      let est = E.rank_of eng v in
      let truth = Hsq_workload.Oracle.rank_of oracle v in
      Alcotest.(check bool)
        (Printf.sprintf "rank_of %d: |%d - %d| <= %d" v est truth slack)
        true
        (abs (est - truth) <= slack))
    [ -1; 0; 250_000; 500_000; 999_999; 2_000_000 ]

(* A step commit merges the spool's sorted runs (Algorithm 3's sort):
   each step's level-0 partition must hold exactly that step's values,
   sorted, whatever reads fell between the observes — random chunks,
   descending input read after every element, and a spool replayed from
   the WAL. *)
let test_step_commit_sorts_the_spool () =
  let dir = Filename.temp_file "hsq_commit" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let config =
    Hsq.Config.make ~kappa:10 ~block_size:32 ~wal_dir:dir (Hsq.Config.Epsilon 0.05)
  in
  let rng = Hsq_util.Xoshiro.create 557 in
  let value () =
    match Hsq_util.Xoshiro.int rng 20 with
    | 0 -> min_int
    | 1 -> max_int
    | _ -> Hsq_util.Xoshiro.int rng 1_000 - 500
  in
  (* Observe [values] in chunks of 1..700, reading the stream size after
     each chunk. *)
  let observe_in_chunks eng values =
    let i = ref 0 and n = Array.length values in
    while !i < n do
      let k = min (n - !i) (1 + Hsq_util.Xoshiro.int rng 700) in
      for j = !i to !i + k - 1 do
        E.observe eng values.(j)
      done;
      ignore (E.stream_size eng);
      i := !i + k
    done
  in
  let check_newest eng label values =
    let expected = Array.copy values in
    Array.sort Int.compare expected;
    let newest = List.hd (Hsq_hist.Level_index.partitions (E.hist eng)) in
    Alcotest.(check (array int)) label expected
      (Hsq_storage.Run.to_array (Hsq_hist.Partition.run newest))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let eng, _ = E.open_or_recover config in
      for step = 1 to 3 do
        let values = Array.init 3_000 (fun _ -> value ()) in
        observe_in_chunks eng values;
        ignore (E.end_time_step eng);
        check_newest eng (Printf.sprintf "step %d" step) values
      done;
      let descending = Array.init 2_000 (fun i -> 1_000 - i) in
      Array.iter
        (fun v ->
          E.observe eng v;
          ignore (E.stream_size eng))
        descending;
      ignore (E.end_time_step eng);
      check_newest eng "descending, one run per element" descending;
      let values = Array.init 2_500 (fun _ -> value ()) in
      observe_in_chunks eng values;
      E.crash eng;
      let eng, report = E.open_or_recover config in
      Alcotest.(check int) "open step replayed" 2_500 report.E.replayed;
      ignore (E.end_time_step eng);
      check_newest eng "restored spool" values;
      Alcotest.(check int) "one partition per step" 5
        (Hsq_hist.Level_index.partition_count (E.hist eng));
      E.close eng)

(* A write fault in the middle of a step's block load: the commit
   sorts the spool in place rather than a copy, so the failure must
   leave the open step the same multiset, and the retried commit must
   write what an unfaulted twin writes — every block's payload, the
   partition summary and the step count.  (Blocks are compared by
   payload: a block's checksum word is seeded by its address, and the
   failed load's blocks move the retry's.) *)
let test_failed_load_keeps_the_spool () =
  let module BD = Hsq_storage.Block_device in
  let config = std_config ~kappa:3 () in
  let rng = Hsq_util.Xoshiro.create 919 in
  let steps =
    List.init 3 (fun _ ->
        Array.init 1_700 (fun i ->
            if i mod 400 = 0 then min_int else Hsq_util.Xoshiro.int rng 5_000 - 2_500))
  in
  let build ~faulted =
    let eng = E.create config in
    List.iteri
      (fun s values ->
        Array.iter (E.observe eng) values;
        if s < 2 then ignore (E.end_time_step eng))
      steps;
    if faulted then begin
      let open_step = E.open_step eng in
      let writes = ref 0 in
      BD.set_injector (E.device eng)
        (Some
           (fun op ~attempt:_ _ ->
             if op = BD.Write then incr writes;
             if op = BD.Write && !writes = 20 then Some BD.Fail else None));
      (match E.end_time_step eng with
      | _ -> Alcotest.fail "the load should have failed"
      | exception BD.Device_error _ -> ());
      BD.set_injector (E.device eng) None;
      Alcotest.(check (array int)) "the spool keeps its multiset" open_step (E.open_step eng);
      Alcotest.(check int) "nothing archived" 2 (E.time_steps eng)
    end;
    ignore (E.end_time_step eng);
    eng
  in
  let faulted = build ~faulted:true and twin = build ~faulted:false in
  let newest eng = List.hd (Hsq_hist.Level_index.partitions (E.hist eng)) in
  let blocks eng =
    let run = Hsq_hist.Partition.run (newest eng) in
    List.init (Hsq_storage.Run.nblocks run) (fun b ->
        BD.read_block (E.device eng) ~addr:(Hsq_storage.Run.first_block run + b))
  in
  Alcotest.(check int) "three steps" (E.time_steps twin) (E.time_steps faulted);
  Alcotest.(check (list (array int))) "the retried load's blocks" (blocks twin) (blocks faulted);
  let summary eng =
    List.map
      (fun e -> (e.Hsq_hist.Partition_summary.value, e.Hsq_hist.Partition_summary.index))
      (Array.to_list (Hsq_hist.Partition_summary.entries (Hsq_hist.Partition.summary (newest eng))))
  in
  Alcotest.(check (list (pair int int))) "its summary" (summary twin) (summary faulted)

(* Reads never change the stream sketch: one observe sequence with step
   ends, fed to an engine that only ingests and to one that answers a
   quick, stats (counts, footprint, eps2) or accurate call after every
   few observes, leaves equal GK tuples and equal answers.  Under both
   sizings: a capped sketch's eps also moves with its inserts. *)
let test_reads_leave_the_sketch () =
  List.iter
    (fun (label, sizing) ->
      let config = Hsq.Config.make ~kappa:3 ~block_size:32 sizing in
      let quiet = E.create config and busy = E.create config in
      let rng = Hsq_util.Xoshiro.create 4242 in
      let reads = ref 0 in
      let read i =
        let n = E.total_size busy in
        (match i mod 3 with
        | 0 -> ignore (E.quick busy ~rank:(1 + Hsq_util.Xoshiro.int rng n))
        | 1 -> ignore (E.stream_size busy, E.memory_words busy, E.eps2 busy)
        | _ -> ignore (E.accurate busy ~rank:(1 + Hsq_util.Xoshiro.int rng n)));
        incr reads
      in
      let observe v =
        E.observe quiet v;
        E.observe busy v
      in
      List.iteri
        (fun step size ->
          for i = 1 to size do
            observe (Hsq_util.Xoshiro.int rng 1_000_000);
            if i mod (5 + step) = 0 then read i
          done;
          if step < 3 then begin
            ignore (E.end_time_step quiet);
            ignore (E.end_time_step busy)
          end)
        [ 1_500; 2_048; 1_100; 1_234 ];
      let what = Printf.sprintf "%s after %d reads" label !reads in
      let dump e = Hsq_sketch.Gk.dump (E.stream_sketch e) in
      Alcotest.(check (list (triple int int int))) (what ^ ": GK tuples") (dump quiet) (dump busy);
      Alcotest.(check int) (what ^ ": memory words") (E.memory_words quiet) (E.memory_words busy);
      Alcotest.(check (float 0.0)) (what ^ ": eps2") (E.eps2 quiet) (E.eps2 busy);
      let n = E.total_size quiet in
      Alcotest.(check int) (what ^ ": size") n (E.total_size busy);
      List.iter
        (fun phi ->
          let rank = max 1 (int_of_float (phi *. float_of_int n)) in
          Alcotest.(check int)
            (Printf.sprintf "%s: quick at %g" what phi)
            (E.quick quiet ~rank) (E.quick busy ~rank);
          Alcotest.(check int)
            (Printf.sprintf "%s: accurate at %g" what phi)
            (fst (E.accurate quiet ~rank))
            (fst (E.accurate busy ~rank)))
        phis)
    [ ("epsilon", Hsq.Config.Epsilon 0.02); ("memory", Hsq.Config.Memory_words 2_000) ]

let test_memory_mode_budget () =
  let config =
    Hsq.Config.make ~kappa:10 ~block_size:32 ~steps_hint:20 (Hsq.Config.Memory_words 4_000)
  in
  let eng, oracle = drive ~config ~steps:20 ~step_size:2_000 ~tail:1_000 ~seed:78 () in
  Alcotest.(check bool)
    (Printf.sprintf "memory %d within budget" (E.memory_words eng))
    true
    (E.memory_words eng <= 4_000);
  (* And the answers are still good: error well under 1% of N. *)
  let n = E.total_size eng in
  let r = n / 2 in
  let v, _ = E.accurate eng ~rank:r in
  let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
  Alcotest.(check bool) (Printf.sprintf "memory-mode err=%d" err) true (err < n / 100)

let test_accuracy_on_duplicate_heavy_data () =
  (* Network-like data: few distinct values, huge multiplicities. *)
  let rng = Hsq_util.Xoshiro.create 79 in
  let eng = E.create (std_config ()) in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to 8 do
    let batch = Array.init 1_000 (fun _ -> Hsq_util.Xoshiro.int rng 10) in
    Hsq_workload.Oracle.add_batch oracle batch;
    ignore (E.ingest_batch eng batch)
  done;
  let tail = Array.init 500 (fun _ -> Hsq_util.Xoshiro.int rng 10) in
  Array.iter (fun v -> E.observe eng v; Hsq_workload.Oracle.add oracle v) tail;
  let m = E.stream_size eng in
  let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
  List.iter
    (fun phi ->
      let n = E.total_size eng in
      let r = int_of_float (ceil (phi *. float_of_int n)) in
      let v, _ = E.accurate eng ~rank:r in
      let err = Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v in
      Alcotest.(check bool)
        (Printf.sprintf "dup-heavy phi=%.2f err=%d <= %.1f" phi err bound)
        true
        (float_of_int err <= bound))
    [ 0.1; 0.5; 0.9 ]

let prop_accurate_bound_random_instances =
  QCheck.Test.make ~name:"accurate error bound on random instances" ~count:25
    QCheck.(triple (int_range 1 10) (int_range 10 300) (int_range 0 300))
    (fun (steps, step_size, tail) ->
      let seed = steps + (step_size * 7) + (tail * 13) in
      let eng, oracle =
        drive ~universe:5_000 ~config:(std_config ()) ~steps ~step_size ~tail ~seed ()
      in
      let n = E.total_size eng in
      let m = E.stream_size eng in
      let bound = Hsq.Errors.accurate_rank_bound ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m in
      List.for_all
        (fun phi ->
          let r = int_of_float (ceil (phi *. float_of_int n)) in
          let v, _ = E.accurate eng ~rank:r in
          float_of_int (Hsq_workload.Oracle.rank_error oracle ~rank:r ~value:v) <= bound)
        [ 0.1; 0.5; 0.9 ])

let () =
  Alcotest.run "engine"
    [
      ( "accuracy",
        [
          Alcotest.test_case "accurate bound (Lemma 5)" `Quick test_accurate_error_bound;
          Alcotest.test_case "error independent of history (Thm 2)" `Slow
            test_accurate_error_independent_of_history;
          Alcotest.test_case "quick bound (Lemma 3)" `Quick test_quick_error_bound;
          Alcotest.test_case "duplicate-heavy data" `Quick test_accuracy_on_duplicate_heavy_data;
          QCheck_alcotest.to_alcotest prop_accurate_bound_random_instances;
        ] );
      ( "cost",
        [
          Alcotest.test_case "quick is memory-only" `Quick test_quick_uses_no_disk;
          Alcotest.test_case "quick is quick_with_bound's value" `Quick
            test_quick_is_quick_with_bound;
          Alcotest.test_case "accurate io logarithmic" `Quick test_accurate_io_logarithmic;
          Alcotest.test_case "accurate read-count gate" `Quick test_accurate_read_count_gate;
          Alcotest.test_case "traced round reads sum to io" `Quick test_traced_round_reads;
          Alcotest.test_case "early decision matches exact ranks" `Quick
            test_early_decision_matches_exact_ranks;
          Alcotest.test_case "iterations within the midpoint bound" `Quick test_iteration_bound;
          Alcotest.test_case "full-range values" `Quick test_full_range_values;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "quantile + validation" `Quick test_quantile_definitions;
          Alcotest.test_case "stream-only" `Quick test_stream_only_queries;
          Alcotest.test_case "hist-only near-exact" `Quick test_hist_only_queries;
          Alcotest.test_case "empty raises" `Quick test_empty_engine_raises;
          Alcotest.test_case "rank clamping" `Quick test_rank_clamping;
          Alcotest.test_case "stream reset per step" `Quick test_stream_reset_on_step;
          Alcotest.test_case "rank_of" `Quick test_rank_of;
        ] );
      ( "windows",
        [
          Alcotest.test_case "window queries" `Quick test_window_queries;
          Alcotest.test_case "range queries" `Quick test_range_queries;
          Alcotest.test_case "all windows vs oracles" `Quick test_all_windows_match_oracles;
        ] );
      ( "retention",
        [ Alcotest.test_case "expire + persist end-to-end" `Quick test_expire_engine_end_to_end ] );
      ("memory mode", [ Alcotest.test_case "budget + accuracy" `Quick test_memory_mode_budget ]);
      ( "step commit",
        [
          Alcotest.test_case "partition = sorted step" `Quick test_step_commit_sorts_the_spool;
          Alcotest.test_case "failed load keeps the spool" `Quick test_failed_load_keeps_the_spool;
        ] );
      ("reads", [ Alcotest.test_case "reads leave the sketch" `Quick test_reads_leave_the_sketch ]);
    ]
