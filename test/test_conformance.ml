(* Statistical conformance suite: the paper's headline error bounds,
   checked end to end over adversarial workload shapes.

   For every (ε, workload) setting the suite drives an engine and an
   exact oracle through T archived time steps plus a live stream tail,
   then asserts at every decile and both tails (φ = 0.01, 0.99):

   - quick (Algorithm 5):    rank error ≤ ε·N + P + 2, where the P + 2
     term is the integer-rounding slack the summaries are allowed (one
     per partition summary plus the stream summary's two sides — the
     same slack Errors.summary_window charges). ε·N is the headline
     bound; the slack is a few units against bounds of hundreds.
   - accurate (Alg. 6–8):    rank error ≤ ε·m + 1 — proportional to the
     {e stream} only (Theorem 2), which is the paper's whole point.

   Workload shapes: uniform, sorted, reverse-sorted, Zipf-skewed and
   duplicate-heavy — sorted runs stress the partition summaries (every
   partition covers a narrow value band), skew/duplicates stress the
   rank-interval handling of repeated values.

   Inputs are QCheck-generated from a per-setting seed, so a failure
   reproduces exactly; there is no time- or PID-dependent state.

   Scaling: HSQ_CONFORMANCE_SCALE=<k> multiplies every step size and
   tail by k (the nightly job runs k > 1; the PR gate runs k = 1).

   Bound-sensitivity: the "checker has teeth" case feeds the checker a
   deliberately wrong answer and demands a violation, so a refactor
   that accidentally inflates the asserted bounds (or short-circuits
   the checker) fails the suite rather than passing vacuously. During
   development the suite was additionally mutation-checked: asserting
   the ε = 0.02 bounds against an engine built with ε = 0.1 fails, as
   does tightening either bound by 10×. *)

module E = Hsq.Engine
module Oracle = Hsq_workload.Oracle
module Gen = QCheck.Gen

let scale =
  match Sys.getenv_opt "HSQ_CONFORMANCE_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some k when k >= 1 -> k | _ -> 1)
  | None -> 1

let universe = 1_000_000

(* --- QCheck-generated workload shapes ----------------------------------- *)

let raw gen seed n =
  let rand = Random.State.make [| 0x5eed; seed |] in
  Array.init n (fun _ -> Gen.generate1 ~rand gen)

let uniform_gen = Gen.int_bound (universe - 1)

(* Zipf-like skew via inverse-CDF of a Pareto tail: mass piles up on
   small values with a long tail across the universe. *)
let zipf_gen =
  Gen.map
    (fun u ->
      let u = Float.max u 1e-9 in
      min (universe - 1) (int_of_float (1.0 /. (u ** 1.15))))
    (Gen.float_bound_inclusive 1.0)

(* Nine in ten elements from a ten-value domain: ties dominate. *)
let dup_heavy_gen =
  Gen.frequency [ (9, Gen.int_bound 9); (1, Gen.int_bound (universe - 1)) ]

let workloads =
  [
    ("uniform", fun seed n -> raw uniform_gen seed n);
    ( "sorted",
      fun seed n ->
        let a = raw uniform_gen (seed + 1) n in
        Array.sort compare a;
        a );
    ( "reverse-sorted",
      fun seed n ->
        let a = raw uniform_gen (seed + 2) n in
        Array.sort (fun x y -> compare y x) a;
        a );
    ("zipf", fun seed n -> raw zipf_gen (seed + 3) n);
    ("duplicate-heavy", fun seed n -> raw dup_heavy_gen (seed + 4) n);
  ]

(* --- harness ------------------------------------------------------------- *)

let phis = [ 0.01; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99 ]

type violation = { workload : string; phi : float; path : string; err : int; bound : float }

let pp_violation v =
  Printf.sprintf "%s phi=%.2f %s: rank error %d > bound %.1f" v.workload v.phi v.path v.err
    v.bound

(* Check one answer against its bound, as a reusable function so the
   teeth test below can exercise the same code path. *)
let check ~workload ~phi ~path ~err ~bound acc =
  if float_of_int err > bound then { workload; phi; path; err; bound } :: acc else acc

let run_workload ~eps ~steps ~step_size ~tail ~seed (wname, gen) =
  let data = gen seed ((steps * step_size) + tail) in
  let config =
    Hsq.Config.make ~kappa:4 ~block_size:64 ~steps_hint:steps (Hsq.Config.Epsilon eps)
  in
  let eng = E.create config in
  let oracle = Oracle.create () in
  let archived = steps * step_size in
  Array.iteri
    (fun i v ->
      E.observe eng v;
      Oracle.add oracle v;
      if i < archived && (i + 1) mod step_size = 0 then ignore (E.end_time_step eng))
    data;
  let n = E.total_size eng in
  let m = E.stream_size eng in
  Alcotest.(check int) (wname ^ ": oracle and engine sizes agree") (Array.length data) n;
  Alcotest.(check int) (wname ^ ": live tail is the stream") tail m;
  let parts = Hsq_hist.Level_index.partition_count (E.hist eng) in
  let quick_bound = (eps *. float_of_int n) +. float_of_int parts +. 2.0 in
  let acc_bound = (eps *. float_of_int m) +. 1.0 in
  let violations =
    List.fold_left
      (fun acc phi ->
        let rank = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
        let vq = E.quick eng ~rank in
        let va, _ = E.accurate eng ~rank in
        acc
        |> check ~workload:wname ~phi ~path:"quick"
             ~err:(Oracle.rank_error oracle ~rank ~value:vq)
             ~bound:quick_bound
        |> check ~workload:wname ~phi ~path:"accurate"
             ~err:(Oracle.rank_error oracle ~rank ~value:va)
             ~bound:acc_bound)
      [] phis
  in
  Hsq_storage.Block_device.close (E.device eng);
  violations

let run_setting ~eps ~steps ~step_size ~tail ~seed () =
  let violations =
    List.concat_map
      (fun w ->
        run_workload ~eps ~steps ~step_size:(step_size * scale) ~tail:(tail * scale)
          ~seed w)
      workloads
  in
  match violations with
  | [] -> ()
  | vs -> Alcotest.failf "%d bound violations:\n%s" (List.length vs)
            (String.concat "\n" (List.map pp_violation vs))

(* --- the checker itself must be able to fail ----------------------------- *)

let test_checker_has_teeth () =
  let eps = 0.05 and steps = 4 and step_size = 800 and tail = 600 in
  let _, gen = List.hd workloads in
  let data = gen 0xbad ((steps * step_size) + tail) in
  let oracle = Oracle.create () in
  Array.iter (Oracle.add oracle) data;
  let n = Array.length data in
  let rank = n / 2 in
  let acc_bound = (eps *. float_of_int tail) +. 1.0 in
  (* An answer displaced by 4x the bound must be flagged... *)
  let off = Oracle.select oracle (rank + (4 * int_of_float acc_bound)) in
  let flagged =
    check ~workload:"teeth" ~phi:0.5 ~path:"accurate"
      ~err:(Oracle.rank_error oracle ~rank ~value:off)
      ~bound:acc_bound []
  in
  Alcotest.(check int) "displaced answer violates the bound" 1 (List.length flagged);
  (* ...and the exact answer must not be. *)
  let ok =
    check ~workload:"teeth" ~phi:0.5 ~path:"accurate"
      ~err:(Oracle.rank_error oracle ~rank ~value:(Oracle.select oracle rank))
      ~bound:acc_bound []
  in
  Alcotest.(check int) "exact answer passes" 0 (List.length ok)

let () =
  Alcotest.run "conformance"
    [
      ( "error bounds",
        [
          Alcotest.test_case "eps=0.05 mid-size" `Quick
            (run_setting ~eps:0.05 ~steps:8 ~step_size:1_200 ~tail:900 ~seed:11);
          Alcotest.test_case "eps=0.02 tight" `Quick
            (run_setting ~eps:0.02 ~steps:12 ~step_size:2_500 ~tail:1_600 ~seed:23);
          Alcotest.test_case "eps=0.1 coarse" `Quick
            (run_setting ~eps:0.1 ~steps:5 ~step_size:700 ~tail:400 ~seed:37);
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "checker has teeth" `Quick test_checker_has_teeth;
        ] );
    ]
