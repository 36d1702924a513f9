(* Tests for workload generators (Section 3.1 datasets), distributions,
   and the oracle / relative-error metric. *)

module D = Hsq_workload.Distribution
module DS = Hsq_workload.Datasets
module O = Hsq_workload.Oracle

let test_normal_moments () =
  let rng = Hsq_util.Xoshiro.create 91 in
  let n = 100_000 in
  let acc = Hsq_util.Stats.create () in
  for _ = 1 to n do
    Hsq_util.Stats.add acc (D.normal ~mean:100.0 ~stddev:15.0 rng)
  done;
  let s = Hsq_util.Stats.summary acc in
  Alcotest.(check bool) "mean" true (abs_float (s.Hsq_util.Stats.mean -. 100.0) < 0.5);
  Alcotest.(check bool) "stddev" true (abs_float (s.Hsq_util.Stats.stddev -. 15.0) < 0.5)

let test_uniform_range () =
  let rng = Hsq_util.Xoshiro.create 92 in
  for _ = 1 to 10_000 do
    let v = D.uniform_int ~lo:10 ~hi:20 rng in
    Alcotest.(check bool) "range" true (v >= 10 && v < 20)
  done

let test_pareto_heavy_tail () =
  let rng = Hsq_util.Xoshiro.create 93 in
  let n = 50_000 in
  let above = ref 0 in
  for _ = 1 to n do
    if D.pareto ~scale:1.0 ~shape:1.0 rng > 10.0 then incr above
  done;
  (* P(X > 10) = 1/10 for shape 1; expect about 5000. *)
  Alcotest.(check bool)
    (Printf.sprintf "tail mass %d" !above)
    true
    (!above > 4_000 && !above < 6_000)

let test_zipf_skew () =
  let rng = Hsq_util.Xoshiro.create 94 in
  let z = D.Zipf.create ~n:1000 ~s:1.0 in
  Alcotest.(check int) "size" 1000 (D.Zipf.size z);
  let counts = Array.make 1000 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = D.Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 should be roughly twice as frequent as rank 1. *)
  Alcotest.(check bool) "rank0 > rank1 > rank9" true (counts.(0) > counts.(1) && counts.(1) > counts.(9));
  let ratio = float_of_int counts.(0) /. float_of_int counts.(1) in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f ~ 2" ratio) true (ratio > 1.6 && ratio < 2.5)

let test_datasets_deterministic () =
  List.iter
    (fun name ->
      let a = DS.next_batch (DS.by_name ~seed:7 name) 500 in
      let b = DS.next_batch (DS.by_name ~seed:7 name) 500 in
      Alcotest.(check (array int)) (name ^ " deterministic") a b)
    DS.names

let test_datasets_respect_universe () =
  List.iter
    (fun name ->
      let ds = DS.by_name ~seed:8 name in
      let bound = 1 lsl DS.universe_bits ds in
      for _ = 1 to 5 do
        Array.iter
          (fun v ->
            if not (v >= 0 && v < bound) then
              Alcotest.failf "%s produced %d outside [0, 2^%d)" name v (DS.universe_bits ds))
          (DS.next_batch ds 2_000)
      done)
    DS.names

let test_dataset_shapes () =
  (* Normal concentrates around 1e8; wikipedia is heavy-tailed;
     network has few distinct values relative to volume. *)
  let normal = DS.next_batch (DS.normal ~seed:9) 20_000 in
  let within =
    Array.fold_left
      (fun acc v -> if abs (v - 100_000_000) < 30_000_000 then acc + 1 else acc)
      0 normal
  in
  Alcotest.(check bool) "normal concentrated" true (within > 19_800);
  let wiki = DS.next_batch (DS.wikipedia ~seed:9) 20_000 in
  let sorted = Array.copy wiki in
  Array.sort compare sorted;
  let median = sorted.(10_000) and p999 = sorted.(19_980) in
  Alcotest.(check bool)
    (Printf.sprintf "wiki heavy tail: p999=%d >> median=%d" p999 median)
    true
    (p999 > 20 * median);
  let net = DS.next_batch (DS.network ~seed:9) 20_000 in
  let distinct = List.length (List.sort_uniq compare (Array.to_list net)) in
  Alcotest.(check bool)
    (Printf.sprintf "network duplicate-heavy: %d distinct" distinct)
    true
    (distinct < 15_000)

let test_by_name_unknown () =
  Alcotest.check_raises "unknown" (Invalid_argument "Datasets.by_name: unknown dataset \"nope\"")
    (fun () -> ignore (DS.by_name ~seed:1 "nope"))

let test_oracle_rank_error_metric () =
  let o = O.create () in
  O.add_batch o [| 10; 20; 20; 30 |];
  (* value 20 answers ranks 2..3 *)
  Alcotest.(check int) "inside interval" 0 (O.rank_error o ~rank:2 ~value:20);
  Alcotest.(check int) "inside interval hi" 0 (O.rank_error o ~rank:3 ~value:20);
  Alcotest.(check int) "below" 1 (O.rank_error o ~rank:1 ~value:20);
  Alcotest.(check int) "above" 1 (O.rank_error o ~rank:4 ~value:20);
  (* value 25 (absent) answers rank 3 only *)
  Alcotest.(check int) "absent value ok" 0 (O.rank_error o ~rank:3 ~value:25);
  Alcotest.(check int) "absent value off" 1 (O.rank_error o ~rank:4 ~value:25);
  Alcotest.(check int) "quantile" 20 (O.quantile o 0.5);
  Alcotest.(check (float 1e-9)) "relative error" 0.5 (O.relative_error o ~phi:0.5 ~value:10)

(* The range ends are values like any other. *)
let test_oracle_rank_error_range_ends () =
  let o = O.create () in
  O.add_batch o [| min_int; min_int; 0; max_int; max_int |];
  Alcotest.(check int) "min_int answers rank 1" 0 (O.rank_error o ~rank:1 ~value:min_int);
  Alcotest.(check int) "min_int answers rank 2" 0 (O.rank_error o ~rank:2 ~value:min_int);
  Alcotest.(check int) "min_int off by one" 1 (O.rank_error o ~rank:3 ~value:min_int);
  Alcotest.(check int) "max_int answers rank 4" 0 (O.rank_error o ~rank:4 ~value:max_int);
  Alcotest.(check int) "max_int off by one" 1 (O.rank_error o ~rank:3 ~value:max_int)

let prop_oracle_quantile_matches_sorted =
  QCheck.Test.make ~name:"oracle quantile = Sorted.quantile" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 200) small_int) (int_range 1 100))
    (fun (l, p) ->
      let phi = float_of_int p /. 100.0 in
      let o = O.create () in
      List.iter (O.add o) l;
      let sorted = Array.of_list (List.sort compare l) in
      O.quantile o phi = Hsq_util.Sorted.quantile sorted phi)

let () =
  Alcotest.run "workload"
    [
      ( "distributions",
        [
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "uniform range" `Quick test_uniform_range;
          Alcotest.test_case "pareto tail" `Quick test_pareto_heavy_tail;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "deterministic" `Quick test_datasets_deterministic;
          Alcotest.test_case "universe bounds" `Quick test_datasets_respect_universe;
          Alcotest.test_case "distribution shapes" `Quick test_dataset_shapes;
          Alcotest.test_case "unknown name" `Quick test_by_name_unknown;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rank error metric" `Quick test_oracle_rank_error_metric;
          Alcotest.test_case "rank error at min_int and max_int" `Quick
            test_oracle_rank_error_range_ends;
          QCheck_alcotest.to_alcotest prop_oracle_quantile_matches_sorted;
        ] );
    ]
