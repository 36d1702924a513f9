(* Tests for the stream summary SS (Algorithm 4 / Lemma 1): entry i's
   true rank must lie in [i*eps2*m, (i+1)*eps2*m], SS[0] is the exact
   minimum, and the rank lower/upper/estimate helpers bracket truth. *)

module SS = Hsq.Stream_summary

let gk_for ~epsilon data =
  (* The engine builds GK at eps2/2; mirror that here. *)
  let gk = Hsq_sketch.Gk.create ~epsilon:(epsilon /. 2.0) in
  Array.iter (Hsq_sketch.Gk.insert gk) data;
  gk

let test_lemma1_interval () =
  let rng = Hsq_util.Xoshiro.create 51 in
  let m = 30_000 in
  let data = Array.init m (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
  let eps2 = 0.02 in
  let ss = SS.extract (gk_for ~epsilon:eps2 data) in
  Alcotest.(check (float 1e-9)) "eps2 recovered" eps2 (SS.eps2 ss);
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let spacing = eps2 *. float_of_int m in
  let ivals = SS.intervals ss in
  Array.iteri
    (fun i v ->
      (* The entry's true rank interval must intersect its stored
         guarantee, and the guarantee must be Lemma-1 narrow. *)
      let hi_rank = float_of_int (Hsq_util.Sorted.rank sorted v) in
      let lo_rank = float_of_int (Hsq_util.Sorted.rank_strict sorted v + 1) in
      let rlo, rhi = ivals.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "SS[%d]=%d rank [%.0f,%.0f] vs stored [%.0f,%.0f]" i v lo_rank hi_rank rlo
           rhi)
        true
        (hi_rank >= rlo && lo_rank <= rhi);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "SS[%d] window %.1f <= eps2*m+2" i (rhi -. rlo))
          true
          (rhi -. rlo <= spacing +. 2.0))
    (SS.values ss)

let test_ss0_is_min () =
  let data = [| 42; 7; 99; 13; 7; 1000 |] in
  let ss = SS.extract (gk_for ~epsilon:0.25 data) in
  Alcotest.(check int) "SS[0] = min" 7 (SS.values ss).(0)

let test_size_is_beta2 () =
  let eps2 = 0.125 in
  let data = Array.init 10_000 (fun i -> i) in
  let ss = SS.extract (gk_for ~epsilon:eps2 data) in
  Alcotest.(check int) "beta2 = ceil(1/eps2)+1" 9 (SS.size ss);
  Alcotest.(check int) "beta2 helper" 9 (SS.beta2 ~eps2)

let test_empty_stream () =
  let ss = SS.extract (Hsq_sketch.Gk.create ~epsilon:0.1) in
  Alcotest.(check int) "no values" 0 (SS.size ss);
  Alcotest.(check int) "m = 0" 0 (SS.stream_size ss);
  Alcotest.(check (float 0.0)) "lower" 0.0 (SS.rank_lower ss 5);
  Alcotest.(check (float 0.0)) "upper" 0.0 (SS.rank_upper ss 5);
  Alcotest.(check (float 0.0)) "estimate" 0.0 (SS.rank_estimate ss 5)

let test_bounds_bracket_truth () =
  let rng = Hsq_util.Xoshiro.create 52 in
  let m = 20_000 in
  let data = Array.init m (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
  let ss = SS.extract (gk_for ~epsilon:0.05 data) in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  List.iter
    (fun v ->
      let truth = float_of_int (Hsq_util.Sorted.rank sorted v) in
      let lo = SS.rank_lower ss v and hi = SS.rank_upper ss v in
      Alcotest.(check bool)
        (Printf.sprintf "rank(%d)=%.0f in [%.1f, %.1f]" v truth lo hi)
        true
        (lo <= truth && truth <= hi);
      (* estimate within eps2*m + spacing of truth *)
      let est = SS.rank_estimate ss v in
      Alcotest.(check bool) "estimate close" true
        (abs_float (est -. truth) <= 2.0 *. 0.05 *. float_of_int m))
    [ -1; 0; 50_000; 99_999; 100_001 ]

let test_below_min_is_zero () =
  let data = Array.init 1000 (fun i -> i + 100) in
  let ss = SS.extract (gk_for ~epsilon:0.1 data) in
  Alcotest.(check (float 0.0)) "below min lower" 0.0 (SS.rank_lower ss 50);
  Alcotest.(check (float 0.0)) "below min upper" 0.0 (SS.rank_upper ss 50);
  Alcotest.(check int) "count_le 0" 0 (SS.count_le ss 50)

let prop_bounds_bracket =
  QCheck.Test.make ~name:"SS rank bounds bracket truth on random streams" ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 500) (int_bound 2000)) (int_bound 2500))
    (fun (l, probe) ->
      let data = Array.of_list l in
      let ss = SS.extract (gk_for ~epsilon:0.1 data) in
      let sorted = Array.of_list (List.sort compare l) in
      let truth = float_of_int (Hsq_util.Sorted.rank sorted probe) in
      SS.rank_lower ss probe <= truth && truth <= SS.rank_upper ss probe)

let prop_values_sorted =
  QCheck.Test.make ~name:"SS values are non-decreasing" ~count:60
    QCheck.(list_of_size Gen.(1 -- 500) (int_bound 10_000))
    (fun l ->
      let ss = SS.extract (gk_for ~epsilon:0.08 (Array.of_list l)) in
      Hsq_util.Sorted.is_sorted (SS.values ss))

let () =
  Alcotest.run "stream_summary"
    [
      ( "lemma 1",
        [
          Alcotest.test_case "rank intervals" `Quick test_lemma1_interval;
          Alcotest.test_case "SS[0] exact min" `Quick test_ss0_is_min;
          Alcotest.test_case "beta2 sizing" `Quick test_size_is_beta2;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "bracket truth" `Quick test_bounds_bracket_truth;
          Alcotest.test_case "below min" `Quick test_below_min_is_zero;
          Alcotest.test_case "empty stream" `Quick test_empty_stream;
          QCheck_alcotest.to_alcotest prop_bounds_bracket;
          QCheck_alcotest.to_alcotest prop_values_sorted;
        ] );
    ]
