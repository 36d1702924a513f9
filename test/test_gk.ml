(* Tests for the Greenwald-Khanna sketch: the eps*n rank guarantee on
   adversarial and random streams, exact min/max, capped-memory mode. *)

open Hsq_sketch

(* Rank error of answering rank [r] with value [v] against the sorted
   ground truth: distance from r to [ |{x < v}| + 1, |{x <= v}| ]. *)
let rank_error sorted ~rank ~value =
  let upper = Hsq_util.Sorted.rank sorted value in
  let lower = min upper (Hsq_util.Sorted.rank_strict sorted value + 1) in
  if rank < lower then lower - rank else if rank > upper then rank - upper else 0

let max_error_over_all_ranks gk sorted =
  let n = Array.length sorted in
  let worst = ref 0 in
  for r = 1 to n do
    let v = Gk.query_rank gk r in
    let e = rank_error sorted ~rank:r ~value:v in
    if e > !worst then worst := e
  done;
  !worst

let feed epsilon data =
  let gk = Gk.create ~epsilon in
  Array.iter (Gk.insert gk) data;
  gk

let check_error_bound ~epsilon data =
  let gk = feed epsilon data in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let bound = int_of_float (ceil (epsilon *. float_of_int (Array.length data))) in
  let worst = max_error_over_all_ranks gk sorted in
  Alcotest.(check bool)
    (Printf.sprintf "worst error %d <= bound %d" worst bound)
    true (worst <= bound)

let test_random_stream () =
  let rng = Hsq_util.Xoshiro.create 1 in
  check_error_bound ~epsilon:0.02 (Array.init 20_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000))

let test_sorted_stream () = check_error_bound ~epsilon:0.02 (Array.init 20_000 (fun i -> i))

let test_reverse_sorted_stream () =
  check_error_bound ~epsilon:0.02 (Array.init 20_000 (fun i -> 20_000 - i))

let test_constant_stream () = check_error_bound ~epsilon:0.05 (Array.make 10_000 42)

let test_two_values () =
  check_error_bound ~epsilon:0.05 (Array.init 10_000 (fun i -> i mod 2))

let test_small_streams () =
  List.iter
    (fun n -> check_error_bound ~epsilon:0.1 (Array.init n (fun i -> (i * 7919) mod 101)))
    [ 1; 2; 3; 5; 10; 17 ]

let test_min_max_exact () =
  let rng = Hsq_util.Xoshiro.create 4 in
  let data = Array.init 5_000 (fun _ -> 10 + Hsq_util.Xoshiro.int rng 1_000_000) in
  let gk = feed 0.01 data in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  Alcotest.(check int) "min exact" sorted.(0) (Gk.min_value gk);
  Alcotest.(check int) "max exact" sorted.(Array.length sorted - 1) (Gk.max_value gk);
  Alcotest.(check int) "rank 1 returns min" sorted.(0) (Gk.query_rank gk 1)

let test_space_logarithmic () =
  (* O((1/eps) log(eps n)) tuples; generous constant of 20/eps. *)
  let rng = Hsq_util.Xoshiro.create 5 in
  let gk = Gk.create ~epsilon:0.01 in
  for _ = 1 to 200_000 do
    Gk.insert gk (Hsq_util.Xoshiro.int rng max_int)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "size %d within 20/eps" (Gk.size gk))
    true
    (Gk.size gk <= 2000)

let test_invariant_holds () =
  (* g + delta <= floor(2 eps n) for every live tuple (GK's invariant). *)
  let rng = Hsq_util.Xoshiro.create 6 in
  let gk = Gk.create ~epsilon:0.05 in
  for _ = 1 to 5_000 do
    Gk.insert gk (Hsq_util.Xoshiro.int rng 1000)
  done;
  let n = Gk.count gk in
  let thr = int_of_float (2.0 *. 0.05 *. float_of_int n) in
  List.iter
    (fun (_, rmin, rmax) ->
      Alcotest.(check bool) "tuple within invariant" true (rmax - rmin <= thr))
    (Gk.dump gk);
  (* rmin of last tuple equals n *)
  let last = List.nth (Gk.dump gk) (List.length (Gk.dump gk) - 1) in
  let _, _, rmax_last = last in
  Alcotest.(check int) "last rmax = n" n rmax_last

(* --- sorted hand-offs (insert_sorted_batch) ------------------------------ *)

(* GK's invariant g + delta <= floor(2 eps n) on every live tuple,
   with g recovered from consecutive rmin values.  Until 2 eps n
   reaches 1 the floor is 0 and a tuple is a single exact element
   (g = 1, delta = 0). *)
let check_invariant ~what gk =
  let thr = max 1 (int_of_float (2.0 *. Gk.epsilon gk *. float_of_int (Gk.count gk))) in
  ignore
    (List.fold_left
       (fun prev_rmin (_, rmin, rmax) ->
         let g = rmin - prev_rmin and delta = rmax - rmin in
         if g + delta > thr then
           Alcotest.failf "%s: tuple with g=%d delta=%d over max(1, floor(2 eps n))=%d" what g
             delta thr;
         rmin)
       0 (Gk.dump gk))

(* A stream handed off in sorted runs of [batch] elements: after every
   hand-off the invariant holds and a second compress removes nothing;
   at the end every rank is answered within eps n of an exact oracle.
   With eps = 0.01, 1/(2 eps) = 50 sits between the batch sizes. *)
let check_handoffs ~batch =
  let epsilon = 0.01 in
  let rng = Hsq_util.Xoshiro.create (100 + batch) in
  let gk = Gk.create ~epsilon in
  let all = ref [] in
  for i = 1 to 6_000 / batch do
    let run = Array.init batch (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
    Array.sort compare run;
    Gk.insert_sorted_batch gk run;
    all := run :: !all;
    let what = Printf.sprintf "batch %d, hand-off %d" batch i in
    check_invariant ~what gk;
    let size = Gk.size gk in
    Gk.compress gk;
    Alcotest.(check int) (what ^ ": a second compress removes nothing") size (Gk.size gk)
  done;
  let sorted = Array.concat !all in
  Array.sort compare sorted;
  Alcotest.(check int) "count" (Array.length sorted) (Gk.count gk);
  let bound = int_of_float (ceil (epsilon *. float_of_int (Array.length sorted))) in
  let worst = max_error_over_all_ranks gk sorted in
  Alcotest.(check bool)
    (Printf.sprintf "batch %d: worst error %d <= eps n = %d" batch worst bound)
    true (worst <= bound)

let test_handoff_single () = check_handoffs ~batch:1
let test_handoff_short () = check_handoffs ~batch:20
let test_handoff_long () = check_handoffs ~batch:512

let test_empty_raises () =
  let gk = Gk.create ~epsilon:0.1 in
  Alcotest.check_raises "empty query" (Invalid_argument "Gk.query_rank: empty sketch") (fun () ->
      ignore (Gk.query_rank gk 1))

let test_bad_epsilon () =
  Alcotest.check_raises "eps 0" (Invalid_argument "Gk.create: epsilon not in (0,1)") (fun () ->
      ignore (Gk.create ~epsilon:0.0))

let test_capped_budget_respected () =
  let rng = Hsq_util.Xoshiro.create 7 in
  let words = 600 in
  let gk = Gk.create_capped ~words in
  for i = 1 to 100_000 do
    Gk.insert gk (Hsq_util.Xoshiro.int rng max_int);
    if i mod 9_973 = 0 then
      Alcotest.(check bool) "budget held mid-stream" true (Gk.memory_words gk <= words)
  done;
  Alcotest.(check bool) "budget held at end" true (Gk.memory_words gk <= words)

let test_capped_error_tracks_effective_epsilon () =
  let rng = Hsq_util.Xoshiro.create 8 in
  let data = Array.init 50_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
  let gk = Gk.create_capped ~words:2_000 in
  Array.iter (Gk.insert gk) data;
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let bound = int_of_float (ceil (Gk.epsilon gk *. float_of_int (Array.length data))) in
  let worst = max_error_over_all_ranks gk sorted in
  Alcotest.(check bool)
    (Printf.sprintf "capped worst %d <= eps_eff bound %d" worst bound)
    true (worst <= bound)

let test_rank_of_consistency () =
  let data = Array.init 10_000 (fun i -> i) in
  let gk = feed 0.02 data in
  List.iter
    (fun v ->
      let est = Gk.rank_of gk v in
      Alcotest.(check bool)
        (Printf.sprintf "rank_of %d ~ %d (est %d)" v (v + 1) est)
        true
        (abs (est - (v + 1)) <= 400 (* 2 eps n *)))
    [ 0; 100; 5000; 9999 ]

(* Property: the eps bound holds for arbitrary small random streams. *)
let prop_error_bound =
  QCheck.Test.make ~name:"GK eps*n bound on random streams" ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 400) (int_bound 1000)) (int_range 1 20))
    (fun (l, e10) ->
      let epsilon = float_of_int e10 /. 100.0 in
      let data = Array.of_list l in
      let gk = feed epsilon data in
      let sorted = Array.copy data in
      Array.sort compare sorted;
      let bound = int_of_float (ceil (epsilon *. float_of_int (Array.length data))) in
      max_error_over_all_ranks gk sorted <= bound)

let prop_monotone_queries =
  QCheck.Test.make ~name:"GK query_rank monotone in rank" ~count:50
    QCheck.(list_of_size Gen.(2 -- 300) (int_bound 10_000))
    (fun l ->
      let gk = feed 0.05 (Array.of_list l) in
      let n = List.length l in
      let prev = ref min_int in
      let ok = ref true in
      for r = 1 to n do
        let v = Gk.query_rank gk r in
        if v < !prev then ok := false;
        prev := v
      done;
      !ok)

(* --- Mergeability ------------------------------------------------------ *)

let check_merge_bound ~eps_a ~eps_b data_a data_b =
  let a = feed eps_a data_a and b = feed eps_b data_b in
  let merged = Gk.merge a b in
  Alcotest.(check int) "count" (Array.length data_a + Array.length data_b) (Gk.count merged);
  let union = Array.append data_a data_b in
  Array.sort compare union;
  let bound =
    int_of_float
      (ceil
         ((eps_a *. float_of_int (Array.length data_a))
         +. (eps_b *. float_of_int (Array.length data_b))))
    + 2
  in
  let n = Array.length union in
  for r = 1 to n do
    if r mod 13 = 0 || r = 1 || r = n then begin
      let v = Gk.query_rank merged r in
      let e = rank_error union ~rank:r ~value:v in
      if e > bound then Alcotest.failf "merged rank %d: error %d > additive bound %d" r e bound
    end
  done

let test_merge_same_epsilon () =
  let rng = Hsq_util.Xoshiro.create 11 in
  check_merge_bound ~eps_a:0.02 ~eps_b:0.02
    (Array.init 10_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000))
    (Array.init 15_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000))

let test_merge_disjoint_ranges () =
  (* A holds small values, B large: the merge must stitch them. *)
  check_merge_bound ~eps_a:0.05 ~eps_b:0.05
    (Array.init 5_000 (fun i -> i))
    (Array.init 5_000 (fun i -> 1_000_000 + i))

let test_merge_mixed_epsilons_and_sizes () =
  let rng = Hsq_util.Xoshiro.create 12 in
  check_merge_bound ~eps_a:0.01 ~eps_b:0.1
    (Array.init 20_000 (fun _ -> Hsq_util.Xoshiro.int rng 50_000))
    (Array.init 500 (fun _ -> Hsq_util.Xoshiro.int rng 50_000))

let test_merge_with_empty () =
  let a = feed 0.05 (Array.init 1_000 (fun i -> i)) in
  let empty = Gk.create ~epsilon:0.05 in
  let m1 = Gk.merge a empty and m2 = Gk.merge empty a in
  Alcotest.(check int) "a + empty count" 1_000 (Gk.count m1);
  Alcotest.(check int) "empty + a count" 1_000 (Gk.count m2);
  Alcotest.(check int) "median survives" (Gk.query_rank a 500) (Gk.query_rank m1 500)

let test_merge_preserves_extremes () =
  let a = feed 0.05 [| 5; 100; 7 |] and b = feed 0.05 [| 1; 1_000 |] in
  let m = Gk.merge a b in
  Alcotest.(check int) "min" 1 (Gk.min_value m);
  Alcotest.(check int) "max" 1_000 (Gk.max_value m)

let test_merge_rejects_capped () =
  let a = Gk.create_capped ~words:200 and b = Gk.create ~epsilon:0.1 in
  Gk.insert a 1;
  Gk.insert b 2;
  Alcotest.check_raises "capped rejected"
    (Invalid_argument "Gk.merge: only fixed-epsilon sketches are mergeable") (fun () ->
      ignore (Gk.merge a b))

let prop_merge_bound =
  QCheck.Test.make ~name:"GK merge additive error bound" ~count:40
    QCheck.(pair (list_of_size Gen.(1 -- 300) (int_bound 5_000)) (list_of_size Gen.(1 -- 300) (int_bound 5_000)))
    (fun (la, lb) ->
      let a = feed 0.05 (Array.of_list la) and b = feed 0.05 (Array.of_list lb) in
      let merged = Gk.merge a b in
      let union = Array.of_list (List.sort compare (la @ lb)) in
      let n = Array.length union in
      let bound =
        int_of_float (ceil (0.05 *. float_of_int n)) + 2
      in
      let ok = ref true in
      for r = 1 to n do
        let v = Gk.query_rank merged r in
        if rank_error union ~rank:r ~value:v > bound then ok := false
      done;
      !ok)

let () =
  Alcotest.run "gk"
    [
      ( "error bound",
        [
          Alcotest.test_case "random stream" `Quick test_random_stream;
          Alcotest.test_case "sorted stream" `Quick test_sorted_stream;
          Alcotest.test_case "reverse sorted" `Quick test_reverse_sorted_stream;
          Alcotest.test_case "constant stream" `Quick test_constant_stream;
          Alcotest.test_case "two values" `Quick test_two_values;
          Alcotest.test_case "small streams" `Quick test_small_streams;
          QCheck_alcotest.to_alcotest prop_error_bound;
        ] );
      ( "structure",
        [
          Alcotest.test_case "min/max exact" `Quick test_min_max_exact;
          Alcotest.test_case "space logarithmic" `Slow test_space_logarithmic;
          Alcotest.test_case "g+delta invariant" `Quick test_invariant_holds;
          Alcotest.test_case "hand-offs of 1" `Quick test_handoff_single;
          Alcotest.test_case "hand-offs below 1/(2 eps)" `Quick test_handoff_short;
          Alcotest.test_case "hand-offs above 1/(2 eps)" `Quick test_handoff_long;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "bad epsilon" `Quick test_bad_epsilon;
          Alcotest.test_case "rank_of" `Quick test_rank_of_consistency;
          QCheck_alcotest.to_alcotest prop_monotone_queries;
        ] );
      ( "merge",
        [
          Alcotest.test_case "same epsilon" `Quick test_merge_same_epsilon;
          Alcotest.test_case "disjoint ranges" `Quick test_merge_disjoint_ranges;
          Alcotest.test_case "mixed eps and sizes" `Quick test_merge_mixed_epsilons_and_sizes;
          Alcotest.test_case "empty sides" `Quick test_merge_with_empty;
          Alcotest.test_case "extremes preserved" `Quick test_merge_preserves_extremes;
          Alcotest.test_case "capped rejected" `Quick test_merge_rejects_capped;
          QCheck_alcotest.to_alcotest prop_merge_bound;
        ] );
      ( "capped",
        [
          Alcotest.test_case "budget respected" `Quick test_capped_budget_respected;
          Alcotest.test_case "error tracks eps_eff" `Quick test_capped_error_tracks_effective_epsilon;
        ] );
    ]
