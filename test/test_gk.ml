(* Tests for the Greenwald-Khanna sketch: the eps*n rank guarantee on
   adversarial and random streams, exact min/max, capped-memory mode,
   merges, and copies. *)

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

(* What two sketches must share to be the same sketch: count, epsilon
   and live tuples. *)
let image gk = (Gk.count gk, Gk.epsilon gk, Gk.dump gk)

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

(* --- batched rank queries ------------------------------------------------ *)

(* [query_rank]'s rule read straight off [dump]: the first tuple whose
   rmin reaches r - eps*n, else the last tuple. *)
let reference_query gk r =
  let n = Gk.count gk in
  let r = max 1 (min n r) in
  let lo = float_of_int r -. (Gk.epsilon gk *. float_of_int n) in
  let tuples = Array.of_list (Gk.dump gk) in
  let last = Array.length tuples - 1 in
  let rec go i =
    let v, rmin, _ = tuples.(i) in
    if i = last || float_of_int rmin >= lo then v else go (i + 1)
  in
  go 0

(* A random sketch of one of three shapes — uniform values, heavy
   duplicates, or a memory-capped sketch whose ε has grown — fed by a
   mix of single inserts and sorted batch hand-offs. *)
let random_sketch seed =
  let rng = Hsq_util.Xoshiro.create seed in
  let int = Hsq_util.Xoshiro.int rng in
  let shape = seed mod 3 in
  let gk =
    if shape = 2 then Gk.create_capped ~words:(32 + int 200)
    else Gk.create ~epsilon:(0.002 +. (float_of_int (int 100) /. 1000.0))
  in
  let draw () = if shape = 1 then int 8 else int 1_000_000 in
  let n = 1 + int 6_000 in
  let fed = ref 0 in
  while !fed < n do
    let k = min (n - !fed) (1 + int 600) in
    if int 2 = 0 then for _ = 1 to k do Gk.insert gk (draw ()) done
    else begin
      let b = Array.init k (fun _ -> draw ()) in
      Array.sort compare b;
      Gk.insert_sorted_batch gk b
    end;
    fed := !fed + k
  done;
  gk

let prop_query_ranks_reference =
  QCheck.Test.make ~name:"query_ranks matches the tuple reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let gk = random_sketch seed in
      let n = Gk.count gk in
      let rng = Hsq_util.Xoshiro.create (seed + 7) in
      let ranks =
        Array.init (Hsq_util.Xoshiro.int rng 500) (fun _ -> Hsq_util.Xoshiro.int rng (n + 7) - 3)
      in
      Array.sort compare ranks;
      let every = Array.init (n + 2) Fun.id in
      List.for_all
        (fun rs -> Gk.query_ranks gk rs = Array.map (reference_query gk) rs)
        [ ranks; every; [||] ])

let test_query_ranks_rejects () =
  Alcotest.check_raises "empty sketch" (Invalid_argument "Gk.query_ranks: empty sketch") (fun () ->
      ignore (Gk.query_ranks (Gk.create ~epsilon:0.1) [| 1 |]));
  let gk = feed 0.05 (Array.init 100 Fun.id) in
  Alcotest.check_raises "decreasing ranks" (Invalid_argument "Gk.query_ranks: ranks decrease")
    (fun () -> ignore (Gk.query_ranks gk [| 5; 9; 4 |]))

(* --- merge fuzz ----------------------------------------------------------- *)

(* Seeded three-way merges over random, sorted, duplicate-heavy and
   reverse streams at a random epsilon: every merge order conserves the
   count and the tuple weights, answers every rank within the additive
   bound eps_A n_A + eps_B n_B (+ 2 per merge, as above), and leaves its
   inputs untouched. *)

let gen_stream rng len =
  let shape = Hsq_util.Xoshiro.int rng 4 in
  Array.init len (fun i ->
      match shape with
      | 0 -> Hsq_util.Xoshiro.int rng 1_000_000
      | 1 -> i
      | 2 -> Hsq_util.Xoshiro.int rng 30
      | _ -> 1_000_000 - i)

let all_ranks gk = Array.init (Gk.count gk) (fun i -> i + 1)

let check_merged_within ~merges merged data what =
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let n = Array.length data in
  Alcotest.(check int) (what ^ " count") n (Gk.count merged);
  let last_rmin = List.fold_left (fun _ (_, rmin, _) -> rmin) 0 (Gk.dump merged) in
  Alcotest.(check int) (what ^ " tuple weights sum to the count") n last_rmin;
  let bound = int_of_float (ceil (Gk.error_bound merged *. float_of_int n)) + (2 * merges) in
  Array.iteri
    (fun i v ->
      let e = rank_error sorted ~rank:(i + 1) ~value:v in
      if e > bound then
        Alcotest.failf "%s: rank %d error %d above bound %d (n=%d)" what (i + 1) e bound n)
    (Gk.query_ranks merged (all_ranks merged))

let run_merge_seed seed =
  let rng = Hsq_util.Xoshiro.create (0x5eed + (seed * 7919)) in
  let eps = 0.01 +. (0.04 *. Hsq_util.Xoshiro.float rng) in
  let sa = gen_stream rng (100 + Hsq_util.Xoshiro.int rng 20_000) in
  let sb = gen_stream rng (100 + Hsq_util.Xoshiro.int rng 8_000) in
  let sc = gen_stream rng (100 + Hsq_util.Xoshiro.int rng 8_000) in
  let a = feed eps sa and b = feed eps sb and c = feed eps sc in
  let image_a = image a in
  let ab = Gk.merge a b in
  let sab = Array.append sa sb and union = Array.concat [ sa; sb; sc ] in
  check_merged_within ~merges:1 ab sab "merge(a,b)";
  check_merged_within ~merges:1 (Gk.merge b a) sab "merge(b,a)";
  check_merged_within ~merges:2 (Gk.merge ab c) union "merge(merge(a,b),c)";
  check_merged_within ~merges:2 (Gk.merge a (Gk.merge b c)) union "merge(a,merge(b,c))";
  Alcotest.(check bool) "input a unchanged by merges" true (image a = image_a)

let merge_cases =
  List.init 12 (fun i ->
      let seed = 2_000 + (i * 13) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run_merge_seed seed))

let test_merge_empty () =
  let data = Array.init 1_000 (fun i -> i) in
  let a = feed 0.02 data and e = Gk.create ~epsilon:0.02 in
  check_merged_within ~merges:1 (Gk.merge a e) data "merge with empty";
  check_merged_within ~merges:1 (Gk.merge e a) data "empty merge";
  let both = Gk.merge e (Gk.create ~epsilon:0.02) in
  Alcotest.(check int) "empty with empty" 0 (Gk.count both)

(* --- copies ---------------------------------------------------------------- *)

(* A copy is behaviourally the sketch it was taken of: it holds the same
   tuples, answers every rank identically and, after both ingest the
   same suffix, is still identical.  Seeds mix fixed and capped
   sketches, per-element and sorted-batch ingest. *)

let ingest rng gk ~batched data =
  if batched then begin
    let i = ref 0 in
    while !i < Array.length data do
      let k = min (Array.length data - !i) (1 + Hsq_util.Xoshiro.int rng 700) in
      let run = Array.sub data !i k in
      Array.sort compare run;
      Gk.insert_sorted_batch gk run;
      i := !i + k
    done
  end
  else Array.iter (Gk.insert gk) data

let check_same_answers what a b =
  Alcotest.(check int) (what ^ " count") (Gk.count a) (Gk.count b);
  Alcotest.(check (array int)) (what ^ " answers")
    (Gk.query_ranks a (all_ranks a))
    (Gk.query_ranks b (all_ranks b))

let run_round_trip_seed seed =
  let rng = Hsq_util.Xoshiro.create (0xCAFE + (seed * 31)) in
  let gk =
    if Hsq_util.Xoshiro.int rng 3 = 0 then Gk.create_capped ~words:(300 + Hsq_util.Xoshiro.int rng 900)
    else Gk.create ~epsilon:(0.01 +. (0.05 *. Hsq_util.Xoshiro.float rng))
  in
  let batched = Hsq_util.Xoshiro.int rng 2 = 0 in
  ingest rng gk ~batched (gen_stream rng (50 + Hsq_util.Xoshiro.int rng 25_000));
  let restored = Gk.copy gk in
  Alcotest.(check bool) "the copy holds the same tuples" true (image restored = image gk);
  check_same_answers "restored" gk restored;
  Alcotest.(check int) "min" (Gk.min_value gk) (Gk.min_value restored);
  Alcotest.(check int) "max" (Gk.max_value gk) (Gk.max_value restored);
  let suffix = gen_stream rng (100 + Hsq_util.Xoshiro.int rng 5_000) in
  let rng_a = Hsq_util.Xoshiro.create seed and rng_b = Hsq_util.Xoshiro.create seed in
  ingest rng_a gk ~batched suffix;
  ingest rng_b restored ~batched suffix;
  Alcotest.(check bool)
    "post-suffix images identical" true
    (image gk = image restored);
  check_same_answers "post-suffix" gk restored

let round_trip_cases =
  List.init 12 (fun i ->
      let seed = 4_000 + (i * 17) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
          run_round_trip_seed seed))

(* A copy taken in the middle of a capped stream (its epsilon already
   coarsened) replays a batched suffix exactly as the original does, and
   inserts into a copy leave its source unchanged. *)
let test_copy_replays () =
  let gk = Gk.create_capped ~words:400 in
  Array.iter (Gk.insert gk) (Array.init 20_000 (fun i -> (i * 31) mod 4_096));
  let copies = [ ("copy", Gk.copy gk) ] in
  let before = Gk.copy gk in
  List.iter
    (fun (how, dup) ->
      Alcotest.(check (float 0.0)) (how ^ ": epsilon travels") (Gk.epsilon gk) (Gk.epsilon dup))
    copies;
  for b = 0 to 9 do
    let run = Array.init 500 (fun i -> ((b * 500) + i) * 17 mod 9_001) in
    Array.sort compare run;
    Gk.insert_sorted_batch gk run;
    List.iter (fun (_, dup) -> Gk.insert_sorted_batch dup run) copies
  done;
  let after = image gk in
  List.iter
    (fun (how, dup) ->
      Alcotest.(check bool) (how ^ ": copy replays the original") true (after = image dup);
      Alcotest.(check bool)
        (Printf.sprintf "%s: copy within budget (%d words)" how (Gk.memory_words dup))
        true
        (Gk.memory_words dup <= 400))
    copies;
  let source = image before in
  Gk.insert_sorted_batch (Gk.copy before) [| 1; 2; 3 |];
  Alcotest.(check bool) "inserts into a copy leave its source" true (image before = source)

(* --- tuple-list reference ------------------------------------------------- *)

(* The sketch as it was kept before its tuples went flat: an array of
   boxed (value, g, delta) records, compressed by building a list right
   to left and copying it back.  The flat arrays must make the same
   merges, so every hand-off sequence leaves both with the same tuples,
   count, epsilon and footprint. *)
module Reference = struct
  type tuple = { value : int; g : int; delta : int }
  type mode = Fixed | Capped of int

  type t = {
    mutable tuples : tuple array;
    mutable size : int;
    mutable n : int;
    mutable epsilon : float;
    mode : mode;
    mutable since_compress : int;
  }

  let dummy = { value = 0; g = 0; delta = 0 }

  let create ~epsilon =
    { tuples = Array.make 16 dummy; size = 0; n = 0; epsilon; mode = Fixed; since_compress = 0 }

  let header_words = 8
  let words_per_tuple = 3

  let create_capped ~words =
    let max_tuples = (words - header_words) / words_per_tuple in
    {
      tuples = Array.make 16 dummy;
      size = 0;
      n = 0;
      epsilon = 1.0 /. (2.0 *. float_of_int max_tuples);
      mode = Capped words;
      since_compress = 0;
    }

  let copy t = { t with tuples = Array.copy t.tuples }
  let memory_words t = header_words + (words_per_tuple * t.size)
  let threshold t = int_of_float (2.0 *. t.epsilon *. float_of_int t.n)

  let compress t =
    if t.size > 2 then begin
      let thr = threshold t in
      let merged = ref [ t.tuples.(t.size - 1) ] in
      for i = t.size - 2 downto 1 do
        match !merged with
        | succ :: rest when t.tuples.(i).g + succ.g + succ.delta <= thr ->
          merged := { succ with g = succ.g + t.tuples.(i).g } :: rest
        | acc -> merged := t.tuples.(i) :: acc
      done;
      merged := t.tuples.(0) :: !merged;
      let new_size = List.length !merged in
      List.iteri (fun i tu -> t.tuples.(i) <- tu) !merged;
      t.size <- new_size;
      t.since_compress <- 0
    end

  let enforce_budget t =
    match t.mode with
    | Fixed -> ()
    | Capped words ->
      let attempts = ref 0 in
      while memory_words t > words && !attempts < 128 do
        t.epsilon <- t.epsilon *. 1.5;
        if t.epsilon > 0.5 then t.epsilon <- 0.5;
        compress t;
        incr attempts
      done

  let upper_bound t v =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.tuples.(mid).value <= v then go (mid + 1) hi else go lo mid
    in
    go 0 t.size

  let insert_at t i tu =
    if t.size = Array.length t.tuples then begin
      let bigger = Array.make (2 * t.size) dummy in
      Array.blit t.tuples 0 bigger 0 t.size;
      t.tuples <- bigger
    end;
    Array.blit t.tuples i t.tuples (i + 1) (t.size - i);
    t.tuples.(i) <- tu;
    t.size <- t.size + 1

  let insert t v =
    let i = upper_bound t v in
    let delta = if i = 0 || i = t.size then 0 else max 0 (threshold t - 1) in
    insert_at t i { value = v; g = 1; delta };
    t.n <- t.n + 1;
    t.since_compress <- t.since_compress + 1;
    let period = max 1 (int_of_float (1.0 /. (2.0 *. t.epsilon))) in
    if t.since_compress >= period then begin
      compress t;
      enforce_budget t
    end
    else
      match t.mode with
      | Capped words when memory_words t > words ->
        compress t;
        enforce_budget t
      | Fixed | Capped _ -> ()

  let insert_sorted_batch t b =
    let k = Array.length b in
    if k > 0 then begin
      let old_size = t.size in
      let new_n = t.n + k in
      let thr = int_of_float (2.0 *. t.epsilon *. float_of_int new_n) in
      let interior_delta = max 0 (thr - 1) in
      let needed = old_size + k in
      if needed > Array.length t.tuples then begin
        let cap = ref (max 16 (Array.length t.tuples)) in
        while !cap < needed do
          cap := 2 * !cap
        done;
        let bigger = Array.make !cap dummy in
        Array.blit t.tuples 0 bigger 0 old_size;
        t.tuples <- bigger
      end;
      let old_min = if old_size = 0 then max_int else t.tuples.(0).value in
      let old_max = if old_size = 0 then min_int else t.tuples.(old_size - 1).value in
      let i = ref (old_size - 1) and j = ref (k - 1) in
      let pos = ref (needed - 1) in
      while !j >= 0 do
        if !i >= 0 && t.tuples.(!i).value > b.(!j) then begin
          t.tuples.(!pos) <- t.tuples.(!i);
          decr i
        end
        else begin
          let v = b.(!j) in
          let delta =
            if old_size = 0 then 0 else if v >= old_max || v < old_min then 0 else interior_delta
          in
          t.tuples.(!pos) <- { value = v; g = 1; delta };
          decr j
        end;
        decr pos
      done;
      t.size <- needed;
      t.n <- new_n;
      compress t;
      enforce_budget t
    end

  let dump t =
    let rmin = ref 0 in
    List.init t.size (fun i ->
        rmin := !rmin + t.tuples.(i).g;
        (t.tuples.(i).value, !rmin, !rmin + t.tuples.(i).delta))
end

type ref_op = Batch of int array | Insert of int | Copy

let ref_op_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [ (6, int_range (-40) 40); (2, int_bound 1_000_000); (1, return min_int); (1, return max_int) ]
  in
  let batch =
    map
      (fun l ->
        let a = Array.of_list l in
        Array.sort compare a;
        Batch a)
      (list_size (1 -- 600) value)
  in
  frequency [ (5, batch); (3, map (fun v -> Insert v) value); (1, return Copy) ]

let ref_mode_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun e -> `Fixed e) (oneofl [ 0.001; 0.01; 0.05; 0.2 ]);
      map (fun w -> `Capped w) (oneofl [ 32; 60; 200; 600 ]);
    ]

let print_ref_case (mode, ops) =
  Printf.sprintf "%s, ops [%s]"
    (match mode with
    | `Fixed e -> Printf.sprintf "Fixed %g" e
    | `Capped w -> Printf.sprintf "Capped %d" w)
    (String.concat "; "
       (List.map
          (function
            | Batch a -> Printf.sprintf "Batch(%d)" (Array.length a)
            | Insert v -> Printf.sprintf "Insert %d" v
            | Copy -> "Copy")
          ops))

(* Random hand-off sequences through both sketches, continuing on a
   copy wherever the sequence says so; after every step both must agree
   on the tuples, the count, the size, epsilon (bit for bit) and the
   footprint. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"flat tuples match the tuple-list reference" ~count:200
    (QCheck.make ~print:print_ref_case
       QCheck.Gen.(pair ref_mode_gen (list_size (1 -- 25) ref_op_gen)))
    (fun (mode, ops) ->
      let gk, r =
        match mode with
        | `Fixed epsilon -> (Gk.create ~epsilon, Reference.create ~epsilon)
        | `Capped words -> (Gk.create_capped ~words, Reference.create_capped ~words)
      in
      let same gk (r : Reference.t) =
        Gk.dump gk = Reference.dump r
        && Gk.count gk = r.n
        && Gk.size gk = r.size
        && Int64.bits_of_float (Gk.epsilon gk) = Int64.bits_of_float r.epsilon
        && Gk.memory_words gk = Reference.memory_words r
      in
      let rec go gk r = function
        | [] -> true
        | op :: rest ->
          let gk, r =
            match op with
            | Batch b ->
              Gk.insert_sorted_batch gk b;
              Reference.insert_sorted_batch r b;
              (gk, r)
            | Insert v ->
              Gk.insert gk v;
              Reference.insert r v;
              (gk, r)
            | Copy -> (Gk.copy gk, Reference.copy r)
          in
          same gk r && go gk r rest
      in
      go gk r ops)

(* Hand-off edge cases through the reference, checked after every op:
   the tuples, count, size, epsilon and footprint must all agree. *)
let check_reference_ops what mode ops =
  let gk, r =
    match mode with
    | `Fixed epsilon -> (Gk.create ~epsilon, Reference.create ~epsilon)
    | `Capped words -> (Gk.create_capped ~words, Reference.create_capped ~words)
  in
  List.iteri
    (fun step op ->
      (match op with
      | Batch b ->
        Gk.insert_sorted_batch gk b;
        Reference.insert_sorted_batch r b
      | Insert v ->
        Gk.insert gk v;
        Reference.insert r v
      | Copy -> ());
      let at = Printf.sprintf "%s, op %d" what step in
      Alcotest.(check (list (triple int int int))) (at ^ ": tuples") (Reference.dump r) (Gk.dump gk);
      Alcotest.(check int) (at ^ ": count") r.n (Gk.count gk);
      Alcotest.(check int) (at ^ ": size") r.size (Gk.size gk);
      Alcotest.(check (float 0.0)) (at ^ ": epsilon") r.epsilon (Gk.epsilon gk);
      Alcotest.(check int) (at ^ ": words") (Reference.memory_words r) (Gk.memory_words gk))
    ops

let span lo hi = Batch (Array.init (hi - lo + 1) (fun i -> lo + i))

(* The first hand-off into an empty sketch: every element lands past the
   running maximum, so every delta is 0. *)
let test_handoff_first () =
  check_reference_ops "first" (`Fixed 0.05) [ span 1 300; span 100 400 ];
  check_reference_ops "first, duplicates" (`Fixed 0.01)
    [ Batch (Array.init 600 (fun i -> i / 7)) ]

(* Runs wholly below the old minimum (exact ranks, delta 0, and a new
   minimum that must never merge) and wholly above the old maximum. *)
let test_handoff_outside () =
  check_reference_ops "below" (`Fixed 0.05)
    [ span 1_000 1_400; span (-300) (-1); span (-900) (-600); Batch [| min_int |] ];
  check_reference_ops "above" (`Fixed 0.05)
    [ span 1 400; span 500 800; span 2_000 2_003; Batch [| max_int |] ]

(* Runs equal to values already held: the old minimum, the old maximum
   and interior values, which decide between delta 0 and the interior
   delta and order equal values behind the old tuples. *)
let test_handoff_equal () =
  let held = Array.init 200 (fun i -> 10 * i) in
  check_reference_ops "equal" (`Fixed 0.02)
    [
      Batch held;
      Batch (Array.make 40 0);
      Batch (Array.make 40 1_990);
      Batch (Array.init 100 (fun i -> 20 * i));
      Batch held;
    ]

(* Merged sizes of at most 2 skip the compress, and an insert's
   compress schedule runs on across them. *)
let test_handoff_tiny () =
  check_reference_ops "one" (`Fixed 0.2) [ Batch [| 5 |]; Batch [| 3 |]; Insert 4 ];
  check_reference_ops "two" (`Fixed 0.2) [ Batch [| 5; 5 |]; Insert 6; Insert 7 ];
  check_reference_ops "insert, then one" (`Fixed 0.2)
    ([ Insert 5; Batch [| 7 |] ] @ List.init 12 (fun i -> Insert (8 + i)))

(* A capped sketch: each hand-off must coarsen epsilon to the budget
   exactly as the reference does. *)
let test_handoff_capped () =
  check_reference_ops "capped 60" (`Capped 60)
    (List.init 12 (fun b -> span (b * 37) ((b * 37) + 90 + (b * 11))));
  check_reference_ops "capped 200" (`Capped 200)
    [ span 1 600; span (-600) (-1); Batch (Array.make 300 7); span 601 1_200 ]

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
      ( "batched queries",
        [
          QCheck_alcotest.to_alcotest prop_query_ranks_reference;
          Alcotest.test_case "rejects empty and decreasing" `Quick test_query_ranks_rejects;
        ] );
      ("merge fuzz", Alcotest.test_case "merge empty" `Quick test_merge_empty :: merge_cases);
      ( "round trip",
        Alcotest.test_case "copy replays" `Quick test_copy_replays
        :: round_trip_cases );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_matches_reference;
          Alcotest.test_case "first hand-off" `Quick test_handoff_first;
          Alcotest.test_case "runs outside the range" `Quick test_handoff_outside;
          Alcotest.test_case "runs equal to held values" `Quick test_handoff_equal;
          Alcotest.test_case "merged size at most 2" `Quick test_handoff_tiny;
          Alcotest.test_case "capped hand-offs" `Quick test_handoff_capped;
        ] );
    ]
