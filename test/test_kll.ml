(* Tests for the KLL sketch: the eps*n rank guarantee, exact min/max,
   lazy sweep-compactor invariants, and — the properties GK cannot
   offer — merge correctness: merge-vs-sequential-insert rank
   agreement, associativity and commutativity within the bound, and
   serialize/deserialize round-trip identity (including replayed coin
   flips).  Seed counts scale through HSQ_KLL_SEEDS like the other
   fuzz suites. *)

open Hsq_sketch

(* Seed counts scale through the environment: the PR-gating CI job runs
   the default, the nightly job cranks HSQ_KLL_SEEDS up to hundreds. *)
let seed_count default =
  match Sys.getenv_opt "HSQ_KLL_SEEDS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* Rank error of answering rank [r] with value [v] against the sorted
   ground truth: distance from r to [ |{x < v}| + 1, |{x <= v}| ]. *)
let rank_error sorted ~rank ~value =
  let upper = Hsq_util.Sorted.rank sorted value in
  let lower = min upper (Hsq_util.Sorted.rank_strict sorted value + 1) in
  if rank < lower then lower - rank else if rank > upper then rank - upper else 0

let max_error_over_all_ranks kll sorted =
  let n = Array.length sorted in
  let worst = ref 0 in
  let stride = max 1 (n / 2_000) in
  let r = ref 1 in
  while !r <= n do
    let v = Kll.query_rank kll !r in
    let e = rank_error sorted ~rank:!r ~value:v in
    if e > !worst then worst := e;
    r := !r + stride
  done;
  !worst

let feed ?(seed = 0) epsilon data =
  let kll = Kll.create ~seed ~epsilon () in
  Array.iter (Kll.insert kll) data;
  kll

let check_within_bound ?(what = "worst error") kll data =
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let bound =
    int_of_float (ceil (Kll.error_bound kll *. float_of_int (Array.length data)))
  in
  let worst = max_error_over_all_ranks kll sorted in
  Alcotest.(check bool)
    (Printf.sprintf "%s %d <= bound %d (n=%d)" what worst bound (Array.length data))
    true (worst <= bound)

let check_error_bound ?seed ~epsilon data =
  check_within_bound (feed ?seed epsilon data) data

(* --- direct eps*n guarantees, mirroring the GK suite ----------------- *)

let test_random_stream () =
  let rng = Hsq_util.Xoshiro.create 1 in
  check_error_bound ~epsilon:0.02
    (Array.init 20_000 (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000))

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
  let kll = feed 0.01 data in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  Alcotest.(check int) "min exact" sorted.(0) (Kll.min_value kll);
  Alcotest.(check int) "max exact" sorted.(4_999) (Kll.max_value kll)

let test_empty_raises () =
  let kll = Kll.create ~epsilon:0.1 () in
  Alcotest.check_raises "query" (Invalid_argument "Kll.query_rank: empty sketch") (fun () ->
      ignore (Kll.query_rank kll 1));
  Alcotest.check_raises "min" (Invalid_argument "Kll.min_value: empty sketch") (fun () ->
      ignore (Kll.min_value kll));
  Alcotest.(check int) "rank_of on empty" 0 (Kll.rank_of kll 7)

let test_create_validation () =
  List.iter
    (fun eps ->
      Alcotest.check_raises
        (Printf.sprintf "epsilon %g" eps)
        (Invalid_argument "Kll.create: epsilon must lie in (0, 1)")
        (fun () -> ignore (Kll.create ~epsilon:eps ())))
    [ 0.0; 1.0; -0.5; 2.0 ]

let test_capped_budget () =
  let words = 400 in
  let kll = Kll.create_capped ~words () in
  let rng = Hsq_util.Xoshiro.create 9 in
  for _ = 1 to 50_000 do
    Kll.insert kll (Hsq_util.Xoshiro.int rng 1_000_000)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "memory %d within budget %d" (Kll.memory_words kll) words)
    true
    (Kll.memory_words kll <= words);
  Alcotest.(check (list string)) "invariants hold" [] (Kll.check_invariants kll)

let test_insert_sorted_batch_equiv () =
  let rng = Hsq_util.Xoshiro.create 12 in
  let a = Kll.create ~epsilon:0.02 () in
  let all = ref [] in
  for _ = 1 to 40 do
    let batch =
      Array.init (1 + Hsq_util.Xoshiro.int rng 700) (fun _ ->
          Hsq_util.Xoshiro.int rng 1_000_000)
    in
    Array.sort compare batch;
    Kll.insert_sorted_batch a batch;
    all := batch :: !all
  done;
  let data = Array.concat !all in
  Alcotest.(check int) "count" (Array.length data) (Kll.count a);
  Alcotest.(check int) "minimum" (Array.fold_left min max_int data) (Kll.min_value a);
  Alcotest.(check int) "maximum" (Array.fold_left max min_int data) (Kll.max_value a);
  check_within_bound ~what:"batched worst error" a data;
  Alcotest.(check (list string)) "invariants hold" [] (Kll.check_invariants a)

(* --- merge properties -------------------------------------------------- *)

let gen_stream rng len =
  let shape = Hsq_util.Xoshiro.int rng 4 in
  Array.init len (fun i ->
      match shape with
      | 0 -> Hsq_util.Xoshiro.int rng 1_000_000
      | 1 -> i (* sorted *)
      | 2 -> Hsq_util.Xoshiro.int rng 30 (* heavy duplicates *)
      | _ -> 1_000_000 - i)

let merged_bound kll n = int_of_float (ceil (Kll.error_bound kll *. float_of_int n))

let check_merged_within merged data what =
  let sorted = Array.copy data in
  Array.sort compare sorted;
  Alcotest.(check int) (what ^ " count") (Array.length data) (Kll.count merged);
  let worst = max_error_over_all_ranks merged sorted in
  let bound = merged_bound merged (Array.length data) in
  if worst > bound then
    Alcotest.failf "%s: worst rank error %d above bound %d (n=%d)" what worst bound
      (Array.length data);
  Alcotest.(check (list string)) (what ^ " invariants") [] (Kll.check_invariants merged)

let run_merge_seed seed =
  let rng = Hsq_util.Xoshiro.create (0x5eed + (seed * 7919)) in
  let eps = 0.01 +. (0.04 *. Hsq_util.Xoshiro.float rng) in
  let streams =
    List.init 3 (fun i ->
        gen_stream rng (100 + Hsq_util.Xoshiro.int rng (if i = 0 then 20_000 else 8_000)))
  in
  let sketches =
    List.mapi (fun i s -> feed ~seed:(seed + i) eps s) streams
  in
  let union = Array.concat streams in
  match (sketches, streams) with
  | [ a; b; c ], [ sa; sb; _ ] ->
    (* merge agrees with sequential insertion of the union *)
    let ab = Kll.merge a b in
    check_merged_within ab (Array.append sa sb) "merge(a,b)";
    (* commutativity within bound *)
    check_merged_within (Kll.merge b a) (Array.append sa sb) "merge(b,a)";
    (* associativity within bound *)
    check_merged_within (Kll.merge ab c) union "merge(merge(a,b),c)";
    check_merged_within (Kll.merge a (Kll.merge b c)) union "merge(a,merge(b,c))";
    (* inputs unchanged by merge *)
    check_merged_within a sa "input a after merges"
  | _ -> assert false

let merge_cases =
  List.init (seed_count 12) (fun i ->
      let seed = 2_000 + (i * 13) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () -> run_merge_seed seed))

let test_merge_empty () =
  let a = feed 0.02 (Array.init 1_000 (fun i -> i)) in
  let e = Kll.create ~epsilon:0.02 () in
  check_merged_within (Kll.merge a e) (Array.init 1_000 (fun i -> i)) "merge with empty";
  check_merged_within (Kll.merge e a) (Array.init 1_000 (fun i -> i)) "empty merge"

(* --- serialize / deserialize ------------------------------------------- *)

(* Round-trip identity is behavioral, not just structural: the restored
   sketch must serialize identically, answer identically, and — because
   the coin seed and counter travel with it — keep answering
   identically after both copies ingest the same suffix. *)
let run_round_trip_seed seed =
  let rng = Hsq_util.Xoshiro.create (0xCAFE + (seed * 31)) in
  let eps = 0.01 +. (0.05 *. Hsq_util.Xoshiro.float rng) in
  let kll = Kll.create ~seed ~epsilon:eps () in
  let n = 50 + Hsq_util.Xoshiro.int rng 25_000 in
  for _ = 1 to n do
    Kll.insert kll (Hsq_util.Xoshiro.int rng 1_000_000)
  done;
  let image = Kll.serialize kll in
  let restored = Kll.deserialize image in
  Alcotest.(check (list string)) "restored invariants" [] (Kll.check_invariants restored);
  Alcotest.(check bool)
    "serialize . deserialize . serialize is the identity" true
    (Kll.serialize restored = image);
  Alcotest.(check int) "count" (Kll.count kll) (Kll.count restored);
  for _ = 1 to 50 do
    let r = 1 + Hsq_util.Xoshiro.int rng (Kll.count kll) in
    Alcotest.(check int)
      (Printf.sprintf "rank %d" r)
      (Kll.query_rank kll r) (Kll.query_rank restored r)
  done;
  (* identical suffix -> identical state: coin replay is exact *)
  let suffix =
    Array.init (100 + Hsq_util.Xoshiro.int rng 5_000) (fun _ ->
        Hsq_util.Xoshiro.int rng 1_000_000)
  in
  Array.iter (Kll.insert kll) suffix;
  Array.iter (Kll.insert restored) suffix;
  Alcotest.(check bool)
    "post-suffix serializations identical" true
    (Kll.serialize kll = Kll.serialize restored)

let round_trip_cases =
  List.init (seed_count 12) (fun i ->
      let seed = 4_000 + (i * 17) in
      Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
          run_round_trip_seed seed))

let test_copy_replays () =
  let kll = feed ~seed:3 0.02 (Array.init 5_000 (fun i -> (i * 31) mod 4_096)) in
  let dup = Kll.copy kll in
  let suffix = Array.init 2_000 (fun i -> (i * 17) mod 9_001) in
  Array.iter (Kll.insert kll) suffix;
  Array.iter (Kll.insert dup) suffix;
  Alcotest.(check bool) "copy replays the original" true (Kll.serialize kll = Kll.serialize dup)

(* Teeth: structural damage must be rejected, not absorbed. *)
let test_deserialize_rejects_damage () =
  let kll = feed ~seed:5 0.05 (Array.init 3_000 (fun i -> (i * 13) mod 50_000)) in
  let image = Kll.serialize kll in
  let mutate f =
    let d = Array.copy image in
    f d;
    d
  in
  let cases =
    [
      ("truncated", Array.sub image 0 (Array.length image - 3));
      ("bad epsilon", mutate (fun d -> d.(1) <- 0));
      ("negative count", mutate (fun d -> d.(3) <- -4));
      ("level count", mutate (fun d -> d.(8) <- 5_000));
      ("weight broken", mutate (fun d -> d.(3) <- d.(3) + 1));
      (* level 0 is wide at this epsilon, so forcing its first item up
         to the recorded maximum breaks ascending order *)
      ("unsorted level", mutate (fun d -> d.(9 + (4 * d.(8))) <- d.(7)));
      ("escaped envelope", mutate (fun d -> d.(Array.length d - 1) <- max_int));
    ]
  in
  List.iter
    (fun (name, damaged) ->
      match Kll.deserialize damaged with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: damaged image accepted" name)
    cases

(* --- qcheck properties ------------------------------------------------- *)

let qcheck_seed =
  QCheck.Gen.int_range 0 0x3FFFFFFF

let prop_insert_bound =
  QCheck.Test.make ~name:"kll stays within eps*n on random streams"
    ~count:(seed_count 15)
    (QCheck.make qcheck_seed)
    (fun seed ->
      let rng = Hsq_util.Xoshiro.create seed in
      let n = 10 + Hsq_util.Xoshiro.int rng 15_000 in
      let data = gen_stream rng n in
      let kll = feed ~seed 0.02 data in
      let sorted = Array.copy data in
      Array.sort compare sorted;
      max_error_over_all_ranks kll sorted
      <= int_of_float (ceil (Kll.error_bound kll *. float_of_int n))
      && Kll.check_invariants kll = [])

let prop_merge_weight =
  QCheck.Test.make ~name:"merge conserves count and invariants" ~count:(seed_count 15)
    (QCheck.make qcheck_seed)
    (fun seed ->
      let rng = Hsq_util.Xoshiro.create (seed lxor 0xBEEF) in
      let sa = gen_stream rng (1 + Hsq_util.Xoshiro.int rng 6_000) in
      let sb = gen_stream rng (1 + Hsq_util.Xoshiro.int rng 6_000) in
      let m = Kll.merge (feed ~seed 0.03 sa) (feed ~seed:(seed + 1) 0.03 sb) in
      Kll.count m = Array.length sa + Array.length sb && Kll.check_invariants m = [])

let () =
  Alcotest.run "kll"
    [
      ( "bounds",
        [
          Alcotest.test_case "random stream" `Quick test_random_stream;
          Alcotest.test_case "sorted stream" `Quick test_sorted_stream;
          Alcotest.test_case "reverse sorted" `Quick test_reverse_sorted_stream;
          Alcotest.test_case "constant stream" `Quick test_constant_stream;
          Alcotest.test_case "two values" `Quick test_two_values;
          Alcotest.test_case "small streams" `Quick test_small_streams;
          Alcotest.test_case "min/max exact" `Quick test_min_max_exact;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "capped budget" `Quick test_capped_budget;
          Alcotest.test_case "sorted batch equiv" `Quick test_insert_sorted_batch_equiv;
        ] );
      ("merge fuzz", Alcotest.test_case "merge empty" `Quick test_merge_empty :: merge_cases);
      ( "round trip",
        Alcotest.test_case "copy replays" `Quick test_copy_replays
        :: Alcotest.test_case "rejects damage" `Quick test_deserialize_rejects_damage
        :: round_trip_cases );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_insert_bound;
          QCheck_alcotest.to_alcotest prop_merge_weight;
        ] );
    ]
