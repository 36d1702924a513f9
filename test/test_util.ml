(* Tests for hsq_util: PRNGs, sorted-array primitives, statistics, the
   decimal integer codec. *)

open Hsq_util

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_seeds_differ () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Splitmix.next a = Splitmix.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_splitmix_copy () =
  let a = Splitmix.create 7 in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  Alcotest.(check int) "copies agree" (Splitmix.next a) (Splitmix.next b)

let test_splitmix_int_bounds () =
  let a = Splitmix.create 3 in
  for _ = 1 to 1000 do
    let v = Splitmix.int a 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int a 0))

let test_splitmix_float_range () =
  let a = Splitmix.create 11 in
  for _ = 1 to 1000 do
    let f = Splitmix.float a in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 42 and b = Xoshiro.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_gaussian_moments () =
  let rng = Xoshiro.create 5 in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let g = Xoshiro.gaussian rng in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.02);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.0) < 0.05)

let test_xoshiro_copy_independent () =
  let a = Xoshiro.create 9 in
  ignore (Xoshiro.gaussian a);
  (* spare deviate cached *)
  let b = Xoshiro.copy a in
  Alcotest.(check (float 0.0)) "copy shares spare" (Xoshiro.gaussian a) (Xoshiro.gaussian b)

let test_sorted_rank_basics () =
  let a = [| 1; 3; 3; 5; 9 |] in
  Alcotest.(check int) "rank below min" 0 (Sorted.rank a 0);
  Alcotest.(check int) "rank of min" 1 (Sorted.rank a 1);
  Alcotest.(check int) "rank mid dup" 3 (Sorted.rank a 3);
  Alcotest.(check int) "rank between" 3 (Sorted.rank a 4);
  Alcotest.(check int) "rank of max" 5 (Sorted.rank a 9);
  Alcotest.(check int) "rank above max" 5 (Sorted.rank a 100);
  Alcotest.(check int) "strict below dup" 1 (Sorted.rank_strict a 3);
  Alcotest.(check int) "strict above all" 5 (Sorted.rank_strict a 100)

let test_sorted_select () =
  let a = [| 2; 4; 4; 8 |] in
  Alcotest.(check int) "select 1" 2 (Sorted.select a 1);
  Alcotest.(check int) "select 2" 4 (Sorted.select a 2);
  Alcotest.(check int) "select 4" 8 (Sorted.select a 4);
  Alcotest.(check int) "select clamps low" 2 (Sorted.select a 0);
  Alcotest.(check int) "select clamps high" 8 (Sorted.select a 99)

let test_sorted_quantile_definition () =
  (* Definition 1: smallest element whose rank >= phi * n. *)
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "median" 50 (Sorted.quantile a 0.5);
  Alcotest.(check int) "p99" 99 (Sorted.quantile a 0.99);
  Alcotest.(check int) "p100" 100 (Sorted.quantile a 1.0);
  Alcotest.(check int) "p001 -> first" 1 (Sorted.quantile a 0.001)

let test_sorted_empty_raises () =
  Alcotest.check_raises "select empty" (Invalid_argument "Sorted.select: empty array") (fun () ->
      ignore (Sorted.select [||] 1));
  Alcotest.check_raises "quantile bad phi"
    (Invalid_argument "Sorted.quantile: phi not in (0,1]") (fun () ->
      ignore (Sorted.quantile [| 1 |] 0.0))

let test_sorted_merge () =
  let sorted a =
    Sorted.sort_runs a;
    a
  in
  Alcotest.(check (array int)) "two runs" [| 1; 2; 4; 4; 6; 9 |] (sorted [| 1; 4; 6; 2; 4; 9 |]);
  Alcotest.(check (array int)) "one run" [| 5 |] (sorted [| 5 |]);
  Alcotest.(check (array int)) "two singletons" [| 3; 5 |] (sorted [| 5; 3 |])

let test_stats_summary () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 s.Stats.stddev

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty list") (fun () ->
      ignore (Stats.median []))

(* Property: Sorted.rank agrees with a naive count on random arrays. *)
let prop_rank_agrees_with_count =
  QCheck.Test.make ~name:"Sorted.rank = naive count" ~count:500
    QCheck.(pair (list small_int) small_int)
    (fun (l, v) ->
      let a = Array.of_list (List.sort compare l) in
      let naive = List.length (List.filter (fun x -> x <= v) l) in
      Sorted.rank a v = naive)

let prop_merge_sorted =
  QCheck.Test.make ~name:"Sorted.sort_runs sorts two runs" ~count:500
    QCheck.(pair (list small_int) (list small_int))
    (fun (l1, l2) ->
      let m = Array.of_list (List.sort compare l1 @ List.sort compare l2) in
      Sorted.sort_runs m;
      Sorted.is_sorted m && Array.to_list m = List.sort compare (l1 @ l2))

let prop_select_rank_inverse =
  QCheck.Test.make ~name:"select r has rank >= r; predecessor does not" ~count:500
    QCheck.(pair (list_of_size Gen.(1 -- 50) small_int) (int_bound 49))
    (fun (l, r0) ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      let r = 1 + (r0 mod n) in
      let v = Sorted.select a r in
      Sorted.rank a v >= r && (v <= a.(0) || Sorted.rank a (v - 1) < r))


let sorted_copy a =
  let b = Array.copy a in
  Array.sort Int.compare b;
  b

let test_sort_runs_matches_array_sort () =
  let rng = Xoshiro.create 99 in
  let check label a =
    let expected = sorted_copy a in
    Sorted.sort_runs a;
    Alcotest.(check (array int)) label expected a
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "random n=%d" n) (Array.init n (fun _ -> Xoshiro.int rng 1_000_000)))
    [ 0; 1; 2; 3; 100; 4096; 50_000 ];
  (* A step spool: one sorted run per 512-element hand-off. *)
  let spool =
    Array.concat
      (List.init 98 (fun _ -> sorted_copy (Array.init 512 (fun _ -> Xoshiro.int rng 1_000_000))))
  in
  check "runs of 512" spool;
  check "descending" (Array.init 10_000 (fun i -> 10_000 - i));
  check "all equal" (Array.make 1_000 7);
  check "extremes" [| max_int; 0; min_int; max_int; min_int; -1; 1 |];
  check "sorted" (Array.init 1_000 (fun i -> i))

(* sort_into against Array.sort compare at every length 0..600 (a
   hand-off sorts up to 512), on five input shapes.  The arrays are
   longer than n: words past n in [src] must not leak in, and those in
   [dst] must stay untouched. *)
let test_sort_into_matches_array_sort () =
  let rng = Xoshiro.create 512 in
  let shapes =
    [
      ("sorted", fun _ i -> i);
      ("reversed", fun n i -> n - i);
      ("all equal", fun _ _ -> 7);
      ("extremes", fun _ i -> match i mod 3 with 0 -> min_int | 1 -> max_int | _ -> i - 300);
      ("random", fun _ _ -> Xoshiro.int rng 1_000_000 - 500_000);
    ]
  in
  for n = 0 to 600 do
    List.iter
      (fun (shape, value) ->
        let input = Array.init n (value n) in
        let expected = Array.copy input in
        Array.sort compare expected;
        let src = Array.append input [| min_int; min_int |] in
        let dst = Array.make (n + 3) 42 in
        Sorted.sort_into ~counts:(Array.make 256 0) src n dst;
        let what = Printf.sprintf "%s n=%d" shape n in
        Alcotest.(check (array int)) what expected (Array.sub dst 0 n);
        Alcotest.(check (array int)) (what ^ ": dst past n") [| 42; 42; 42 |] (Array.sub dst n 3))
      shapes
  done

(* The radix sort's digit cases against Array.sort compare: values over
   the whole int range (min_int, max_int, 0 and -1 among them, so the
   top digit must order negatives first), all-equal input (every digit
   skipped), input differing in one byte only (one digit sorted, at
   each of the eight positions; the whole byte or its top bit alone)
   and input differing in every byte.
   [sort_into] runs at every length 0..600 and must leave [dst] past n
   alone; [sort_runs ~len] runs on the same values cut into sorted runs
   of 8 (enough runs to radix-sort) and must leave the tail alone. *)
let radix_shapes rng =
  let base = Xoshiro.next rng in
  let extremes = [| min_int; max_int; 0; -1; min_int + 1; max_int - 1; 1 |] in
  ("whole range",
    fun i -> if i mod 5 = 0 then extremes.(i / 5 mod 7) else Xoshiro.next rng)
  :: ("all equal", fun _ -> base)
  :: ("every byte", fun _ -> Xoshiro.next rng)
  :: List.init 8 (fun b ->
         ( Printf.sprintf "byte %d only" b,
           fun _ -> base lxor (Xoshiro.int rng 256 lsl (8 * b)) ))
  @ List.init 8 (fun b ->
        (* The byte's top bit, bit 62 (the sign) in the top byte. *)
        let bit = Int.min 62 ((8 * b) + 7) in
        (Printf.sprintf "bit %d only" bit, fun _ -> base lxor (Xoshiro.int rng 2 lsl bit)))

let test_radix_sort_digits () =
  let rng = Xoshiro.create 0x5AD1 in
  let counts = Sorted.radix_counts () in
  for n = 0 to 600 do
    List.iter
      (fun (shape, value) ->
        let input = Array.init n value in
        let expected = sorted_copy input in
        let what = Printf.sprintf "%s n=%d" shape n in
        let src = Array.append input [| 5; 5 |] in
        let dst = Array.make (n + 2) 42 in
        Sorted.sort_into ~counts src n dst;
        Alcotest.(check (array int)) what expected (Array.sub dst 0 n);
        Alcotest.(check (array int)) (what ^ ": dst past n") [| 42; 42 |] (Array.sub dst n 2);
        Alcotest.(check (array int)) (what ^ ": src past n") [| 5; 5 |] (Array.sub src n 2);
        (* The same values as runs of 8 sorted ones, then a tail of 3. *)
        let runs =
          Array.concat
            (List.init ((n + 7) / 8) (fun r ->
                 sorted_copy (Array.sub input (8 * r) (Int.min 8 (n - (8 * r))))))
        in
        let tail = [| max_int; min_int; 0 |] in
        let a = Array.append runs tail in
        Sorted.sort_runs ~len:n a;
        Alcotest.(check (array int)) (what ^ ": sort_runs") expected (Array.sub a 0 n);
        Alcotest.(check (array int)) (what ^ ": tail past len") tail (Array.sub a n 3))
      (radix_shapes rng)
  done

(* A 50k step spool, 98 sorted hand-off runs, over the whole int range
   and over one byte, through the spool's sort and the hand-off's. *)
let test_radix_sort_spool () =
  let rng = Xoshiro.create 0x5B001 in
  List.iter
    (fun (shape, value) ->
      let spool =
        Array.concat (List.init 98 (fun _ -> sorted_copy (Array.init 512 value)))
        |> fun a -> Array.sub a 0 50_000
      in
      let expected = sorted_copy spool in
      let dst = Array.make 50_000 0 in
      Sorted.sort_into ~counts:(Sorted.radix_counts ()) (Array.copy spool) 50_000 dst;
      Alcotest.(check (array int)) (shape ^ ": sort_into") expected dst;
      Sorted.sort_runs spool;
      Alcotest.(check (array int)) (shape ^ ": sort_runs") expected spool)
    (List.filter
       (fun (shape, _) -> List.mem shape [ "whole range"; "every byte"; "byte 7 only"; "byte 2 only" ])
       (radix_shapes rng))

(* Arrays of ascending runs cut at random boundaries, over a small
   value pool (so duplicates) plus min_int and max_int; a quarter of
   them reversed into descending input. *)
let runs_arbitrary =
  let gen =
    QCheck.Gen.(
      let value = frequency [ (8, int_range (-20) 20); (1, return min_int); (1, return max_int) ] in
      let run = map (List.sort Int.compare) (list_size (int_range 0 40) value) in
      let* runs = list_size (int_range 0 20) run in
      let* descending = frequency [ (1, return true); (3, return false) ] in
      let l = List.concat runs in
      return (Array.of_list (if descending then List.rev (List.sort Int.compare l) else l)))
  in
  QCheck.make ~print:QCheck.Print.(array int) gen

let prop_sort_runs =
  QCheck.Test.make ~name:"sort_runs = Array.sort on run mixes" ~count:500 runs_arbitrary
    (fun a ->
      let expected = sorted_copy a in
      Sorted.sort_runs a;
      a = expected)

(* --- Digits ------------------------------------------------------------ *)

(* Ints across every magnitude, both signs and the range ends. *)
let int_arbitrary =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, int);
          (2, map2 (fun bits v -> v asr bits) (int_range 0 62) int);
          (1, oneofl [ 0; 1; -1; 9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ]);
        ])
  in
  QCheck.make ~print:string_of_int gen

let render n =
  let buf = Buffer.create 24 in
  Buffer.add_string buf "x";
  Digits.add_int buf n;
  Buffer.contents buf

let prop_add_int =
  QCheck.Test.make ~name:"add_int = string_of_int, read_int inverts it" ~count:2000
    int_arbitrary (fun n ->
      let s = render n in
      s = "x" ^ string_of_int n
      && Digits.read_int s ~pos:1 ~stop:(String.length s) = Some n
      && Digits.read_int ("  " ^ s ^ "]") ~pos:3 ~stop:(String.length s + 2) = Some n)

let test_read_int_edges () =
  let read s = Digits.read_int s ~pos:0 ~stop:(String.length s) in
  let check s expected = Alcotest.(check (option int)) (Printf.sprintf "%S" s) expected (read s) in
  check "0" (Some 0);
  check "-0" (Some 0);
  check "007" (Some 7);
  check "-007" (Some (-7));
  check "0000000000000000000000001" (Some 1);
  check "4611686018427387903" (Some max_int);
  check "-4611686018427387904" (Some min_int);
  check "4611686018427387904" None;
  check "-4611686018427387905" None;
  check "46116860184273879030" None;
  check "99999999999999999999" None;
  List.iter
    (fun s -> check s None)
    [ ""; "-"; "+1"; "1."; ".5"; "1e3"; "1.0"; "--1"; "1-"; " 1"; "1 "; "0x10"; "1_000" ];
  Alcotest.(check (option int)) "sub-range" (Some 23) (Digits.read_int "1234" ~pos:1 ~stop:3);
  Alcotest.(check (option int)) "range past the end" None (Digits.read_int "12" ~pos:0 ~stop:3);
  Alcotest.(check (option int)) "negative start" None (Digits.read_int "12" ~pos:(-1) ~stop:2)

let () =
  Alcotest.run "util"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_splitmix_seeds_differ;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "int bounds" `Quick test_splitmix_int_bounds;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "gaussian moments" `Slow test_xoshiro_gaussian_moments;
          Alcotest.test_case "copy keeps spare" `Quick test_xoshiro_copy_independent;
        ] );
      ( "sorted",
        [
          Alcotest.test_case "rank basics" `Quick test_sorted_rank_basics;
          Alcotest.test_case "select" `Quick test_sorted_select;
          Alcotest.test_case "quantile (Definition 1)" `Quick test_sorted_quantile_definition;
          Alcotest.test_case "empty raises" `Quick test_sorted_empty_raises;
          Alcotest.test_case "merge" `Quick test_sorted_merge;
          QCheck_alcotest.to_alcotest prop_rank_agrees_with_count;
          QCheck_alcotest.to_alcotest prop_merge_sorted;
          QCheck_alcotest.to_alcotest prop_select_rank_inverse;
          Alcotest.test_case "sort_runs matches Array.sort" `Quick
            test_sort_runs_matches_array_sort;
          QCheck_alcotest.to_alcotest prop_sort_runs;
          Alcotest.test_case "sort_into matches Array.sort" `Quick
            test_sort_into_matches_array_sort;
          Alcotest.test_case "radix sort digits" `Quick test_radix_sort_digits;
          Alcotest.test_case "radix sort spool" `Quick test_radix_sort_spool;
        ] );
      ( "digits",
        [
          QCheck_alcotest.to_alcotest prop_add_int;
          Alcotest.test_case "read_int edge literals" `Quick test_read_int_edges;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "median" `Quick test_stats_median;
        ] );
    ]
