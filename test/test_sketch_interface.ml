(* Tests for the common sketch interface: the packed existential must
   behave identically to the direct module for every implementation,
   and the phi-quantile helper must follow Definition 1. *)

open Hsq_sketch

let packs () =
  [
    ("gk", Quantile_sketch.Packed (Gk.sketch, Gk.create ~epsilon:0.02));
    ("qdigest", Quantile_sketch.Packed (Qdigest.sketch, Qdigest.create ~bits:20 ~k:200));
    ("sampler", Quantile_sketch.Packed (Sampler.sketch, Sampler.create ~buffers:8 ~buffer_size:128 ()));
    ("exact", Quantile_sketch.Packed (Exact.sketch, Exact.create ()));
  ]

let test_packed_round_trip () =
  let rng = Hsq_util.Xoshiro.create 71 in
  let data = Array.init 20_000 (fun _ -> Hsq_util.Xoshiro.int rng (1 lsl 20)) in
  let sorted = Array.copy data in
  Array.sort compare sorted;
  List.iter
    (fun (name, packed) ->
      Array.iter (Quantile_sketch.insert packed) data;
      Alcotest.(check int) (name ^ " count") 20_000 (Quantile_sketch.count packed);
      Alcotest.(check bool) (name ^ " memory positive") true (Quantile_sketch.memory_words packed > 0);
      (* every implementation must land within 5% rank error here *)
      let v = Quantile_sketch.quantile packed 0.5 in
      let r = Hsq_util.Sorted.rank sorted v in
      Alcotest.(check bool)
        (Printf.sprintf "%s median rank %d within 5%%" name r)
        true
        (abs (r - 10_000) <= 1_000);
      let est = Quantile_sketch.rank_of packed sorted.(10_000) in
      Alcotest.(check bool)
        (Printf.sprintf "%s rank_of within 10%%" name)
        true
        (abs (est - 10_000) <= 2_000))
    (packs ())

let test_quantile_validation () =
  let packed = Quantile_sketch.Packed (Gk.sketch, Gk.create ~epsilon:0.1) in
  Alcotest.check_raises "empty"
    (Invalid_argument "Quantile_sketch.quantile: empty sketch") (fun () ->
      ignore (Quantile_sketch.quantile packed 0.5));
  Quantile_sketch.insert packed 1;
  Alcotest.check_raises "bad phi"
    (Invalid_argument "Quantile_sketch.quantile: phi not in (0,1]") (fun () ->
      ignore (Quantile_sketch.quantile packed 0.0))

let test_quantile_definition_1 () =
  (* With the exact sketch, the helper must implement Definition 1
     verbatim: smallest element with rank >= ceil(phi * n). *)
  let packed = Quantile_sketch.Packed (Exact.sketch, Exact.of_array [| 10; 20; 20; 30 |]) in
  Alcotest.(check int) "phi=0.25" 10 (Quantile_sketch.quantile packed 0.25);
  Alcotest.(check int) "phi=0.5" 20 (Quantile_sketch.quantile packed 0.5);
  Alcotest.(check int) "phi=0.75" 20 (Quantile_sketch.quantile packed 0.75);
  Alcotest.(check int) "phi=1.0" 30 (Quantile_sketch.quantile packed 1.0)

let prop_error_bound_generic =
  QCheck.Test.make ~name:"every sketch within its own advertised error bound" ~count:25
    QCheck.(list_of_size Gen.(10 -- 400) (int_bound ((1 lsl 20) - 1)))
    (fun l ->
      let data = Array.of_list l in
      let sorted = Array.copy data in
      Array.sort compare sorted;
      let n = Array.length data in
      List.for_all
        (fun (name, packed) ->
          (* the sampler is probabilistic: exempt it from the hard check *)
          if name = "sampler" then true
          else begin
            Array.iter (Quantile_sketch.insert packed) data;
            let bound =
              (Quantile_sketch.error_bound packed *. float_of_int n) +. 2.0
            in
            List.for_all
              (fun r ->
                let v = Quantile_sketch.query_rank packed r in
                let hi = Hsq_util.Sorted.rank sorted v in
                let lo = min hi (Hsq_util.Sorted.rank_strict sorted v + 1) in
                let e = if r < lo then lo - r else if r > hi then r - hi else 0 in
                float_of_int e <= bound)
              [ 1; (n + 1) / 2; n ]
          end)
        (packs ()))

let () =
  Alcotest.run "sketch_interface"
    [
      ( "packed",
        [
          Alcotest.test_case "round trip all sketches" `Quick test_packed_round_trip;
          Alcotest.test_case "validation" `Quick test_quantile_validation;
          Alcotest.test_case "Definition 1" `Quick test_quantile_definition_1;
          QCheck_alcotest.to_alcotest prop_error_bound_generic;
        ] );
    ]
