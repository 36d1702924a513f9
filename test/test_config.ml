(* Tests for Config: Algorithm 1 derivations, the memory-mode 50/50
   split of Section 3.1, and parameter validation. *)

module C = Hsq.Config

let test_epsilon_mode_derivations () =
  (* Algorithm 1: eps1 = eps/2, beta1 = ceil(1/eps1) + 1. *)
  let c = C.make (C.Epsilon 0.5) in
  Alcotest.(check int) "beta1 for eps=0.5" 5 (C.beta1 c);
  (* eps1 = 0.25 -> ceil(4) + 1 *)
  let c2 = C.make (C.Epsilon 0.01) in
  Alcotest.(check int) "beta1 for eps=0.01" 201 (C.beta1 c2);
  Alcotest.(check (option (float 1e-12))) "gk eps = eps/8" (Some 0.00125) (C.gk_epsilon c2);
  Alcotest.(check (option int)) "no stream budget in eps mode" None (C.stream_words c2)

let test_memory_mode_split () =
  let c = C.make ~kappa:10 ~steps_hint:100 (C.Memory_words 10_000) in
  (* 50/50 split *)
  Alcotest.(check (option int)) "stream half" (Some 5_000) (C.stream_words c);
  Alcotest.(check bool) "beta1 positive" true (C.beta1 c >= 2);
  (* 3 words per entry over max_partitions *)
  let expected = ((10_000 / 2) - 16) / (3 * C.max_partitions c) in
  Alcotest.(check int) "beta1 formula" (max 2 expected) (C.beta1 c);
  Alcotest.(check (option (float 0.0))) "no fixed gk eps" None (C.gk_epsilon c)

let test_stream_fraction () =
  let c = C.make ~stream_fraction:0.8 (C.Memory_words 10_000) in
  Alcotest.(check (option int)) "80% to stream" (Some 8_000) (C.stream_words c);
  let c2 = C.make ~stream_fraction:0.2 (C.Memory_words 10_000) in
  Alcotest.(check (option int)) "20% to stream" (Some 2_000) (C.stream_words c2);
  Alcotest.(check bool) "more hist memory -> bigger beta1" true (C.beta1 c2 > C.beta1 c)

let test_max_partitions () =
  (* kappa * (ceil(log_kappa steps) + 1) *)
  let c = C.make ~kappa:10 ~steps_hint:100 (C.Epsilon 0.1) in
  Alcotest.(check int) "kappa=10 T=100" 30 (C.max_partitions c);
  let c2 = C.make ~kappa:2 ~steps_hint:64 (C.Epsilon 0.1) in
  Alcotest.(check int) "kappa=2 T=64" 14 (C.max_partitions c2)

let test_validation () =
  let bad msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  bad "Config.make: epsilon not in (0,1)" (fun () -> ignore (C.make (C.Epsilon 0.0)));
  bad "Config.make: epsilon not in (0,1)" (fun () -> ignore (C.make (C.Epsilon 1.0)));
  bad "Config.make: memory budget below 128 words" (fun () ->
      ignore (C.make (C.Memory_words 10)));
  bad "Config.make: kappa must be >= 2" (fun () -> ignore (C.make ~kappa:1 (C.Epsilon 0.1)));
  bad "Config.make: block_size must be >= 2" (fun () ->
      ignore (C.make ~block_size:1 (C.Epsilon 0.1)));
  bad "Config.make: steps_hint must be >= 1" (fun () ->
      ignore (C.make ~steps_hint:0 (C.Epsilon 0.1)));
  bad "Config.make: stream_fraction must lie in (0,1)" (fun () ->
      ignore (C.make ~stream_fraction:1.0 (C.Epsilon 0.1)))

let test_defaults () =
  Alcotest.(check int) "kappa" 10 C.default.C.kappa;
  Alcotest.(check int) "block size" 256 C.default.C.block_size;
  Alcotest.(check (float 1e-9)) "split" 0.5 C.default.C.stream_fraction

let prop_beta1_scales_with_memory =
  QCheck.Test.make ~name:"beta1 monotone in memory budget" ~count:100
    QCheck.(pair (int_range 200 100_000) (int_range 200 100_000))
    (fun (w1, w2) ->
      let b w = C.beta1 (C.make (C.Memory_words w)) in
      if w1 <= w2 then b w1 <= b w2 else b w1 >= b w2)

let () =
  Alcotest.run "config"
    [
      ( "derivations",
        [
          Alcotest.test_case "epsilon mode (Algorithm 1)" `Quick test_epsilon_mode_derivations;
          Alcotest.test_case "memory mode split" `Quick test_memory_mode_split;
          Alcotest.test_case "stream fraction" `Quick test_stream_fraction;
          Alcotest.test_case "max partitions" `Quick test_max_partitions;
          QCheck_alcotest.to_alcotest prop_beta1_scales_with_memory;
        ] );
      ( "validation",
        [
          Alcotest.test_case "rejects bad parameters" `Quick test_validation;
          Alcotest.test_case "defaults" `Quick test_defaults;
        ] );
    ]
