(* Tests for heavy hitters over archived history: completeness,
   soundness and exact counts against an exact frequency oracle, and
   the disk cost of a query. *)

module HH = Hsq.Heavy_hitters

(* Exact frequency oracle. *)
let frequencies data =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      match Hashtbl.find_opt tbl v with
      | Some c -> incr c
      | None -> Hashtbl.add tbl v (ref 1))
    data;
  tbl

let zipf_stream ~seed ~n ~universe ~s =
  let rng = Hsq_util.Xoshiro.create seed in
  let z = Hsq_workload.Distribution.Zipf.create ~n:universe ~s in
  Array.init n (fun _ -> Hsq_workload.Distribution.Zipf.sample z rng)

let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05)

(* Heavy hitters over every archived partition of [eng]. *)
let frequent eng ~phi =
  HH.frequent
    ~stats:[ Hsq_storage.Block_device.stats (Hsq.Engine.device eng) ]
    (Hsq_hist.Level_index.partitions (Hsq.Engine.hist eng))
    ~phi

let build ~seed ~steps ~step_size ~s =
  let eng = Hsq.Engine.create config in
  let data = zipf_stream ~seed ~n:(steps * step_size) ~universe:3_000 ~s in
  for i = 0 to steps - 1 do
    ignore (Hsq.Engine.ingest_batch eng (Array.sub data (i * step_size) step_size))
  done;
  (eng, frequencies data)

let truth freq v = match Hashtbl.find_opt freq v with Some c -> !c | None -> 0

let check_guarantees eng freq ~phi =
  let threshold = int_of_float (ceil (phi *. float_of_int (Hsq.Engine.total_size eng))) in
  let hits, _report = frequent eng ~phi in
  (* Completeness: every truly frequent value is returned. *)
  Hashtbl.iter
    (fun v c ->
      if !c >= threshold then
        Alcotest.(check bool)
          (Printf.sprintf "frequent value %d (count %d >= %d) returned" v !c threshold)
          true
          (List.exists (fun (h : HH.hit) -> h.value = v) hits))
    freq;
  (* Soundness: nothing below the threshold; bounds bracket truth. *)
  List.iter
    (fun (h : HH.hit) ->
      let t = truth freq h.value in
      Alcotest.(check bool)
        (Printf.sprintf "hit %d: bounds [%d,%d] bracket true %d" h.value h.lower h.upper t)
        true
        (h.lower <= t && t <= h.upper);
      Alcotest.(check bool)
        (Printf.sprintf "hit %d not spurious (true %d >= %d)" h.value t threshold)
        true (t >= threshold))
    hits

let test_guarantees () =
  let eng, freq = build ~seed:5 ~steps:8 ~step_size:2_000 ~s:1.2 in
  List.iter (fun phi -> check_guarantees eng freq ~phi) [ 0.01; 0.02; 0.05 ]

let test_uniform_finds_nothing_heavy () =
  (* Uniform data: no value close to 5% frequency; result must be empty. *)
  let eng = Hsq.Engine.create config in
  let rng = Hsq_util.Xoshiro.create 6 in
  for _ = 1 to 5 do
    ignore
      (Hsq.Engine.ingest_batch eng (Array.init 2_000 (fun _ -> Hsq_util.Xoshiro.int rng 100_000)))
  done;
  let hits, _ = frequent eng ~phi:0.05 in
  Alcotest.(check int) "no heavy hitters in uniform data" 0 (List.length hits)

let test_hist_only_is_exact () =
  let eng, freq = build ~seed:7 ~steps:6 ~step_size:1_500 ~s:1.3 in
  let hits, _ = frequent eng ~phi:0.02 in
  Alcotest.(check bool) "found something" true (hits <> []);
  List.iter
    (fun (h : HH.hit) ->
      Alcotest.(check int) (Printf.sprintf "value %d exact" h.value) (truth freq h.value) h.lower;
      Alcotest.(check int) "tight bounds" h.lower h.upper)
    hits

let test_validation () =
  let eng = Hsq.Engine.create config in
  Alcotest.check_raises "no data" (Invalid_argument "Heavy_hitters.frequent: no data") (fun () ->
      ignore (frequent eng ~phi:0.5));
  ignore (Hsq.Engine.ingest_batch eng [| 1; 1; 2 |]);
  List.iter
    (fun phi ->
      Alcotest.check_raises
        (Printf.sprintf "phi = %g rejected" phi)
        (Invalid_argument "Heavy_hitters.frequent: phi not in (0,1)")
        (fun () -> ignore (frequent eng ~phi)))
    [ 0.0; 1.0 ]

let test_io_bounded () =
  let eng, _ = build ~seed:9 ~steps:10 ~step_size:2_000 ~s:1.1 in
  let phi = 0.02 in
  let _, report = frequent eng ~phi in
  (* candidate probes ~ 1/phi per partition + 2 rank searches per
     candidate, each O(log n/B) *)
  let parts = Hsq_hist.Level_index.partition_count (Hsq.Engine.hist eng) in
  let cap = (parts * (int_of_float (1. /. phi) + 1)) + (report.HH.candidates * parts * 2 * 12) in
  Alcotest.(check bool)
    (Printf.sprintf "io %d within %d" (Hsq_storage.Io_stats.total report.HH.io) cap)
    true
    (Hsq_storage.Io_stats.total report.HH.io <= cap)

(* Every seventh of 30,000 values is min_int, the rest distinct, over
   three steps: min_int is the one 1% hitter, with its exact count, at
   K=1 and through a 3-shard group.  The rank below min_int is 0 (v - 1
   would wrap to max_int). *)
let test_min_int_counted () =
  let data = Array.init 30_000 (fun i -> if (i + 1) mod 7 = 0 then min_int else i + 1) in
  let check label (hits : HH.hit list) =
    Alcotest.(check (list (triple int int int)))
      label
      [ (min_int, 4_285, 4_285) ]
      (List.map (fun (h : HH.hit) -> (h.value, h.lower, h.upper)) hits)
  in
  let eng = Hsq.Engine.create config in
  for s = 0 to 2 do
    ignore (Hsq.Engine.ingest_batch eng (Array.sub data (s * 10_000) 10_000))
  done;
  check "K=1" (fst (frequent eng ~phi:0.01));
  let module G = Hsq_shard.Shard_group in
  let g = G.create (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:3 (Hsq.Config.Epsilon 0.05)) in
  Array.iteri
    (fun i v ->
      G.observe g v;
      if (i + 1) mod 10_000 = 0 then ignore (G.end_time_step g))
    data;
  let engines = List.map snd (G.engines g) in
  let hits, _ =
    HH.frequent
      ~stats:(List.map (fun e -> Hsq_storage.Block_device.stats (Hsq.Engine.device e)) engines)
      (List.concat_map (fun e -> Hsq_hist.Level_index.partitions (Hsq.Engine.hist e)) engines)
      ~phi:0.01
  in
  check "K=3" hits;
  G.close g

let prop_random =
  QCheck.Test.make ~name:"union HH guarantees on random skewed" ~count:15
    QCheck.(pair (int_range 1 6) (int_range 100 800))
    (fun (steps, step_size) ->
      let eng, freq = build ~seed:(steps + (step_size * 3)) ~steps ~step_size ~s:1.4 in
      let phi = 0.05 in
      let threshold = int_of_float (ceil (phi *. float_of_int (Hsq.Engine.total_size eng))) in
      let hits, _ = frequent eng ~phi in
      let complete =
        Hashtbl.fold
          (fun v c acc ->
            acc && (!c < threshold || List.exists (fun (h : HH.hit) -> h.value = v) hits))
          freq true
      in
      let exact =
        List.for_all
          (fun (h : HH.hit) ->
            let t = truth freq h.value in
            h.lower = t && h.upper = t && t >= threshold)
          hits
      in
      complete && exact)

let () =
  Alcotest.run "heavy_hitters"
    [
      ( "union",
        [
          Alcotest.test_case "completeness + soundness" `Quick test_guarantees;
          Alcotest.test_case "uniform finds nothing" `Quick test_uniform_finds_nothing_heavy;
          Alcotest.test_case "hist-only exact" `Quick test_hist_only_is_exact;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "io bounded" `Quick test_io_bounded;
          Alcotest.test_case "heavy min_int counted" `Quick test_min_int_counted;
          QCheck_alcotest.to_alcotest prop_random;
        ] );
    ]
