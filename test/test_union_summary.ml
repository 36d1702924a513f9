(* Tests for the union summary TS (Lemma 2) and filters (Lemma 4):
   every entry's [L, U] window brackets the true rank in T, windows are
   narrow, quick_select obeys Lemma 3, filters bracket the target
   rank, and the built entries equal a naive per-value reference. *)

module SS = Hsq.Stream_summary
module US = Hsq.Union_summary
module LI = Hsq_hist.Level_index
module PS = Hsq_hist.Partition_summary

(* TS's entries as records, read from its columns. *)
type entry = { value : int; lower : float; upper : float }

let entries us =
  let values, lower, upper = US.columns us in
  Array.mapi (fun i value -> { value; lower = lower.(i); upper = upper.(i) }) values

(* TS over the partitions and one stream. *)
let build ~partitions ~stream = US.build ~agg:(US.hist_aggregate ~partitions) ~streams:[ stream ]

(* Build a small warehouse + stream and return (union summary, all
   elements sorted, eps1, eps2, partition count). *)
let setup ?(kappa = 3) ?(beta1 = 6) ?(eps2 = 0.1) ~steps ~step_size ~stream_size ~seed () =
  let rng = Hsq_util.Xoshiro.create seed in
  let dev = Hsq_storage.Block_device.create_memory ~block_size:16 () in
  let li = LI.create ~kappa ~beta1 dev in
  let all = ref [] in
  for _ = 1 to steps do
    let b = Array.init step_size (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
    all := Array.to_list b @ !all;
    ignore (LI.add_batch li b)
  done;
  let gk = Hsq_sketch.Gk.create ~epsilon:(eps2 /. 2.0) in
  for _ = 1 to stream_size do
    let v = Hsq_util.Xoshiro.int rng 100_000 in
    Hsq_sketch.Gk.insert gk v;
    all := v :: !all
  done;
  let stream = SS.extract gk in
  let us = build ~partitions:(LI.partitions li) ~stream in
  let sorted = Array.of_list (List.sort compare !all) in
  (us, sorted, 1.0 /. float_of_int (beta1 - 1), eps2, LI.partition_count li)

let test_lemma2_brackets () =
  let us, sorted, _, _, _ = setup ~steps:9 ~step_size:500 ~stream_size:700 ~seed:61 () in
  Alcotest.(check int) "n_total" (Array.length sorted) (US.n_total us);
  Array.iter
    (fun (e : entry) ->
      let r = float_of_int (Hsq_util.Sorted.rank sorted e.value) in
      Alcotest.(check bool)
        (Printf.sprintf "L=%.1f <= rank(%d)=%.0f <= U=%.1f" e.lower e.value r e.upper)
        true
        (e.lower <= r && r <= e.upper))
    (entries us)

let test_lemma2_window_width () =
  let us, sorted, eps1, eps2, parts =
    setup ~steps:9 ~step_size:500 ~stream_size:700 ~seed:62 ()
  in
  let n = US.hist_elements us and m = US.m_stream us in
  let bound = Hsq.Errors.summary_window ~eps1 ~eps2 ~n ~m ~partitions:parts in
  ignore sorted;
  Array.iter
    (fun (e : entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "U-L = %.1f <= %.1f" (e.upper -. e.lower) bound)
        true
        (e.upper -. e.lower <= bound))
    (entries us)

let test_lemma3_quick_select () =
  let us, sorted, eps1, eps2, parts =
    setup ~steps:13 ~step_size:400 ~stream_size:900 ~seed:63 ()
  in
  let n_total = US.n_total us in
  let bound =
    Hsq.Errors.quick_rank_bound ~eps1 ~eps2 ~n:(US.hist_elements us) ~m:(US.m_stream us)
      ~partitions:parts
  in
  List.iter
    (fun phi ->
      let r = int_of_float (ceil (phi *. float_of_int n_total)) in
      let v = US.quick_select us ~rank:r in
      let hi = Hsq_util.Sorted.rank sorted v in
      let lo = Hsq_util.Sorted.rank_strict sorted v + 1 in
      let err = if r < lo then lo - r else if r > hi then r - hi else 0 in
      Alcotest.(check bool)
        (Printf.sprintf "phi=%.3f err %d <= %.1f" phi err bound)
        true
        (float_of_int err <= bound))
    [ 0.001; 0.01; 0.1; 0.5; 0.9; 0.99; 1.0 ]

let test_lemma4_filters_bracket () =
  let us, sorted, _, _, _ = setup ~steps:9 ~step_size:400 ~stream_size:500 ~seed:64 () in
  let n_total = US.n_total us in
  List.iter
    (fun phi ->
      let r = int_of_float (ceil (phi *. float_of_int n_total)) in
      let u, v = US.filters us ~rank:r in
      Alcotest.(check bool) "u <= v" true (u <= v);
      let rank_u = Hsq_util.Sorted.rank sorted u in
      let rank_v = Hsq_util.Sorted.rank sorted v in
      Alcotest.(check bool)
        (Printf.sprintf "phi=%.2f rank(u)=%d <= r=%d" phi rank_u r)
        true (rank_u <= r);
      Alcotest.(check bool)
        (Printf.sprintf "phi=%.2f rank(v)=%d >= r=%d" phi rank_v r)
        true (rank_v >= r))
    [ 0.001; 0.05; 0.25; 0.5; 0.75; 0.95; 1.0 ]

let test_stream_only () =
  (* No historical partitions at all. *)
  let gk = Hsq_sketch.Gk.create ~epsilon:0.05 in
  for i = 1 to 1000 do
    Hsq_sketch.Gk.insert gk i
  done;
  let us = build ~partitions:[] ~stream:(SS.extract gk) in
  Alcotest.(check int) "n_total" 1000 (US.n_total us);
  let v = US.quick_select us ~rank:500 in
  Alcotest.(check bool) "median-ish" true (abs (v - 500) <= 200)

let test_hist_only () =
  (* Empty stream. *)
  let dev = Hsq_storage.Block_device.create_memory ~block_size:16 () in
  let li = LI.create ~kappa:2 ~beta1:11 dev in
  ignore (LI.add_batch li (Array.init 1000 (fun i -> i + 1)));
  let stream = SS.extract (Hsq_sketch.Gk.create ~epsilon:0.05) in
  let us = build ~partitions:(LI.partitions li) ~stream in
  Alcotest.(check int) "n_total" 1000 (US.n_total us);
  Alcotest.(check int) "m 0" 0 (US.m_stream us);
  (* With exact summary ranks and no stream, L=U at summary points. *)
  Array.iter
    (fun (e : entry) -> Alcotest.(check bool) "window tight" true (e.upper -. e.lower <= 101.0))
    (entries us)

let test_empty_raises () =
  let stream = SS.extract (Hsq_sketch.Gk.create ~epsilon:0.05) in
  let us = build ~partitions:[] ~stream in
  Alcotest.check_raises "quick on empty"
    (Invalid_argument "Union_summary.quick_select: empty summary") (fun () ->
      ignore (US.quick_select us ~rank:1))

let prop_lemma2_random =
  QCheck.Test.make ~name:"Lemma 2 brackets on random instances" ~count:30
    QCheck.(triple (int_range 1 8) (int_range 1 80) (int_range 0 120))
    (fun (steps, step_size, stream_size) ->
      let rng = Hsq_util.Xoshiro.create (steps + (step_size * 131) + stream_size) in
      let dev = Hsq_storage.Block_device.create_memory ~block_size:8 () in
      let li = LI.create ~kappa:2 ~beta1:4 dev in
      let all = ref [] in
      for _ = 1 to steps do
        let b = Array.init step_size (fun _ -> Hsq_util.Xoshiro.int rng 1000) in
        all := Array.to_list b @ !all;
        ignore (LI.add_batch li b)
      done;
      let gk = Hsq_sketch.Gk.create ~epsilon:0.05 in
      for _ = 1 to stream_size do
        let v = Hsq_util.Xoshiro.int rng 1000 in
        Hsq_sketch.Gk.insert gk v;
        all := v :: !all
      done;
      let us = build ~partitions:(LI.partitions li) ~stream:(SS.extract gk) in
      let sorted = Array.of_list (List.sort compare !all) in
      Array.for_all
        (fun (e : entry) ->
          let r = float_of_int (Hsq_util.Sorted.rank sorted e.value) in
          e.lower <= r && r <= e.upper)
        (entries us))

(* The naive reference: for every distinct value of the partition
   summaries and the streams, sum the partitions' exact rank bounds and
   then the streams' Lemma 2 bounds in stream order from 0.0 — the
   definition of TS, with no aggregate and no merge. *)
let naive ~partitions ~streams =
  let sums = List.map Hsq_hist.Partition.summary partitions in
  let values =
    List.concat_map (fun s -> Array.to_list (Array.map (fun (e : PS.entry) -> e.value) (PS.entries s))) sums
    @ List.concat_map (fun s -> Array.to_list (SS.values s)) streams
  in
  List.map
    (fun v ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) s ->
            let l, h = PS.rank_bounds s v in
            (lo + l, hi + h))
          (0, 0) sums
      in
      let slo = List.fold_left (fun acc s -> acc +. SS.rank_lower s v) 0.0 streams in
      let shi = List.fold_left (fun acc s -> acc +. SS.rank_upper s v) 0.0 streams in
      { value = v; lower = float_of_int lo +. slo; upper = float_of_int hi +. shi })
    (List.sort_uniq compare values)

(* [US.build] over the partitions' aggregate must equal the naive
   reference bit for bit, floats included; with no streams it checks
   the aggregate alone. *)
let check_reference ctx ~partitions ~streams =
  let bits x = Int64.bits_of_float x in
  let us = US.build ~agg:(US.hist_aggregate ~partitions) ~streams in
  let want = Array.of_list (naive ~partitions ~streams) in
  let got = entries us in
  let n = List.fold_left (fun acc p -> acc + Hsq_hist.Partition.size p) 0 partitions in
  let m = List.fold_left (fun acc s -> acc + SS.stream_size s) 0 streams in
  Alcotest.(check int) (ctx ^ ": entries") (Array.length want) (Array.length got);
  Alcotest.(check (triple int int int))
    (ctx ^ ": n_total, m_stream, hist_elements")
    (n + m, m, n)
    (US.n_total us, US.m_stream us, US.hist_elements us);
  Array.iteri
    (fun i (w : entry) ->
      let g = got.(i) in
      if not (w.value = g.value && bits w.lower = bits g.lower && bits w.upper = bits g.upper) then
        Alcotest.failf "%s: entry %d is (%d, %h, %h), reference (%d, %h, %h)" ctx i g.value g.lower
          g.upper w.value w.lower w.upper)
    want

let test_reference_sums () =
  let rng = Hsq_util.Xoshiro.create 0x5EED in
  (* Few distinct small values, so values repeat within and across
     partitions and streams, plus both ends of the int range. *)
  let value () =
    match Hsq_util.Xoshiro.int rng 20 with
    | 0 -> min_int
    | 1 -> max_int
    | k when k < 12 -> Hsq_util.Xoshiro.int rng 40
    | _ -> Hsq_util.Xoshiro.int rng 1_000_000 - 500_000
  in
  let dev = Hsq_storage.Block_device.create_memory ~block_size:16 () in
  let li = LI.create ~kappa:3 ~beta1:6 dev in
  for _ = 1 to 7 do
    ignore (LI.add_batch li (Array.init (50 + Hsq_util.Xoshiro.int rng 300) (fun _ -> value ())))
  done;
  let stream count =
    let gk = Hsq_sketch.Gk.create ~epsilon:0.05 in
    for _ = 1 to count do
      Hsq_sketch.Gk.insert gk (value ())
    done;
    SS.extract gk
  in
  let partitions = LI.partitions li in
  Alcotest.(check bool) "several partitions" true (List.length partitions >= 3);
  (* A quarantined partition restored from the sidecar: no summary
     entries, bounds (0, size) at every value. *)
  let quarantined =
    List.mapi
      (fun i p ->
        if i <> 1 then p
        else
          Hsq_hist.Partition.create ~run:(Hsq_hist.Partition.run p)
            ~summary:(PS.unavailable ~size:(Hsq_hist.Partition.size p))
            ~first_step:(Hsq_hist.Partition.first_step p)
            ~last_step:(Hsq_hist.Partition.last_step p)
            ~level:(Hsq_hist.Partition.level p))
      partitions
  in
  let one = [ stream 700 ] and three = [ stream 400; stream 0; stream 900 ] in
  List.iter
    (fun (ctx, partitions, streams) -> check_reference ctx ~partitions ~streams)
    [
      ("aggregate", partitions, []);
      ("aggregate, quarantined", quarantined, []);
      ("K=1", partitions, one);
      ("K=1, empty stream", partitions, [ stream 0 ]);
      ("K=1, quarantined", quarantined, one);
      ("K=1, no history", [], one);
      ("K=3", partitions, three);
      ("K=3, quarantined", quarantined, three);
      ("K=3, no history", [], three);
      ("nothing", [], [ stream 0 ]);
    ]

(* --- Queries against linear scans of the columns ------------------------ *)

(* Algorithm 5 by scan: the first entry whose L reaches r, else the last. *)
let scan_quick (values, lower, _) rank =
  let r = float_of_int rank and n = Array.length values in
  let rec go j = if j = n then values.(n - 1) else if lower.(j) >= r then values.(j) else go (j + 1) in
  go 0

(* Algorithm 7 by scan: u the last entry whose U is at most r (min - 1,
   or min_int itself, when none is), v as quick. *)
let scan_filters ((values, _, upper) as cols) rank =
  let r = float_of_int rank in
  let u = ref None in
  Array.iteri (fun i x -> if upper.(i) <= r then u := Some x) values;
  let u =
    match !u with Some x -> x | None -> if values.(0) = min_int then min_int else values.(0) - 1
  in
  (u, max u (scan_quick cols rank))

(* L of the last entry <= v (0 when none), U of the first entry >= v
   (N when none). *)
let scan_window (values, lower, upper) ~n_total v =
  let lo = ref 0.0 and hi = ref None in
  Array.iteri
    (fun i x ->
      if x <= v then lo := lower.(i);
      if x >= v && !hi = None then hi := Some upper.(i))
    values;
  (!lo, Option.value !hi ~default:(float_of_int n_total))

(* Every query of [us] equals its scan at ranks 0, 1, N, N + 1 and the
   floor and ceiling of every entry's L and U (exact ties where they are
   integers), and at every entry's value, its neighbours, and values
   below the minimum and above the maximum. *)
let check_queries ctx us =
  let ((values, lower, upper) as cols) = US.columns us in
  let n_total = US.n_total us and n = Array.length values in
  Alcotest.(check bool) (ctx ^ ": nonempty") true (n > 0);
  let ranks =
    [ 0; 1; n_total; n_total + 1 ]
    @ List.concat_map
        (fun x -> [ int_of_float (floor x); int_of_float (ceil x) ])
        (Array.to_list lower @ Array.to_list upper)
  in
  List.iter
    (fun rank ->
      Alcotest.(check int)
        (Printf.sprintf "%s: quick_select %d" ctx rank)
        (scan_quick cols rank) (US.quick_select us ~rank);
      Alcotest.(check (pair int int))
        (Printf.sprintf "%s: filters %d" ctx rank)
        (scan_filters cols rank) (US.filters us ~rank))
    ranks;
  let edge x d = if (d < 0 && x = min_int) || (d > 0 && x = max_int) then x else x + d in
  let probes =
    [ edge values.(0) (-1); edge values.(n - 1) 1; min_int; max_int ]
    @ List.concat_map (fun x -> [ edge x (-1); x; edge x 1 ]) (Array.to_list values)
  in
  List.iter
    (fun v ->
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        (Printf.sprintf "%s: rank_window %d" ctx v)
        (scan_window cols ~n_total v) (US.rank_window us v))
    probes

let test_queries_match_scans () =
  let rng = Hsq_util.Xoshiro.create 0xC0105 in
  (* Values from a small domain, so they repeat within and across
     partitions and streams; [floor] adds min_int to the domain. *)
  let value ~floor () =
    if floor && Hsq_util.Xoshiro.int rng 50 = 0 then min_int else Hsq_util.Xoshiro.int rng 60
  in
  let partitions ~floor =
    let dev = Hsq_storage.Block_device.create_memory ~block_size:16 () in
    let li = LI.create ~kappa:3 ~beta1:6 dev in
    for _ = 1 to 6 do
      ignore (LI.add_batch li (Array.init (40 + Hsq_util.Xoshiro.int rng 200) (fun _ -> value ~floor ())))
    done;
    LI.partitions li
  in
  let stream ~floor count =
    let gk = Hsq_sketch.Gk.create ~epsilon:0.05 in
    for _ = 1 to count do
      Hsq_sketch.Gk.insert gk (value ~floor ())
    done;
    SS.extract gk
  in
  let hist = partitions ~floor:false and hist_min = partitions ~floor:true in
  List.iter
    (fun (ctx, partitions, streams) ->
      let us = US.build ~agg:(US.hist_aggregate ~partitions) ~streams in
      check_queries ctx us;
      let values, _, _ = US.columns us in
      let floor = if values.(0) = min_int then min_int else values.(0) - 1 in
      Alcotest.(check int) (ctx ^ ": u below every U") floor (fst (US.filters us ~rank:0)))
    [
      ("history only", hist, [ stream ~floor:false 0 ]);
      ("K=1", hist, [ stream ~floor:false 500 ]);
      ("K=1, min_int", hist_min, [ stream ~floor:true 500 ]);
      ("K=3", hist, [ stream ~floor:false 300; stream ~floor:false 0; stream ~floor:false 700 ]);
      ("K=3, min_int", hist_min, [ stream ~floor:true 300; stream ~floor:true 200; stream ~floor:false 700 ]);
      ("K=3, no history", [], [ stream ~floor:true 300; stream ~floor:false 400; stream ~floor:true 50 ]);
    ]

let () =
  Alcotest.run "union_summary"
    [
      ( "lemma 2",
        [
          Alcotest.test_case "L/U bracket ranks" `Quick test_lemma2_brackets;
          Alcotest.test_case "window width" `Quick test_lemma2_window_width;
          QCheck_alcotest.to_alcotest prop_lemma2_random;
        ] );
      ( "lemma 3 / quick",
        [ Alcotest.test_case "quick_select error" `Quick test_lemma3_quick_select ] );
      ( "lemma 4 / filters",
        [ Alcotest.test_case "filters bracket rank" `Quick test_lemma4_filters_bracket ] );
      ( "reference",
        [
          Alcotest.test_case "aggregate and build match naive sums" `Quick
            test_reference_sums;
          Alcotest.test_case "queries match scans of the columns" `Quick
            test_queries_match_scans;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "stream only" `Quick test_stream_only;
          Alcotest.test_case "hist only" `Quick test_hist_only;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
        ] );
    ]
