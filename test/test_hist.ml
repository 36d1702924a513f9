(* Tests for hsq_hist: partition summaries (Algorithm 2), partitions,
   and the leveled index (Algorithm 3 / Figure 2). *)

module PS = Hsq_hist.Partition_summary
module P = Hsq_hist.Partition
module LI = Hsq_hist.Level_index

let mem_dev ?(block_size = 16) () = Hsq_storage.Block_device.create_memory ~block_size ()

(* --- Partition_summary ------------------------------------------------ *)

let test_summary_figure3_example () =
  (* Figure 3: partition P1 = 1..100, eps1 = 1/4 => beta1 = 5, summary
     = [1; 25; 50; 75; 100]. *)
  let data = Array.init 100 (fun i -> i + 1) in
  let s = PS.of_sorted_array ~beta1:5 data in
  let values = Array.map (fun (e : PS.entry) -> e.value) (PS.entries s) in
  Alcotest.(check (array int)) "figure 3 summary" [| 1; 25; 50; 75; 100 |] values

let test_summary_entries_have_exact_indices () =
  let data = Array.init 997 (fun i -> 3 * i) in
  let s = PS.of_sorted_array ~beta1:11 data in
  Array.iter
    (fun (e : PS.entry) -> Alcotest.(check int) "value at index" data.(e.index) e.value)
    (PS.entries s)

let test_summary_spacing () =
  (* Consecutive captured indices differ by at most ceil(eta/(beta1-1)). *)
  let eta = 1234 and beta1 = 9 in
  let data = Array.init eta (fun i -> i) in
  let s = PS.of_sorted_array ~beta1 data in
  let entries = PS.entries s in
  let max_gap = (eta + beta1 - 2) / (beta1 - 1) in
  for i = 1 to Array.length entries - 1 do
    Alcotest.(check bool) "spacing" true (entries.(i).index - entries.(i - 1).index <= max_gap)
  done;
  Alcotest.(check int) "first is min" 0 entries.(0).index;
  Alcotest.(check int) "last is max" (eta - 1) entries.(Array.length entries - 1).index

let test_summary_tiny_partition () =
  let s = PS.of_sorted_array ~beta1:8 [| 5 |] in
  Alcotest.(check int) "one entry" 1 (PS.length s);
  let s2 = PS.of_sorted_array ~beta1:8 [| 1; 2 |] in
  Alcotest.(check bool) "dedup" true (PS.length s2 <= 2)

let test_summary_rank_bounds_bracket () =
  let data = Array.init 500 (fun i -> 2 * i) in
  let s = PS.of_sorted_array ~beta1:6 data in
  List.iter
    (fun v ->
      let lo, hi = PS.rank_bounds s v in
      let true_rank = Hsq_util.Sorted.rank data v in
      Alcotest.(check bool)
        (Printf.sprintf "bounds bracket rank(%d)=%d in [%d,%d]" v true_rank lo hi)
        true
        (lo <= true_rank && true_rank <= hi))
    [ -5; 0; 1; 2; 500; 501; 998; 999; 2000 ]

let test_summary_builder_requires_all () =
  let b = PS.builder ~beta1:4 ~size:10 in
  PS.builder_feed b 0 1;
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Partition_summary.builder_finish: not all elements were fed") (fun () ->
      ignore (PS.builder_finish b))

let prop_rank_bounds =
  QCheck.Test.make ~name:"summary rank bounds always bracket" ~count:200
    QCheck.(triple (list_of_size Gen.(1 -- 300) (int_bound 1000)) (int_range 2 20) (int_bound 1100))
    (fun (l, beta1, probe) ->
      let data = Array.of_list (List.sort compare l) in
      let s = PS.of_sorted_array ~beta1 data in
      let lo, hi = PS.rank_bounds s probe in
      let r = Hsq_util.Sorted.rank data probe in
      lo <= r && r <= hi)

(* --- Level_index ------------------------------------------------------ *)

let batch_of rng n = Array.init n (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000)

let build_index ?(kappa = 3) ?(beta1 = 6) ?(steps = 13) ?(step_size = 300) ~seed () =
  let rng = Hsq_util.Xoshiro.create seed in
  let dev = mem_dev () in
  let li = LI.create ~kappa ~beta1 dev in
  let all = ref [] in
  for _ = 1 to steps do
    let b = batch_of rng step_size in
    all := Array.to_list b @ !all;
    ignore (LI.add_batch li b)
  done;
  (li, Array.of_list !all)

let test_figure2_evolution () =
  (* Figure 2, kappa = 2: after 3 steps level 0 collapses into P_{1,3};
     after 13 steps the structure is P_{1,9} | P_{10,12} | P_13. *)
  let dev = mem_dev () in
  let li = LI.create ~kappa:2 ~beta1:4 dev in
  for _ = 1 to 13 do
    ignore (LI.add_batch li [| 1; 2; 3 |])
  done;
  let describe p = (P.first_step p, P.last_step p, P.level p) in
  let parts = List.map describe (LI.partitions li) in
  Alcotest.(check (list (triple int int int)))
    "figure 2 state after 13 steps"
    [ (13, 13, 0); (10, 12, 1); (1, 9, 2) ]
    parts

let test_invariants_across_kappas () =
  List.iter
    (fun kappa ->
      let li, _ = build_index ~kappa ~steps:25 ~step_size:100 ~seed:(100 + kappa) () in
      Alcotest.(check (list string)) (Printf.sprintf "kappa=%d invariants" kappa) []
        (LI.check_invariants li))
    [ 2; 3; 5; 10 ]

let test_multiset_preserved () =
  let li, all = build_index ~seed:42 () in
  let stored =
    List.concat_map (fun p -> Array.to_list (Hsq_storage.Run.to_array (P.run p))) (LI.partitions li)
  in
  Alcotest.(check int) "total elements" (Array.length all) (LI.total_elements li);
  Alcotest.(check (list int)) "same multiset" (List.sort compare (Array.to_list all))
    (List.sort compare stored)

let test_rank_exact () =
  let li, all = build_index ~seed:43 () in
  Array.sort compare all;
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "rank %d" v) (Hsq_util.Sorted.rank all v) (LI.rank li v))
    [ -1; 0; all.(0); all.(100); all.(Array.length all - 1); max_int / 4 ]

let test_level_count_logarithmic () =
  let li, _ = build_index ~kappa:3 ~steps:40 ~step_size:50 ~seed:44 () in
  (* ceil(log3 40) + 1 = 5 levels max *)
  Alcotest.(check bool) "levels bounded" true (LI.num_levels li <= 5)

let test_update_report_merge_accounting () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:2 ~beta1:4 dev in
  (* Steps 1-2: no merge.  Step 3: level-0 merge. *)
  ignore (LI.add_batch li [| 1; 2 |]);
  let r2 = LI.add_batch li [| 3; 4 |] in
  Alcotest.(check int) "no merge yet" 0 r2.LI.merges_performed;
  Alcotest.(check int) "no merge io" 0 (Hsq_storage.Io_stats.total r2.LI.io_merge);
  let r3 = LI.add_batch li [| 5; 6 |] in
  Alcotest.(check int) "merge at step 3" 1 r3.LI.merges_performed;
  Alcotest.(check bool) "merge io > 0" true (Hsq_storage.Io_stats.total r3.LI.io_merge > 0)

let test_load_io_proportional_to_batch () =
  let dev = mem_dev ~block_size:16 () in
  let li = LI.create ~kappa:10 ~beta1:4 dev in
  let r = LI.add_batch li (Array.init 160 (fun i -> i)) in
  (* 160 elements / 16 per block = 10 block writes, no reads. *)
  Alcotest.(check int) "writes" 10 r.LI.io_total.Hsq_storage.Io_stats.writes;
  Alcotest.(check int) "reads" 0 r.LI.io_total.Hsq_storage.Io_stats.reads

let test_empty_batch_rejected () =
  let li = LI.create ~kappa:2 ~beta1:4 (mem_dev ()) in
  Alcotest.check_raises "empty" (Invalid_argument "Level_index.add_batch: empty batch") (fun () ->
      ignore (LI.add_batch li [||]))

(* Window sizes are suffix ranges [steps - w + 1, steps]: one per
   partition start. *)
let suffix_sizes li =
  List.rev_map (fun (first, _) -> LI.time_steps li - first + 1) (LI.partition_boundaries li)

let suffix li w =
  LI.partitions_for_range li ~first:(LI.time_steps li - w + 1) ~last:(LI.time_steps li)

let test_window_sizes_kappa3 () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:3 ~beta1:4 dev in
  for _ = 1 to 13 do
    ignore (LI.add_batch li [| 1; 2; 3 |])
  done;
  (* kappa=3: merges at steps 4, 8, 12 -> partitions P1-4, P5-8, P9-12
     at level 1 and P13 at level 0. *)
  Alcotest.(check (list int)) "windows" [ 1; 5; 9; 13 ] (suffix_sizes li);
  List.iter
    (fun w -> Alcotest.(check bool) (Printf.sprintf "window %d tiles" w) true (suffix li w <> None))
    (suffix_sizes li)

let test_window_partitions () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:3 ~beta1:4 dev in
  for s = 1 to 13 do
    ignore (LI.add_batch li [| s; s; s |])
  done;
  (match suffix li 5 with
  | None -> Alcotest.fail "window 5 should be available"
  | Some ps ->
    let total = List.fold_left (fun acc p -> acc + P.size p) 0 ps in
    Alcotest.(check int) "window 5 holds 5 steps of data" 15 total;
    List.iter
      (fun p -> Alcotest.(check bool) "covers last 5 steps" true (P.first_step p >= 9))
      ps);
  Alcotest.(check bool) "window 2 unaligned" true (suffix li 2 = None);
  Alcotest.(check bool) "window 0 rejected" true (suffix li 0 = None);
  Alcotest.(check bool) "window too large" true (suffix li 14 = None)

let test_memory_words_tracks_summaries () =
  let li, _ = build_index ~beta1:10 ~seed:45 () in
  let manual =
    List.fold_left (fun acc p -> acc + P.memory_words p) 16 (LI.partitions li)
  in
  Alcotest.(check int) "memory accounting" manual (LI.memory_words li)

let prop_invariants_random_schedules =
  QCheck.Test.make ~name:"level index invariants for random schedules" ~count:40
    QCheck.(triple (int_range 2 6) (int_range 1 30) (int_range 1 60))
    (fun (kappa, steps, step_size) ->
      let dev = mem_dev ~block_size:8 () in
      let li = LI.create ~kappa ~beta1:4 dev in
      let rng = Hsq_util.Xoshiro.create (kappa + (steps * 31)) in
      for _ = 1 to steps do
        ignore (LI.add_batch li (batch_of rng step_size))
      done;
      LI.check_invariants li = [] && LI.time_steps li = steps)

let prop_rank_matches_oracle =
  QCheck.Test.make ~name:"index rank = oracle rank" ~count:40
    QCheck.(pair (list_of_size Gen.(1 -- 200) (int_bound 500)) (int_bound 600))
    (fun (l, probe) ->
      let dev = mem_dev ~block_size:8 () in
      let li = LI.create ~kappa:2 ~beta1:4 dev in
      (* split l into batches of <= 20 *)
      let rec chunks = function
        | [] -> []
        | l ->
          let take = min 20 (List.length l) in
          let rec split i acc rest =
            if i = 0 then (List.rev acc, rest)
            else match rest with [] -> (List.rev acc, []) | x :: xs -> split (i - 1) (x :: acc) xs
          in
          let batch, rest = split take [] l in
          batch :: chunks rest
      in
      List.iter (fun b -> ignore (LI.add_batch li (Array.of_list b))) (chunks l);
      let sorted = Array.of_list (List.sort compare l) in
      LI.rank li probe = Hsq_util.Sorted.rank sorted probe)

let test_lemma6_amortized_merge_io () =
  (* Lemma 6: total merge I/O over T steps is O((n/B) * log_kappa T) —
     each element is read+written at most once per level of merging. *)
  List.iter
    (fun kappa ->
      let block_size = 16 in
      let dev = mem_dev ~block_size () in
      let li = LI.create ~kappa ~beta1:4 dev in
      let steps = 40 and step_size = 160 in
      let rng = Hsq_util.Xoshiro.create (500 + kappa) in
      let merge_io = ref 0 in
      for _ = 1 to steps do
        let r = LI.add_batch li (batch_of rng step_size) in
        merge_io := !merge_io + Hsq_storage.Io_stats.total r.LI.io_merge
      done;
      let n = steps * step_size in
      let levels =
        int_of_float (ceil (log (float_of_int steps) /. log (float_of_int kappa)))
      in
      (* reads + writes: 2 block-accesses per element-block per level *)
      let bound = 2 * ((n / block_size) + steps) * levels in
      Alcotest.(check bool)
        (Printf.sprintf "kappa=%d merge io %d <= %d" kappa !merge_io bound)
        true
        (!merge_io <= bound))
    [ 2; 3; 5; 10 ]

let test_expire_drops_old_partitions () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:3 ~beta1:4 dev in
  for s = 1 to 13 do
    ignore (LI.add_batch li (Array.make 30 s))
  done;
  (* partitions: P1-4, P5-8, P9-12, P13 *)
  let parts, elems = LI.expire li ~keep_steps:5 in
  (* cutoff = 8: P1-4 and P5-8 drop; P9-12 straddles nothing (last=12>8) *)
  Alcotest.(check int) "partitions dropped" 2 parts;
  Alcotest.(check int) "elements dropped" (8 * 30) elems;
  Alcotest.(check int) "total shrank" (5 * 30) (LI.total_elements li);
  Alcotest.(check int) "expired through" 8 (LI.expired_through li);
  Alcotest.(check (list string)) "invariants after expire" [] (LI.check_invariants li);
  (* windows still work over the retained suffix *)
  Alcotest.(check (list int)) "windows" [ 1; 5 ] (suffix_sizes li);
  (* ranks only cover the retained data *)
  Alcotest.(check int) "rank over retained" (5 * 30) (LI.rank li 100);
  (* expiring again with a huge keep is a no-op *)
  Alcotest.(check (pair int int)) "no-op expire" (0, 0) (LI.expire li ~keep_steps:100);
  (* straddling partitions are kept whole: cutoff 11 falls inside
     P9-12, which therefore survives in full *)
  let parts2, _ = LI.expire li ~keep_steps:2 in
  Alcotest.(check int) "straddler kept" 0 parts2;
  Alcotest.(check int) "straddler data intact" (5 * 30) (LI.total_elements li);
  Alcotest.check_raises "bad keep" (Invalid_argument "Level_index.expire: keep_steps must be >= 1")
    (fun () -> ignore (LI.expire li ~keep_steps:0))

let test_expire_then_continue () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:2 ~beta1:4 dev in
  for s = 1 to 9 do
    ignore (LI.add_batch li (Array.make 10 s));
    if s mod 3 = 0 then ignore (LI.expire li ~keep_steps:4)
  done;
  Alcotest.(check (list string)) "invariants" [] (LI.check_invariants li);
  (* life continues: more batches, merges still fire *)
  for s = 10 to 15 do
    ignore (LI.add_batch li (Array.make 10 s))
  done;
  Alcotest.(check (list string)) "invariants after growth" [] (LI.check_invariants li);
  Alcotest.(check int) "steps keep counting" 15 (LI.time_steps li)

(* --- Quarantine ------------------------------------------------------- *)

let test_quarantine_threshold_and_reset () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:4 ~beta1:6 dev in
  for s = 1 to 3 do
    ignore (LI.add_batch li (Array.init 100 (fun i -> (s * 1000) + i)))
  done;
  let p = List.hd (LI.partitions li) in
  let e0 = LI.epoch li in
  Alcotest.(check bool) "first failure below threshold" false
    (LI.note_probe_failure li p ~threshold:3);
  Alcotest.(check bool) "second failure below threshold" false
    (LI.note_probe_failure li p ~threshold:3);
  LI.note_probe_success li p;
  (* the success reset the streak: two more failures still don't trip *)
  Alcotest.(check bool) "streak reset" false (LI.note_probe_failure li p ~threshold:3);
  Alcotest.(check bool) "still below" false (LI.note_probe_failure li p ~threshold:3);
  Alcotest.(check bool) "still active" false (LI.is_quarantined li p);
  Alcotest.(check int) "epoch untouched below threshold" e0 (LI.epoch li);
  Alcotest.(check bool) "third consecutive failure quarantines" true
    (LI.note_probe_failure li p ~threshold:3);
  Alcotest.(check bool) "quarantined" true (LI.is_quarantined li p);
  Alcotest.(check bool) "epoch bumped" true (LI.epoch li > e0);
  Alcotest.(check int) "quarantined count" 1 (LI.quarantined_count li);
  Alcotest.(check int) "widening equals the partition's elements" (P.size p)
    (LI.quarantined_elements li);
  Alcotest.(check int) "active set excludes it"
    (LI.partition_count li - 1)
    (List.length (LI.active_partitions li));
  Alcotest.(check bool) "coverage still sees it" true
    (List.exists (fun q -> q == p) (LI.partitions li));
  Alcotest.(check (list string)) "invariants tolerate quarantine" [] (LI.check_invariants li)

let test_quarantine_reinstate_roundtrip () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:4 ~beta1:6 dev in
  for s = 1 to 3 do
    ignore (LI.add_batch li (Array.init 120 (fun i -> (s * 1000) + i)))
  done;
  let p = List.hd (LI.partitions li) in
  LI.quarantine_partition li p;
  LI.quarantine_partition li p;
  Alcotest.(check int) "double quarantine is a no-op" 1 (LI.quarantined_count li);
  let e1 = LI.epoch li in
  (match LI.reinstate li p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reinstate on a healthy device failed: %s" msg);
  Alcotest.(check bool) "back in service" false (LI.is_quarantined li p);
  Alcotest.(check int) "no widening left" 0 (LI.quarantined_elements li);
  Alcotest.(check bool) "epoch bumped by reinstate" true (LI.epoch li > e1);
  Alcotest.(check int) "active set whole again" (LI.partition_count li)
    (List.length (LI.active_partitions li));
  Alcotest.(check (list string)) "invariants clean" [] (LI.check_invariants li)

let test_quarantine_defers_merges () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:2 ~beta1:4 dev in
  ignore (LI.add_batch li [| 1; 2; 3 |]);
  let p = List.hd (LI.partitions li) in
  LI.quarantine_partition li p;
  (* level 0 would collapse at the third batch (Figure 2, kappa = 2);
     with a quarantined member the merge is deferred, the level
     temporarily exceeds kappa, and the invariant checker tolerates
     exactly that. *)
  ignore (LI.add_batch li [| 4; 5; 6 |]);
  ignore (LI.add_batch li [| 7; 8; 9 |]);
  Alcotest.(check (list string)) "deferral tolerated" [] (LI.check_invariants li);
  let before = LI.partition_count li in
  Alcotest.(check bool) "level over kappa while deferred" true (before > 2);
  (match LI.reinstate li p with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reinstate failed: %s" msg);
  Alcotest.(check bool) "deferred merge ran" true (LI.partition_count li < before);
  Alcotest.(check (list string)) "invariants after the deferred merge" []
    (LI.check_invariants li);
  Alcotest.(check int) "multiset preserved" 9
    (List.fold_left (fun acc q -> acc + P.size q) 0 (LI.partitions li))

let test_quarantine_describe_restore () =
  let dev = mem_dev () in
  let li = LI.create ~kappa:4 ~beta1:6 dev in
  for s = 1 to 3 do
    ignore (LI.add_batch li (Array.init 90 (fun i -> (s * 1000) + i)))
  done;
  let p = List.hd (LI.partitions li) in
  LI.quarantine_partition li p;
  let descs = LI.describe li in
  Alcotest.(check int) "one descriptor flagged" 1
    (List.length (List.filter (fun d -> d.LI.quarantined) descs));
  let stats = Hsq_storage.Block_device.stats dev in
  let before = (Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.reads in
  let li2 = LI.restore ~kappa:4 ~beta1:6 dev descs in
  Alcotest.(check int) "quarantine survives restore" 1 (LI.quarantined_count li2);
  Alcotest.(check int) "same widening after restore" (LI.quarantined_elements li)
    (LI.quarantined_elements li2);
  let flagged_reads =
    (Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.reads - before
  in
  (* the flagged partition's (possibly bad) blocks were never read: the
     same restore with the flag cleared pays strictly more I/O for its
     summary re-read *)
  let before2 = (Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.reads in
  ignore (LI.restore ~kappa:4 ~beta1:6 dev
            (List.map (fun d -> { d with LI.quarantined = false }) descs));
  let unflagged_reads =
    (Hsq_storage.Io_stats.snapshot stats).Hsq_storage.Io_stats.reads - before2
  in
  Alcotest.(check bool)
    (Printf.sprintf "restore skipped the quarantined blocks (%d < %d)" flagged_reads
       unflagged_reads)
    true (flagged_reads < unflagged_reads);
  (* on this healthy device the restored partition re-verifies clean *)
  (match LI.reinstate li2 (List.hd (LI.quarantined li2)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reinstate after restore failed: %s" msg);
  Alcotest.(check int) "clean after reinstate" 0 (LI.quarantined_count li2);
  Alcotest.(check (list string)) "restored invariants" [] (LI.check_invariants li2)

let () =
  Alcotest.run "hist"
    [
      ( "partition_summary",
        [
          Alcotest.test_case "figure 3 example" `Quick test_summary_figure3_example;
          Alcotest.test_case "exact indices" `Quick test_summary_entries_have_exact_indices;
          Alcotest.test_case "spacing" `Quick test_summary_spacing;
          Alcotest.test_case "tiny partitions" `Quick test_summary_tiny_partition;
          Alcotest.test_case "rank bounds bracket" `Quick test_summary_rank_bounds_bracket;
          Alcotest.test_case "builder completeness" `Quick test_summary_builder_requires_all;
          QCheck_alcotest.to_alcotest prop_rank_bounds;
        ] );
      ( "level_index",
        [
          Alcotest.test_case "figure 2 evolution" `Quick test_figure2_evolution;
          Alcotest.test_case "invariants across kappas" `Quick test_invariants_across_kappas;
          Alcotest.test_case "multiset preserved" `Quick test_multiset_preserved;
          Alcotest.test_case "rank exact" `Quick test_rank_exact;
          Alcotest.test_case "levels logarithmic" `Quick test_level_count_logarithmic;
          Alcotest.test_case "merge accounting" `Quick test_update_report_merge_accounting;
          Alcotest.test_case "load io proportional" `Quick test_load_io_proportional_to_batch;
          Alcotest.test_case "empty batch rejected" `Quick test_empty_batch_rejected;
          QCheck_alcotest.to_alcotest prop_invariants_random_schedules;
          QCheck_alcotest.to_alcotest prop_rank_matches_oracle;
        ] );
      ( "windows",
        [
          Alcotest.test_case "window sizes (kappa=3)" `Quick test_window_sizes_kappa3;
          Alcotest.test_case "window partitions" `Quick test_window_partitions;
        ] );
      ( "memory",
        [ Alcotest.test_case "memory accounting" `Quick test_memory_words_tracks_summaries ] );
      ( "lemma 6",
        [ Alcotest.test_case "amortized merge io" `Quick test_lemma6_amortized_merge_io ] );
      ( "retention",
        [
          Alcotest.test_case "expire drops old partitions" `Quick test_expire_drops_old_partitions;
          Alcotest.test_case "expire then continue" `Quick test_expire_then_continue;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "threshold and reset" `Quick test_quarantine_threshold_and_reset;
          Alcotest.test_case "reinstate roundtrip" `Quick test_quarantine_reinstate_roundtrip;
          Alcotest.test_case "defers merges" `Quick test_quarantine_defers_merges;
          Alcotest.test_case "describe/restore" `Quick test_quarantine_describe_restore;
        ] );
    ]
