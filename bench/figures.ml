(* One generator per figure of the paper's evaluation (Section 3.2).
   Each prints the same series the paper plots, as an aligned table.
   Absolute numbers reflect the simulator scale; the shapes are the
   reproduction target (see EXPERIMENTS.md). *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
open Harness

let datasets = Hsq_workload.Datasets.names

let config_of ~scale ~kappa ~words ?steps () =
  let steps_hint = Option.value steps ~default:scale.steps in
  Hsq.Config.make ~kappa ~block_size:scale.block_size ~steps_hint (Hsq.Config.Memory_words words)

let kappas = [ 3; 5; 7; 9; 10; 15; 20; 25; 30 ]

(* Fixed budget used by the kappa sweeps — the paper's "memory fixed at
   250 MB" for ~100 GB, i.e. 0.25% of N. *)
let fixed_budget w = max 512 (int_of_float (0.0025 *. float_of_int w.total))

(* --- Figure 4: relative error vs memory --------------------------------- *)

let fig4 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf "Figure 4 (%s): relative error vs memory, kappa=10, N=%d, %d run(s)" ds
           ((scale.steps + 1) * scale.step_size)
           scale.runs);
      print_row
        [ fmt_i 0; "   ours-accurate"; "  quick-response"; "              gk"; "        q-digest" ];
      (* One workload per seed, reused across every budget and system;
         medians across seeds per cell. *)
      let per_seed =
        List.init scale.runs (fun i ->
            let scale = { scale with seed = scale.seed + (7919 * i) } in
            let w = load_workload ~scale ~dataset:ds () in
            List.map
              (fun words ->
                let eng, _ = build_engine ~config:(config_of ~scale ~kappa:10 ~words ()) w in
                let row =
                  ( accurate_error eng w,
                    quick_error eng w,
                    streaming_error ~algorithm:Hsq.Baselines.Streaming.Gk_stream ~words w,
                    streaming_error ~algorithm:Hsq.Baselines.Streaming.Qdigest_stream ~words w )
                in
                (words, row))
              (memory_budgets w))
      in
      match per_seed with
      | [] -> ()
      | first :: _ ->
        List.iteri
          (fun row_idx (words, _) ->
            let med proj =
              Hsq_util.Stats.median
                (List.map (fun rows -> proj (snd (List.nth rows row_idx))) per_seed)
            in
            print_row
              [
                fmt_i words;
                fmt_e (med (fun (a, _, _, _) -> a));
                fmt_e (med (fun (_, q, _, _) -> q));
                fmt_e (med (fun (_, _, g, _) -> g));
                fmt_e (med (fun (_, _, _, d) -> d));
              ])
          first)
    datasets

(* --- Figure 5: relative error vs kappa ---------------------------------- *)

let fig5 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf "Figure 5 (%s): relative error vs kappa, memory fixed at 0.25%% of N" ds);
      print_row [ fmt_i 0; "        practice"; "          theory" ];
      let w = load_workload ~scale ~dataset:ds () in
      let words = fixed_budget w in
      List.iter
        (fun kappa ->
          let eng, _ = build_engine ~config:(config_of ~scale ~kappa ~words ()) w in
          let practice = accurate_error eng w in
          let m = E.stream_size eng in
          let theory =
            Hsq_util.Stats.mean
              (List.map
                 (fun phi ->
                   Hsq.Errors.theory_relative_accurate ~eps:(E.epsilon eng) ~eps2:(E.eps2 eng) ~m
                     ~phi ~total:(E.total_size eng))
                 phis)
          in
          print_row [ fmt_i kappa; fmt_e practice; fmt_e theory ])
        (2 :: kappas))
    datasets

(* --- Figure 6: update time vs memory ------------------------------------- *)

let fig6 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf
           "Figure 6 (%s): update time per step (s) vs memory, kappa=10 (ours: load/sort/merge/summary; baselines: sketch update, same load+merge by construction)"
           ds);
      print_row
        [
          fmt_i 0; "       ours-total"; "         load"; "         sort"; "        merge";
          "      summary"; "     gk-sketch"; "     qd-sketch";
        ];
      let w = load_workload ~scale ~dataset:ds () in
      List.iter
        (fun words ->
          let eng_cfg = config_of ~scale ~kappa:10 ~words () in
          let _, reports = build_engine ~config:eng_cfg w in
          let u = summarize_updates reports in
          let baseline_seconds algorithm =
            let b =
              Hsq.Baselines.Streaming.create ~universe_bits:w.universe_bits ~algorithm ~words
                ~kappa:10 ~block_size:scale.block_size ()
            in
            let t0 = Unix.gettimeofday () in
            Array.iter
              (fun batch ->
                Array.iter (Hsq.Baselines.Streaming.observe b) batch;
                ignore (Hsq.Baselines.Streaming.end_time_step b))
              w.batches;
            (Unix.gettimeofday () -. t0) /. float_of_int (Array.length w.batches)
          in
          let gk_s = baseline_seconds Hsq.Baselines.Streaming.Gk_stream in
          let qd_s = baseline_seconds Hsq.Baselines.Streaming.Qdigest_stream in
          print_row
            [
              fmt_i words; fmt_f u.mean_seconds; fmt_f u.mean_load; fmt_f u.mean_sort;
              fmt_f u.mean_merge; fmt_f u.mean_summary; fmt_f gk_s; fmt_f qd_s;
            ])
        (memory_budgets w))
    datasets

(* --- Figure 7: update time and disk accesses vs kappa --------------------- *)

let fig7 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf "Figure 7 (%s): update cost per step vs kappa, memory fixed" ds);
      print_row
        [
          fmt_i 0; "   update-sec"; "    io-overall"; "      io-merge"; "         sort";
          "         load"; "        merge";
        ];
      let w = load_workload ~scale ~dataset:ds () in
      let words = fixed_budget w in
      List.iter
        (fun kappa ->
          let _, reports = build_engine ~config:(config_of ~scale ~kappa ~words ()) w in
          let u = summarize_updates reports in
          print_row
            [
              fmt_i kappa; fmt_f u.mean_seconds; fmt_f u.mean_io; fmt_f u.mean_merge_io;
              fmt_f u.mean_sort; fmt_f u.mean_load; fmt_f u.mean_merge;
            ])
        kappas)
    datasets

(* --- Figure 8: CDF of per-step update disk accesses ----------------------- *)

let fig8 ~scale =
  print_header
    (Printf.sprintf
       "Figure 8: cumulative %% of time steps vs update disk accesses (Normal, %d steps)"
       scale.steps);
  let w = load_workload ~scale ~dataset:"normal" () in
  let words = fixed_budget w in
  List.iter
    (fun kappa ->
      let _, reports = build_engine ~config:(config_of ~scale ~kappa ~words ()) w in
      let ios =
        Array.map
          (fun (r : Hsq_hist.Level_index.update_report) ->
            Hsq_storage.Io_stats.total r.Hsq_hist.Level_index.io_total)
          reports
      in
      Array.sort compare ios;
      let n = Array.length ios in
      Printf.printf "kappa=%d:\n" kappa;
      print_row [ fmt_i 0; "  disk-accesses"; "          cum%" ];
      (* one row per distinct access count *)
      let i = ref 0 in
      while !i < n do
        let v = ios.(!i) in
        let j = ref !i in
        while !j < n && ios.(!j) = v do
          incr j
        done;
        print_row
          [ fmt_i 0; fmt_i v; fmt_f (100.0 *. float_of_int !j /. float_of_int n) ];
        i := !j
      done)
    [ 7; 9; 10 ]

(* --- Figure 9: query cost vs memory --------------------------------------- *)

let fig9 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf "Figure 9 (%s): query runtime (s) and disk accesses vs memory, kappa=10" ds);
      print_row
        [ fmt_i 0; "     ours-sec"; "      ours-io"; "       gk-sec"; "       qd-sec" ];
      let w = load_workload ~scale ~dataset:ds () in
      List.iter
        (fun words ->
          let eng, _ = build_engine ~config:(config_of ~scale ~kappa:10 ~words ()) w in
          let seconds, io = query_cost eng in
          let baseline_query algorithm =
            let b =
              Hsq.Baselines.Streaming.create ~universe_bits:w.universe_bits ~algorithm ~words
                ~kappa:10 ~block_size:scale.block_size ()
            in
            Array.iter
              (fun batch ->
                Array.iter (Hsq.Baselines.Streaming.observe b) batch;
                ignore (Hsq.Baselines.Streaming.end_time_step b))
              w.batches;
            Array.iter (Hsq.Baselines.Streaming.observe b) w.tail;
            let n = Hsq.Baselines.Streaming.count b in
            let t0 = Unix.gettimeofday () in
            let reps = 3 in
            for _ = 1 to reps do
              List.iter
                (fun phi ->
                  ignore
                    (Hsq.Baselines.Streaming.query_rank b
                       (int_of_float (ceil (phi *. float_of_int n)))))
                phis
            done;
            (Unix.gettimeofday () -. t0) /. float_of_int (reps * List.length phis)
          in
          let gk_s = baseline_query Hsq.Baselines.Streaming.Gk_stream in
          let qd_s = baseline_query Hsq.Baselines.Streaming.Qdigest_stream in
          print_row [ fmt_i words; fmt_f seconds; fmt_f io; fmt_f gk_s; fmt_f qd_s ])
        (memory_budgets w))
    datasets

(* --- Figure 10: query cost vs kappa ---------------------------------------- *)

let fig10 ~scale =
  List.iter
    (fun ds ->
      print_header
        (Printf.sprintf "Figure 10 (%s): query runtime (s) and disk accesses vs kappa" ds);
      print_row [ fmt_i 0; "     ours-sec"; "      ours-io" ];
      let w = load_workload ~scale ~dataset:ds () in
      let words = fixed_budget w in
      List.iter
        (fun kappa ->
          let eng, _ = build_engine ~config:(config_of ~scale ~kappa ~words ()) w in
          let seconds, io = query_cost eng in
          print_row [ fmt_i kappa; fmt_f seconds; fmt_f io ])
        kappas)
    datasets

(* --- Figure 11: windowed query cost vs window size --------------------------- *)

let fig11 ~scale =
  List.iter
    (fun kappa ->
      print_header
        (Printf.sprintf
           "Figure 11 (kappa=%d): window query runtime (s) and disk accesses vs window size (Normal)"
           kappa);
      print_row [ fmt_i 0; "    query-sec"; "     query-io" ];
      let w = load_workload ~scale ~dataset:"normal" () in
      let words = fixed_budget w in
      let eng, _ = build_engine ~config:(config_of ~scale ~kappa ~words ()) w in
      let g = G.of_engine eng in
      List.iter
        (fun window ->
          match G.window_total g ~window with
          | Error _ -> ()
          | Ok n ->
            let r = max 1 (n / 2) in
            let t0 = Unix.gettimeofday () in
            let io = ref 0 in
            let reps = 5 in
            for _ = 1 to reps do
              match G.accurate_window g ~window ~rank:r with
              | Ok (_, report) -> io := !io + Hsq_storage.Io_stats.total report.G.io
              | Error _ -> ()
            done;
            let seconds = (Unix.gettimeofday () -. t0) /. float_of_int reps in
            print_row
              [ fmt_i window; fmt_f seconds; fmt_f (float_of_int !io /. float_of_int reps) ])
        (G.window_sizes g))
    [ 3; 10 ]

(* --- Figure 12: scalability in historical size -------------------------------- *)

let fig12 ~scale =
  print_header
    "Figure 12: accuracy and cost vs historical size (Normal, stream fixed at one batch, kappa=10)";
  print_row
    [
      fmt_i 0; "     rel-error"; "    update-sec"; "     update-io"; "      merge-io";
      "     query-sec"; "      query-io";
    ];
  let fractions = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  List.iter
    (fun tenth ->
      let steps = max 1 (scale.steps * tenth / 10) in
      let w = load_workload ~steps ~scale ~dataset:"normal" () in
      let words = fixed_budget (load_workload ~scale ~dataset:"normal" ()) in
      let eng, reports = build_engine ~config:(config_of ~scale ~kappa:10 ~words ~steps ()) w in
      let u = summarize_updates reports in
      let err = accurate_error eng w in
      let seconds, io = query_cost eng in
      print_row
        [
          fmt_i (steps * scale.step_size); fmt_e err; fmt_f u.mean_seconds; fmt_f u.mean_io;
          fmt_f u.mean_merge_io; fmt_f seconds; fmt_f io;
        ])
    fractions

(* --- Figure 13: scalability in stream size -------------------------------------- *)

let fig13 ~scale =
  print_header
    "Figure 13: accuracy and cost vs stream size (Normal, history fixed, kappa=10)";
  print_row
    [
      fmt_i 0; "     rel-error"; "    update-sec"; "     update-io"; "     query-sec";
      "      query-io";
    ];
  let base = load_workload ~scale ~dataset:"normal" () in
  let words = fixed_budget base in
  List.iter
    (fun fifth ->
      let tail_size = max 1 (scale.step_size * fifth / 5) in
      (* Same archived history; live stream truncated to [tail_size]. *)
      let w =
        {
          base with
          tail = Array.sub base.tail 0 tail_size;
          oracle =
            (let o = Hsq_workload.Oracle.create () in
             Array.iter (Hsq_workload.Oracle.add_batch o) base.batches;
             Hsq_workload.Oracle.add_batch o (Array.sub base.tail 0 tail_size);
             o);
          total = (scale.steps * scale.step_size) + tail_size;
        }
      in
      let eng, reports = build_engine ~config:(config_of ~scale ~kappa:10 ~words ()) w in
      let u = summarize_updates reports in
      let err = accurate_error eng w in
      let seconds, io = query_cost eng in
      print_row
        [
          fmt_i tail_size; fmt_e err; fmt_f u.mean_seconds; fmt_f u.mean_io; fmt_f seconds;
          fmt_f io;
        ])
    [ 1; 2; 3; 4; 5 ]

(* --- Ablations: the design choices DESIGN.md calls out -------------------- *)

(* (a) Memory split between stream sketch and historical summaries.
   The paper fixes 50/50 and calls the optimal split an open question
   (Section 3.1); this sweeps it.  (b) Algorithm 8's stopping band, the
   accuracy <-> disk-access axis of the tradeoff space in the paper's
   conclusion (band = factor * eps2 * m; the paper's own band is factor
   4).  (c) The Section 2.4 one-block cache optimization, on vs off. *)
let ablations ~scale =
  let w = load_workload ~scale ~dataset:"normal" () in
  let words = fixed_budget w in
  print_header
    (Printf.sprintf
       "Ablation A: memory split (stream fraction of a %d-word budget; paper uses 0.50)" words);
  print_row [ fmt_f 0.0; "   ours-accurate"; "  quick-response" ];
  List.iter
    (fun fraction ->
      let config =
        Hsq.Config.make ~kappa:10 ~block_size:scale.block_size ~steps_hint:scale.steps
          ~stream_fraction:fraction (Hsq.Config.Memory_words words)
      in
      let eng, _ = build_engine ~config w in
      print_row [ fmt_f fraction; fmt_e (accurate_error eng w); fmt_e (quick_error eng w) ])
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ];

  print_header
    "Ablation B: Algorithm 8 stopping band (factor x eps2*m; paper stops at factor 4)";
  print_row [ fmt_f 0.0; "   ours-accurate"; "      query-io" ];
  let eng, _ = build_engine ~config:(config_of ~scale ~kappa:10 ~words ()) w in
  let n = E.total_size eng in
  List.iter
    (fun factor ->
      let errs = ref [] and ios = ref 0 and count = ref 0 in
      List.iter
        (fun phi ->
          let r = int_of_float (ceil (phi *. float_of_int n)) in
          let v, report = E.accurate ~tolerance_factor:factor eng ~rank:r in
          errs :=
            (float_of_int (Hsq_workload.Oracle.rank_error w.oracle ~rank:r ~value:v)
            /. (phi *. float_of_int n))
            :: !errs;
          ios := !ios + Hsq_storage.Io_stats.total report.E.io;
          incr count)
        phis;
      print_row
        [
          fmt_f factor;
          fmt_e (Hsq_util.Stats.mean !errs);
          fmt_f (float_of_int !ios /. float_of_int !count);
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];

  print_header "Ablation C: Section 2.4 one-block cache (query disk accesses)";
  print_row [ fmt_i 0; "      query-io" ];
  List.iter
    (fun enabled ->
      List.iter
        (fun p -> Hsq_storage.Run.set_cache_enabled (Hsq_hist.Partition.run p) enabled)
        (Hsq_hist.Level_index.partitions (E.hist eng));
      let _, io = query_cost eng in
      Printf.printf "cache %-3s %s\n" (if enabled then "on" else "off") (fmt_f io))
    [ true; false ];
  List.iter
    (fun p -> Hsq_storage.Run.set_cache_enabled (Hsq_hist.Partition.run p) true)
    (Hsq_hist.Level_index.partitions (E.hist eng))

(* --- Extension benches ------------------------------------------------------ *)

let extensions ~scale =
  (* Heavy hitters over archived history: query cost and yield vs phi,
     on a static Zipf stream (the network dataset's deliberate per-step
     drift spreads every pair's count across steps, so nothing is
     globally frequent there). *)
  print_header "Extension: heavy hitters over history (static Zipf s=1.2), cost vs phi";
  print_row [ fmt_f 0.0; "         hits"; "   candidates"; "     query-io" ];
  let rng_hh = Hsq_util.Xoshiro.create (scale.seed lxor 0x6868) in
  let zipf = Hsq_workload.Distribution.Zipf.create ~n:10_000 ~s:1.2 in
  let eng =
    Hsq.Engine.create
      (Hsq.Config.make ~kappa:10 ~block_size:scale.block_size ~steps_hint:scale.steps
         (Hsq.Config.Epsilon 0.01))
  in
  for _ = 1 to min 30 scale.steps do
    ignore
      (Hsq.Engine.ingest_batch eng
         (Array.init scale.step_size (fun _ -> Hsq_workload.Distribution.Zipf.sample zipf rng_hh)))
  done;
  let stats = [ Hsq_storage.Block_device.stats (Hsq.Engine.device eng) ] in
  let partitions = Hsq_hist.Level_index.partitions (Hsq.Engine.hist eng) in
  List.iter
    (fun phi ->
      let hits, report = Hsq.Heavy_hitters.frequent ~stats partitions ~phi in
      print_row
        [
          fmt_f phi;
          fmt_i (List.length hits);
          fmt_i report.Hsq.Heavy_hitters.candidates;
          fmt_i (Hsq_storage.Io_stats.total report.Hsq.Heavy_hitters.io);
        ])
    [ 0.05; 0.02; 0.01; 0.005; 0.002 ];

  (* The Section 2 strawman: keeping H fully sorted makes every step
     rewrite the whole history; ours stays near the batch-write cost. *)
  print_header
    "Extension: update disk I/O per step, ours vs the Section-2 strawman (fully sorted warehouse)";
  print_row [ fmt_i 0; "      ours-io"; "  strawman-io" ];
  let ds = Hsq_workload.Datasets.uniform ~seed:scale.seed in
  let steps = min 40 scale.steps in
  let eng =
    Hsq.Engine.create
      (Hsq.Config.make ~kappa:10 ~block_size:scale.block_size ~steps_hint:steps
         (Hsq.Config.Epsilon 0.01))
  in
  let straw = Hsq.Baselines.Strawman.create ~epsilon:0.01 ~block_size:scale.block_size () in
  for step = 1 to steps do
    let batch = Hsq_workload.Datasets.next_batch ds scale.step_size in
    let ours = Hsq.Engine.ingest_batch eng batch in
    Array.iter (Hsq.Baselines.Strawman.observe straw) batch;
    let straw_io = Hsq.Baselines.Strawman.end_time_step straw in
    if step mod 10 = 0 then
      print_row
        [
          fmt_i step;
          fmt_i (Hsq_storage.Io_stats.total ours.Hsq_hist.Level_index.io_total);
          fmt_i (Hsq_storage.Io_stats.total straw_io);
        ]
  done;

  (* Retention: expiry cost and footprint under a rolling window. *)
  print_header "Extension: retention (keep last 32 steps of a 100-step run, Normal)";
  print_row [ fmt_i 0; "  live-elements"; "   live-blocks"; "  parts-dropped" ];
  let ds = Hsq_workload.Datasets.normal ~seed:scale.seed in
  let eng =
    Hsq.Engine.create
      (Hsq.Config.make ~kappa:4 ~block_size:scale.block_size ~steps_hint:scale.steps
         (Hsq.Config.Epsilon 0.01))
  in
  let dropped = ref 0 in
  for step = 1 to scale.steps do
    ignore (Hsq.Engine.ingest_batch eng (Hsq_workload.Datasets.next_batch ds scale.step_size));
    let p, _ = Hsq.Engine.expire eng ~keep_steps:32 in
    dropped := !dropped + p;
    if step mod 20 = 0 then
      print_row
        [
          fmt_i step;
          fmt_i (Hsq.Engine.hist_size eng);
          fmt_i (Hsq_storage.Block_device.live_blocks (Hsq.Engine.device eng));
          fmt_i !dropped;
        ]
  done
