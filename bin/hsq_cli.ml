(* hsq — command-line front end.

   Subcommands:
     simulate  drive a synthetic warehouse (one of the paper's datasets)
               and report quantiles, accuracy, and I/O costs;
     stream    read integers from stdin, archiving a time step every N
               elements, and answer quantile queries at EOF;
     query     reopen a saved warehouse (see --save-meta) and answer
               quantile and heavy-hitter queries against it;
     inspect   print a saved warehouse's partition layout, window
               alignment, and memory footprint. *)

open Cmdliner

let phi_list =
  let parse s =
    try
      let parts = String.split_on_char ',' (String.trim s) in
      let phis = List.map float_of_string parts in
      if List.for_all (fun p -> p > 0.0 && p <= 1.0) phis && phis <> [] then Ok phis
      else Error (`Msg "quantiles must lie in (0, 1]")
    with Failure _ -> Error (`Msg "expected a comma-separated list of floats")
  in
  let print ppf phis =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_float phis))
  in
  Arg.conv (parse, print)

(* Shared engine options. *)
let epsilon =
  let doc = "Error parameter ε (error ≤ ε·m where m is the stream size)." in
  Arg.(value & opt float 0.01 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let kappa =
  let doc = "Merge threshold κ: maximum partitions per level." in
  Arg.(value & opt int 10 & info [ "kappa" ] ~docv:"K" ~doc)

let sketch_kind =
  let doc =
    "Stream sketch for the open step: $(b,gk) (the paper's Greenwald-Khanna) or $(b,kll) \
     (mergeable KLL; with --shards, fused quick answers compose the per-shard stream \
     summaries by sketch merge). Checkpoints are tagged, so a durable store written under \
     one kind reopens cleanly under the other (the open step rebuilds from the WAL)."
  in
  Arg.(value & opt (enum [ ("gk", `Gk); ("kll", `Kll) ]) `Gk & info [ "sketch" ] ~docv:"KIND" ~doc)

let block_size =
  let doc = "Simulated disk block size, in elements." in
  Arg.(value & opt int 256 & info [ "block-size" ] ~docv:"B" ~doc)

let phis =
  let doc = "Quantiles to report." in
  Arg.(value & opt phi_list [ 0.5; 0.95; 0.99 ] & info [ "quantiles"; "q" ] ~docv:"PHIS" ~doc)

let device_path =
  let doc = "Back the warehouse with this file instead of memory." in
  Arg.(value & opt (some string) None & info [ "device" ] ~docv:"PATH" ~doc)

let shards =
  let doc =
    "Shard the warehouse across $(docv) independent engines (own device, WAL, breaker, \
     quarantine per shard); ingest hash-routes and queries fuse the shards' answers with the \
     same ±ε·m guarantee. 1 = a single engine (the default, and the only mode supporting \
     windowed queries and --device)."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let replicas =
  let doc =
    "Run every logical shard as $(docv) replicated engines (own device, WAL, checkpoints, \
     breaker per replica): writes fan out synchronously to each live replica and are \
     acknowledged while at least one accepts, reads fail over to a sibling instead of \
     widening bounds when a replica is down, downed replicas catch up from hinted handoff \
     on rejoin, and $(b,hsq scrub) compares replica state digests and repairs divergence \
     from the healthiest sibling. Works with or without --shards. 1 = unreplicated (the \
     default)."
  in
  Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R" ~doc)

let query_domains =
  let doc =
    "Fan accurate-query disk probes across $(docv) domains per bisection step. Answers are \
     identical at any setting; this is a latency knob only."
  in
  Arg.(value & opt (some int) None & info [ "query-domains" ] ~docv:"D" ~doc)

let deadline_ms =
  let doc =
    "Accurate-query deadline in milliseconds: a query that overruns it returns its \
     best-so-far answer, flagged $(b,deadline) with an honest rank-error bound, instead of \
     blocking. Unset = unbounded."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let ingest_domains =
  let doc =
    "Concurrent ingest lanes: observe calls spread across $(docv) shard-local stream buffers, \
     each handing sorted batches into the sketch under one propagation lock (simulate/stream \
     drive the lanes themselves; serve gives each connection its own lane). Answers and \
     durability guarantees are identical at any setting; 1 = the classic single-writer path."
  in
  Arg.(value & opt int 1 & info [ "ingest-domains" ] ~docv:"D" ~doc)

(* Durable-ingest options (simulate, stream). *)
let wal_sync_conv =
  let parse s =
    let s = String.lowercase_ascii (String.trim s) in
    let group_arg prefix =
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        int_of_string_opt (String.sub s plen (String.length s - plen))
      else None
    in
    match s with
    | "always" -> Ok Hsq_storage.Wal.Always
    | "never" -> Ok Hsq_storage.Wal.Never
    | _ -> (
      let n = match group_arg "group:" with Some n -> Some n | None -> group_arg "group=" in
      match n with
      | Some n when n >= 1 -> Ok (Hsq_storage.Wal.Group n)
      | _ -> Error (`Msg "expected always, never, or group:N (N >= 1)"))
  in
  let print ppf p = Format.fprintf ppf "%s" (Hsq_storage.Wal.sync_policy_to_string p) in
  Arg.conv (parse, print)

let durable_dir =
  let doc =
    "Durable ingest: root the warehouse, write-ahead log, and sketch checkpoints in $(docv) \
     and recover whatever a previous (possibly crashed) run left there. Overrides --device."
  in
  Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR" ~doc)

let wal_sync =
  let doc =
    "WAL sync policy with --durable: $(b,always) (zero acknowledged loss), $(b,group:N) \
     (flush every N records), or $(b,never) (flush only at commit markers)."
  in
  Arg.(value & opt wal_sync_conv Hsq_storage.Wal.Always & info [ "wal-sync" ] ~docv:"POLICY" ~doc)

let checkpoint_every =
  let doc = "Sketch-checkpoint interval in WAL records with --durable; 0 disables." in
  Arg.(value & opt int 10_000 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let report_recovery (r : Hsq.Engine.recovery_report) =
  if r.replayed > 0 || r.checkpoint_used || r.wal_tail <> None then
    Printf.eprintf
      "[recover] replayed %d WAL records: %d steps re-archived, %d already committed%s%s\n%!"
      r.replayed r.steps_reingested r.steps_skipped
      (if r.checkpoint_used then "; resumed from sketch checkpoint" else "")
      (match r.wal_tail with
      | None -> ""
      | Some why -> Printf.sprintf "; torn tail floored (%s)" why)

let make_engine ~epsilon ~kappa ~block_size ~device_path ~steps_hint ?query_domains
    ?query_deadline_ms ?durable ?(wal_sync = Hsq_storage.Wal.Always)
    ?(checkpoint_every = 10_000) ?(ingest_domains = 1) ?(stream_sketch = `Gk) () =
  match durable with
  | Some dir ->
    if device_path <> None then
      prerr_endline "warning: --device ignored with --durable (the store supplies its own)";
    let config =
      Hsq.Config.make ~kappa ~block_size ~steps_hint ?query_domains ?query_deadline_ms
        ~wal_dir:dir ~wal_sync ~checkpoint_every ~ingest_domains ~stream_sketch
        (Hsq.Config.Epsilon epsilon)
    in
    let eng, report = Hsq.Engine.open_or_recover config in
    report_recovery report;
    eng
  | None -> (
    let config =
      Hsq.Config.make ~kappa ~block_size ~steps_hint ?query_domains ?query_deadline_ms
        ~ingest_domains ~stream_sketch (Hsq.Config.Epsilon epsilon)
    in
    match device_path with
    | None -> Hsq.Engine.create config
    | Some path ->
      let dev = Hsq_storage.Block_device.create_file ~block_size ~path () in
      Hsq.Engine.create ~device:dev config)

(* --- sharded helpers --------------------------------------------------- *)

module G = Hsq_shard.Shard_group

let report_shard_recoveries ?(replicas = 1) recoveries =
  List.iter
    (fun { G.shard; replica; outcome } ->
      let who =
        if replicas > 1 then Printf.sprintf "shard %d replica %d" shard replica
        else Printf.sprintf "shard %d" shard
      in
      match outcome with
      | Ok r -> if r.Hsq.Engine.replayed > 0 || r.Hsq.Engine.checkpoint_used then
          Printf.eprintf "[recover] %s: replayed %d WAL records, %d steps re-archived%s\n%!"
            who r.Hsq.Engine.replayed r.Hsq.Engine.steps_reingested
            (if r.Hsq.Engine.checkpoint_used then "; resumed from sketch checkpoint" else "")
      | Error msg ->
        Printf.eprintf "[recover] %s FAILED, marked down (%s): %s\n%!" who
          (if replicas > 1 then "siblings keep serving, rejoin after repair"
           else "queries degrade, rejoin after repair")
          msg)
    recoveries

let make_group ~shards ?(replicas = 1) ~epsilon ~kappa ~block_size ~steps_hint ?query_domains
    ?query_deadline_ms ?durable ?(wal_sync = Hsq_storage.Wal.Always)
    ?(checkpoint_every = 10_000) ?(ingest_domains = 1) ?(stream_sketch = `Gk) () =
  match durable with
  | Some dir ->
    let config =
      Hsq.Config.make ~kappa ~block_size ~steps_hint ?query_domains ?query_deadline_ms
        ~wal_dir:dir ~wal_sync ~checkpoint_every ~shards ~replicas ~ingest_domains
        ~stream_sketch (Hsq.Config.Epsilon epsilon)
    in
    let g, recoveries = G.open_or_recover config in
    report_shard_recoveries ~replicas recoveries;
    g
  | None ->
    G.create
      (Hsq.Config.make ~kappa ~block_size ~steps_hint ?query_domains ?query_deadline_ms ~shards
         ~replicas ~ingest_domains ~stream_sketch (Hsq.Config.Epsilon epsilon))

let report_group_footprint g =
  let down = G.shards_down g in
  Printf.printf "N=%d (historical %d + stream %d%s), %d time steps, %d shards%s%s\n"
    (G.total_size g) (G.hist_size g) (G.stream_size g)
    (match G.down_elements g with 0 -> "" | d -> Printf.sprintf " + %d dark on down shards" d)
    (G.time_steps g) (G.shard_count g)
    (if G.replica_count g > 1 then Printf.sprintf " x %d replicas" (G.replica_count g) else "")
    (match down with
    | [] -> ""
    | ks -> Printf.sprintf " (DOWN: %s)" (String.concat "," (List.map string_of_int ks)));
  (if G.replica_count g > 1 then begin
     List.iter
       (fun (i, j) ->
         Printf.printf "replica %d of shard %d down (%s) — sibling serving at full precision\n"
           j i
           (Option.value ~default:"?" (G.replica_down_reason g ~shard:i ~replica:j)))
       (G.replicas_down g);
     List.iter
       (fun (i, j) ->
         Printf.printf "replica %d of shard %d DIVERGED — excluded from reads (scrub --repair)\n"
           j i)
       (G.diverged_replicas g)
   end);
  Printf.printf "summary memory: %d words (%.1f KiB)\n" (G.memory_words g)
    (float_of_int (8 * G.memory_words g) /. 1024.0)

let report_group_quantiles g phis =
  List.iter
    (fun phi ->
      let v, report = G.quantile g phi in
      Printf.printf "phi=%-5g  value=%-12d  (disk accesses: %d, bisection steps: %d)%s\n" phi v
        (Hsq_storage.Io_stats.total report.G.io)
        report.G.iterations
        (match report.G.degradation with
        | `None -> ""
        | d ->
          Printf.sprintf "  [DEGRADED(%s): rank error <= %.0f]" (G.degradation_label d)
            report.G.rank_error_bound))
    phis

let report_quantiles eng phis =
  List.iter
    (fun phi ->
      let v, report = Hsq.Engine.quantile eng phi in
      Printf.printf "phi=%-5g  value=%-12d  (disk accesses: %d, bisection steps: %d)%s\n" phi v
        (Hsq_storage.Io_stats.total report.Hsq.Engine.io)
        report.Hsq.Engine.iterations
        (match report.Hsq.Engine.degradation with
        | `None -> ""
        | d ->
          Printf.sprintf "  [DEGRADED(%s): rank error <= %.0f]"
            (Hsq.Engine.degradation_label d)
            report.Hsq.Engine.rank_error_bound))
    phis

let report_footprint eng =
  Printf.printf
    "N=%d (historical %d + stream %d), %d time steps, %d partitions over %d levels\n"
    (Hsq.Engine.total_size eng) (Hsq.Engine.hist_size eng) (Hsq.Engine.stream_size eng)
    (Hsq.Engine.time_steps eng)
    (Hsq_hist.Level_index.partition_count (Hsq.Engine.hist eng))
    (Hsq_hist.Level_index.num_levels (Hsq.Engine.hist eng));
  Printf.printf "summary memory: %d words (%.1f KiB)\n" (Hsq.Engine.memory_words eng)
    (float_of_int (8 * Hsq.Engine.memory_words eng) /. 1024.0)

(* --- multi-lane ingest driver ------------------------------------------ *)

(* Slice a batch across D ingest lanes, driven by a persistent
   Parallel.Pool (workers = D - 1; the caller takes a lane too).  One
   submission per batch: lane d observes its contiguous slice through
   observe_domain, so cross-lane contention is the per-batch sketch
   propagation, never per element. *)
let pool_ingest pool ~domains ~observe_domain batch =
  let len = Array.length batch in
  if len > 0 then begin
    let chunk = (len + domains - 1) / domains in
    Hsq_util.Parallel.Pool.run pool ~n:domains (fun d ->
        let lo = d * chunk in
        let hi = min len (lo + chunk) in
        for i = lo to hi - 1 do
          observe_domain ~domain:d batch.(i)
        done)
  end

let make_ingest_pool ~ingest_domains =
  if ingest_domains > 1 then
    Some (Hsq_util.Parallel.Pool.create ~workers:(ingest_domains - 1) ())
  else None

(* --- simulate ---------------------------------------------------------- *)

let save_meta =
  let doc = "After the run, save warehouse metadata here (requires --device)." in
  Arg.(value & opt (some string) None & info [ "save-meta" ] ~docv:"PATH" ~doc)

let simulate_group ~shards ~replicas ~ingest_domains ~stream_sketch dataset steps step_size seed
    epsilon kappa block_size query_domains deadline_ms phis verify durable wal_sync
    checkpoint_every =
  let ds = Hsq_workload.Datasets.by_name ~seed dataset in
  let g =
    make_group ~shards ~replicas ~epsilon ~kappa ~block_size ~steps_hint:steps ?query_domains
      ?query_deadline_ms:deadline_ms ?durable ~wal_sync ~checkpoint_every ~ingest_domains
      ~stream_sketch ()
  in
  let pool = make_ingest_pool ~ingest_domains in
  let ingest batch =
    match pool with
    | Some p ->
      pool_ingest p ~domains:ingest_domains
        ~observe_domain:(fun ~domain v -> G.observe_domain g ~domain v)
        batch;
      ignore (G.checkpoint_if_due g)
    | None -> Array.iter (G.observe g) batch
  in
  let oracle = if verify then Some (Hsq_workload.Oracle.create ()) else None in
  for step = 1 to steps do
    let batch = Hsq_workload.Datasets.next_batch ds step_size in
    Option.iter (fun o -> Hsq_workload.Oracle.add_batch o batch) oracle;
    ingest batch;
    List.iter
      (fun (i, r) ->
        match r with
        | Ok _ -> ()
        | Error msg -> Printf.eprintf "[simulate] shard %d archive failed: %s\n%!" i msg)
      (G.end_time_step g);
    if step mod 10 = 0 then Printf.eprintf "[simulate] archived step %d/%d\n%!" step steps
  done;
  let tail = Hsq_workload.Datasets.next_batch ds (max 1 (step_size / 2)) in
  Option.iter (fun o -> Hsq_workload.Oracle.add_batch o tail) oracle;
  ingest tail;
  G.flush_ingest g;
  Option.iter Hsq_util.Parallel.Pool.shutdown pool;
  Printf.printf "dataset=%s  " dataset;
  report_group_footprint g;
  report_group_quantiles g phis;
  Option.iter
    (fun o ->
      print_endline "verification against exact oracle:";
      List.iter
        (fun phi ->
          let v, _ = G.quantile g phi in
          let exact = Hsq_workload.Oracle.quantile o phi in
          Printf.printf "phi=%-5g  exact=%-12d  relative rank error=%.3e\n" phi exact
            (Hsq_workload.Oracle.relative_error o ~phi ~value:v))
        phis)
    oracle;
  G.close g;
  0

let simulate dataset steps step_size seed epsilon kappa block_size device_path query_domains
    deadline_ms phis verify save_meta durable wal_sync checkpoint_every shards replicas
    ingest_domains stream_sketch =
  if shards > 1 || replicas > 1 then begin
    if device_path <> None then
      prerr_endline "warning: --device ignored with --shards/--replicas (each store owns its device)";
    if save_meta <> None then
      prerr_endline "warning: --save-meta ignored with --shards/--replicas (stores keep their own sidecars)";
    simulate_group ~shards ~replicas ~ingest_domains ~stream_sketch dataset steps step_size seed
      epsilon kappa block_size query_domains deadline_ms phis verify durable wal_sync
      checkpoint_every
  end
  else begin
  let ds = Hsq_workload.Datasets.by_name ~seed dataset in
  let eng =
    make_engine ~epsilon ~kappa ~block_size ~device_path ~steps_hint:steps ?query_domains
      ?query_deadline_ms:deadline_ms ?durable ~wal_sync ~checkpoint_every ~ingest_domains
      ~stream_sketch ()
  in
  let pool = make_ingest_pool ~ingest_domains in
  let ingest batch =
    match pool with
    | Some p ->
      pool_ingest p ~domains:ingest_domains
        ~observe_domain:(fun ~domain v -> Hsq.Engine.observe_domain eng ~domain v)
        batch;
      ignore (Hsq.Engine.checkpoint_if_due eng)
    | None -> Array.iter (Hsq.Engine.observe eng) batch
  in
  let oracle = if verify then Some (Hsq_workload.Oracle.create ()) else None in
  let total_io = ref Hsq_storage.Io_stats.zero in
  for step = 1 to steps do
    let batch = Hsq_workload.Datasets.next_batch ds step_size in
    Option.iter (fun o -> Hsq_workload.Oracle.add_batch o batch) oracle;
    ingest batch;
    let report = Hsq.Engine.end_time_step eng in
    total_io := Hsq_storage.Io_stats.add !total_io report.Hsq_hist.Level_index.io_total;
    if step mod 10 = 0 then Printf.eprintf "[simulate] archived step %d/%d\n%!" step steps
  done;
  (* live stream: half a batch *)
  let tail = Hsq_workload.Datasets.next_batch ds (max 1 (step_size / 2)) in
  Option.iter (fun o -> Hsq_workload.Oracle.add_batch o tail) oracle;
  ingest tail;
  Hsq.Engine.flush_ingest eng;
  Option.iter Hsq_util.Parallel.Pool.shutdown pool;
  Printf.printf "dataset=%s  " dataset;
  report_footprint eng;
  Printf.printf "update I/O total: %s\n"
    (Format.asprintf "%a" Hsq_storage.Io_stats.pp !total_io);
  report_quantiles eng phis;
  Option.iter
    (fun o ->
      print_endline "verification against exact oracle:";
      List.iter
        (fun phi ->
          let v, _ = Hsq.Engine.quantile eng phi in
          let exact = Hsq_workload.Oracle.quantile o phi in
          Printf.printf "phi=%-5g  exact=%-12d  relative rank error=%.3e\n" phi exact
            (Hsq_workload.Oracle.relative_error o ~phi ~value:v))
        phis)
    oracle;
  (match (save_meta, device_path) with
  | Some meta, Some _ ->
    Hsq.Persist.save eng ~path:meta;
    Printf.printf "warehouse metadata saved to %s\n" meta
  | Some _, None when durable = None ->
    prerr_endline "warning: --save-meta ignored without --device"
  | _ -> ());
  Hsq.Engine.close eng;
  0
  end

let simulate_cmd =
  let dataset =
    let doc =
      Printf.sprintf "Dataset: %s." (String.concat ", " Hsq_workload.Datasets.names)
    in
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Hsq_workload.Datasets.names)) "normal"
      & info [ "dataset"; "d" ] ~docv:"NAME" ~doc)
  in
  let steps =
    Arg.(value & opt int 20 & info [ "steps" ] ~docv:"T" ~doc:"Time steps to archive.")
  in
  let step_size =
    Arg.(value & opt int 50_000 & info [ "step-size" ] ~docv:"N" ~doc:"Elements per time step.")
  in
  let seed = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"RNG seed.") in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Keep an exact oracle and report true errors.")
  in
  let doc = "Drive a synthetic data-stream warehouse and query quantiles." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ dataset $ steps $ step_size $ seed $ epsilon $ kappa $ block_size
      $ device_path $ query_domains $ deadline_ms $ phis $ verify $ save_meta $ durable_dir
      $ wal_sync $ checkpoint_every $ shards $ replicas $ ingest_domains $ sketch_kind)

(* --- stream ------------------------------------------------------------- *)

(* One loop body shared by the single and sharded paths: observe,
   count, archive every N. *)
let stream_loop ~observe ~end_step ~step_every =
  let in_step = ref 0 in
  try
    while true do
      let line = input_line stdin in
      let line = String.trim line in
      if line <> "" then begin
        match int_of_string_opt line with
        | None -> Printf.eprintf "[stream] skipping non-integer line %S\n%!" line
        | Some v ->
          observe v;
          incr in_step;
          if !in_step >= step_every then begin
            end_step ();
            in_step := 0
          end
      end
    done
  with End_of_file -> ()

let stream step_every epsilon kappa block_size device_path query_domains deadline_ms phis
    durable wal_sync checkpoint_every shards replicas ingest_domains stream_sketch =
  (* stdin is read sequentially, so lanes are driven round-robin from
     this one thread: the win is the lanes' batched sketch hand-off
     (sorted-run merges instead of per-element inserts), not thread
     parallelism.  Lane hand-offs only mark checkpoint debt; this
     thread settles it between elements. *)
  let lane = ref 0 in
  let next_lane () =
    let d = !lane in
    lane := (d + 1) mod ingest_domains;
    d
  in
  if shards > 1 || replicas > 1 then begin
    if device_path <> None then
      prerr_endline "warning: --device ignored with --shards/--replicas (each store owns its device)";
    let g =
      make_group ~shards ~replicas ~epsilon ~kappa ~block_size ~steps_hint:100 ?query_domains
        ?query_deadline_ms:deadline_ms ?durable ~wal_sync ~checkpoint_every ~ingest_domains
        ~stream_sketch ()
    in
    stream_loop ~step_every
      ~observe:(fun v ->
        try
          if ingest_domains > 1 then begin
            G.observe_domain g ~domain:(next_lane ()) v;
            ignore (G.checkpoint_if_due g)
          end
          else G.observe g v
        with G.Shard_unavailable (i, reason) ->
          Printf.eprintf "[stream] DROPPED (shard %d down: %s)\n%!" i reason)
      ~end_step:(fun () ->
        List.iter
          (fun (i, r) ->
            match r with
            | Ok _ -> ()
            | Error msg -> Printf.eprintf "[stream] shard %d archive failed: %s\n%!" i msg)
          (G.end_time_step g);
        Printf.eprintf "[stream] archived step %d\n%!" (G.time_steps g));
    G.flush_ingest g;
    let code =
      if G.total_size g = 0 then begin
        prerr_endline "no data read";
        1
      end
      else begin
        report_group_footprint g;
        report_group_quantiles g phis;
        0
      end
    in
    G.close g;
    code
  end
  else begin
  let eng =
    make_engine ~epsilon ~kappa ~block_size ~device_path ~steps_hint:100 ?query_domains
      ?query_deadline_ms:deadline_ms ?durable ~wal_sync ~checkpoint_every ~ingest_domains
      ~stream_sketch ()
  in
  stream_loop ~step_every
    ~observe:(fun v ->
      if ingest_domains > 1 then begin
        Hsq.Engine.observe_domain eng ~domain:(next_lane ()) v;
        ignore (Hsq.Engine.checkpoint_if_due eng)
      end
      else Hsq.Engine.observe eng v)
    ~end_step:(fun () ->
      let report = Hsq.Engine.end_time_step eng in
      Printf.eprintf "[stream] archived step %d (%d block I/Os)\n%!"
        (Hsq.Engine.time_steps eng)
        (Hsq_storage.Io_stats.total report.Hsq_hist.Level_index.io_total));
  Hsq.Engine.flush_ingest eng;
  let code =
    if Hsq.Engine.total_size eng = 0 then begin
      prerr_endline "no data read";
      1
    end
    else begin
      report_footprint eng;
      report_quantiles eng phis;
      0
    end
  in
  (* Flushes the WAL: the open step (elements past the last archive
     point) survives a restart with --durable. *)
  Hsq.Engine.close eng;
  code
  end

let stream_cmd =
  let step_every =
    Arg.(
      value & opt int 100_000
      & info [ "step-every" ] ~docv:"N" ~doc:"Archive a time step every N elements.")
  in
  let doc = "Read integers from stdin and answer quantile queries at EOF." in
  Cmd.v
    (Cmd.info "stream" ~doc)
    Term.(
      const stream $ step_every $ epsilon $ kappa $ block_size $ device_path $ query_domains
      $ deadline_ms $ phis $ durable_dir $ wal_sync $ checkpoint_every $ shards $ replicas
      $ ingest_domains $ sketch_kind)

(* --- query (restored warehouse) ------------------------------------------ *)

let query device meta query_domains deadline_ms phis heavy trace durable shards replicas =
  if shards > 1 || replicas > 1 then begin
    match durable with
    | None ->
      prerr_endline "query --shards/--replicas requires --durable DIR (the sharded store root)";
      2
    | Some dir ->
      if heavy <> None then prerr_endline "warning: --heavy ignored with --shards/--replicas";
      if trace then prerr_endline "warning: --trace ignored with --shards/--replicas";
      let config =
        Hsq.Config.make ?query_domains ?query_deadline_ms:deadline_ms ~wal_dir:dir ~shards
          ~replicas (Hsq.Config.Epsilon 0.01)
      in
      let g, recoveries = G.open_or_recover config in
      report_shard_recoveries ~replicas recoveries;
      let code =
        if G.total_size g = 0 then begin
          prerr_endline "empty store";
          1
        end
        else begin
          report_group_footprint g;
          report_group_quantiles g phis;
          (* Exit-code contract: degraded answers (a whole shard dark)
             fail; a downed replica with a live sibling keeps full
             precision and exits 0. *)
          if G.shards_down g = [] then 0 else 1
        end
      in
      G.close g;
      code
  end
  else
  match (device, meta) with
  | Some device_path, Some meta_path -> (
    try
      let eng =
        Hsq.Persist.load_files ?query_domains ?query_deadline_ms:deadline_ms ~device_path
          ~meta_path ()
      in
      let tracer = if trace then Some (Hsq_obs.Trace.create ()) else None in
      Hsq.Engine.set_tracer eng tracer;
      report_footprint eng;
      report_quantiles eng phis;
      (match heavy with
      | None -> ()
      | Some phi ->
        (* Restored engines have an empty stream, so historical counts
           are exact and the result is certain. *)
        let capacity = max 64 (int_of_float (ceil (2.0 /. phi))) in
        let hh = Hsq.Heavy_hitters.of_engine ~capacity eng in
        let hits, report = Hsq.Heavy_hitters.frequent hh ~phi in
        Printf.printf "values with frequency >= %g%% (%d candidates verified, %d disk accesses):\n"
          (100.0 *. phi) report.Hsq.Heavy_hitters.candidates
          (Hsq_storage.Io_stats.total report.Hsq.Heavy_hitters.io);
        List.iter
          (fun (h : Hsq.Heavy_hitters.hit) ->
            Printf.printf "  %-12d count in [%d, %d]\n" h.value h.lower h.upper)
          hits);
      Option.iter
        (fun tr ->
          (* One JSON line per completed root span (query.accurate with
             bisect/probe children, summary_cache, ...), oldest first. *)
          print_endline "trace:";
          List.iter
            (fun s -> print_endline (Hsq_obs.Trace.to_json s))
            (Hsq_obs.Trace.roots tr))
        tracer;
      Hsq_storage.Block_device.close (Hsq.Engine.device eng);
      0
    with
    | Hsq.Persist.Corrupt_metadata msg ->
      Printf.eprintf "corrupt metadata: %s\n" msg;
      1
    | Hsq_storage.Block_device.Device_error msg ->
      Printf.eprintf "device error: %s\n" msg;
      1)
  | _ ->
    prerr_endline "query requires both --device and --meta";
    2

let query_cmd =
  let meta =
    Arg.(value & opt (some string) None & info [ "meta" ] ~docv:"PATH" ~doc:"Metadata sidecar.")
  in
  let heavy =
    let doc = "Also report values with frequency >= PHI (e.g. 0.01)." in
    Arg.(value & opt (some float) None & info [ "heavy" ] ~docv:"PHI" ~doc)
  in
  let trace =
    let doc =
      "Record a trace-span tree per query and print each completed root span as one JSON \
       line after the answers (preceded by a $(b,trace:) header line)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let doc = "Query a previously saved warehouse (see simulate --save-meta)." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const query $ device_path $ meta $ query_domains $ deadline_ms $ phis $ heavy $ trace
      $ durable_dir $ shards $ replicas)

(* --- inspect --------------------------------------------------------------- *)

let inspect device meta =
  match (device, meta) with
  | Some device_path, Some meta_path -> (
    try
      let eng = Hsq.Persist.load_files ~device_path ~meta_path () in
      report_footprint eng;
      let hist = Hsq.Engine.hist eng in
      Printf.printf "\npartition layout (newest first):\n";
      List.iter
        (fun p ->
          Printf.printf "  %s  summary=%d entries\n"
            (Format.asprintf "%a" Hsq_hist.Partition.pp p)
            (Hsq_hist.Partition_summary.length (Hsq_hist.Partition.summary p)))
        (Hsq_hist.Level_index.partitions hist);
      (match Hsq_hist.Level_index.expired_through hist with
      | 0 -> ()
      | through -> Printf.printf "retention: steps 1..%d expired\n" through);
      Printf.printf "answerable windows (steps): %s\n"
        (String.concat ", " (List.map string_of_int (Hsq.Engine.window_sizes eng)));
      Printf.printf "aligned range boundaries: %s\n"
        (String.concat ", "
           (List.map
              (fun (a, b) -> Printf.sprintf "[%d-%d]" a b)
              (Hsq_hist.Level_index.partition_boundaries hist)));
      (match Hsq_hist.Level_index.check_invariants hist with
      | [] -> print_endline "invariants: OK"
      | errs -> List.iter (fun e -> Printf.printf "INVARIANT VIOLATION: %s\n" e) errs);
      Hsq_storage.Block_device.close (Hsq.Engine.device eng);
      0
    with
    | Hsq.Persist.Corrupt_metadata msg ->
      Printf.eprintf "corrupt metadata: %s\n" msg;
      1
    | Hsq_storage.Block_device.Device_error msg ->
      Printf.eprintf "device error: %s\n" msg;
      1)
  | _ ->
    prerr_endline "inspect requires both --device and --meta";
    2

let inspect_cmd =
  let meta =
    Arg.(value & opt (some string) None & info [ "meta" ] ~docv:"PATH" ~doc:"Metadata sidecar.")
  in
  let doc = "Print a saved warehouse's layout, windows, and health." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ device_path $ meta)

(* --- scrub ----------------------------------------------------------------- *)

let scrub device meta repair durable shards replicas =
  if shards > 1 || replicas > 1 then begin
    match durable with
    | None ->
      prerr_endline "scrub --shards/--replicas requires --durable DIR (the sharded store root)";
      2
    | Some dir ->
      let config = Hsq.Config.make ~wal_dir:dir ~shards ~replicas (Hsq.Config.Epsilon 0.01) in
      let g, recoveries = G.open_or_recover config in
      report_shard_recoveries ~replicas recoveries;
      let errors = ref 0 in
      let print_report who (r : Hsq.Persist.scrub_report) =
        Printf.printf "%s: scrubbed %d partitions (%d block reads)" who
          r.Hsq.Persist.partitions_checked r.Hsq.Persist.blocks_read;
        if repair then
          Printf.printf "; %d quarantined, %d reinstated, %d still quarantined"
            r.Hsq.Persist.quarantined r.Hsq.Persist.reinstated
            r.Hsq.Persist.still_quarantined;
        print_newline ();
        List.iter
          (fun e ->
            incr errors;
            Printf.printf "SCRUB ERROR [%s]: %s\n" who e)
          r.Hsq.Persist.errors
      in
      if replicas > 1 then begin
        (* Per-replica media scrub, then the anti-entropy digest pass:
           replicas of a shard apply identical op sequences, so any
           digest disagreement is real divergence. *)
        List.iter
          (fun ((i, j), r) -> print_report (Printf.sprintf "shard %d replica %d" i j) r)
          (G.scrub_all ~repair g);
        List.iter
          (fun (er : G.entropy_report) ->
            (match er.G.flagged with
            | [] ->
              Printf.printf "anti-entropy [shard %d]: %d replicas consistent\n"
                er.G.entropy_shard
                (List.length er.G.digests)
            | flagged ->
              List.iter
                (fun (j, why) ->
                  if List.mem j er.G.repaired then
                    Printf.printf
                      "anti-entropy [shard %d]: replica %d DIVERGED (%s); repaired from \
                       healthiest sibling\n"
                      er.G.entropy_shard j why
                  else if not (List.mem_assoc j er.G.repair_failed) then begin
                    incr errors;
                    Printf.printf "ANTI-ENTROPY ERROR [shard %d]: replica %d diverged (%s)%s\n"
                      er.G.entropy_shard j why
                      (if repair then "" else "; re-run with --repair")
                  end)
                flagged);
            List.iter
              (fun (j, why) ->
                incr errors;
                Printf.printf "ANTI-ENTROPY ERROR [shard %d]: replica %d repair failed: %s\n"
                  er.G.entropy_shard j why)
              er.G.repair_failed)
          (G.anti_entropy ~repair g);
        (* Downed replicas with live siblings are warnings, not damage:
           answers keep full precision and hints replay on rejoin. *)
        List.iter
          (fun (i, j) ->
            if not (List.mem i (G.shards_down g)) then
              Printf.printf
                "scrub: shard %d replica %d down (%s) — sibling serving, catches up on rejoin\n"
                i j
                (Option.value ~default:"?" (G.replica_down_reason g ~shard:i ~replica:j)))
          (G.replicas_down g)
      end
      else
        List.iter
          (fun (i, r) -> print_report (Printf.sprintf "shard %d" i) r)
          (G.scrub ~repair g);
      let down = G.shards_down g in
      List.iter
        (fun i ->
          incr errors;
          Printf.printf "SCRUB ERROR [shard %d]: shard is down (%s)\n" i
            (Option.value ~default:"?" (G.down_reason g i)))
        down;
      G.close g;
      if !errors = 0 then begin
        print_endline "scrub: OK";
        0
      end
      else 1
  end
  else
  match (device, meta) with
  | Some device_path, Some meta_path -> (
    try
      let eng = Hsq.Persist.load_files ~device_path ~meta_path () in
      let report = Hsq.Persist.scrub ~repair eng in
      Printf.printf "scrubbed %d partitions (%d block reads)\n" report.Hsq.Persist.partitions_checked
        report.Hsq.Persist.blocks_read;
      if repair then begin
        Printf.printf "repair: %d quarantined, %d reinstated, %d still quarantined\n"
          report.Hsq.Persist.quarantined report.Hsq.Persist.reinstated
          report.Hsq.Persist.still_quarantined;
        (* Persist the new quarantine set so later opens honour it. *)
        Hsq.Persist.save eng ~path:meta_path
      end
      else if report.Hsq.Persist.still_quarantined > 0 then
        Printf.printf "%d partitions quarantined (re-verify with --repair)\n"
          report.Hsq.Persist.still_quarantined;
      let stats =
        Hsq_storage.Io_stats.snapshot (Hsq_storage.Block_device.stats (Hsq.Engine.device eng))
      in
      if stats.Hsq_storage.Io_stats.retries > 0 then
        Printf.printf "retries during scrub: %d (checksum failures: %d)\n"
          stats.Hsq_storage.Io_stats.retries stats.Hsq_storage.Io_stats.checksum_failures;
      Hsq_storage.Block_device.close (Hsq.Engine.device eng);
      match report.Hsq.Persist.errors with
      | [] ->
        print_endline "scrub: OK";
        0
      | errors ->
        List.iter (fun e -> Printf.printf "SCRUB ERROR: %s\n" e) errors;
        1
    with
    | Hsq.Persist.Corrupt_metadata msg ->
      Printf.eprintf "corrupt metadata: %s\n" msg;
      1
    | Hsq_storage.Block_device.Device_error msg ->
      Printf.eprintf "device error: %s\n" msg;
      1)
  | _ ->
    prerr_endline "scrub requires both --device and --meta";
    2

let scrub_cmd =
  let meta =
    Arg.(value & opt (some string) None & info [ "meta" ] ~docv:"PATH" ~doc:"Metadata sidecar.")
  in
  let repair =
    let doc =
      "Act on what the scrub finds: quarantine partitions that fail verification, re-verify \
       and reinstate previously quarantined ones, and save the updated sidecar."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let doc =
    "Verify a saved warehouse end to end: re-read every partition, checking block checksums \
     and sortedness. Exits non-zero if any damage is found."
  in
  Cmd.v (Cmd.info "scrub" ~doc)
    Term.(const scrub $ device_path $ meta $ repair $ durable_dir $ shards $ replicas)

(* --- status (durable store health) ----------------------------------------- *)

(* Failure-containment health: collected and rendered by
   Hsq_serve.Health, the same implementation behind the daemon's
   `health` wire verb, so the two surfaces cannot drift.  Returns the
   shared exit code (0 healthy, 1 degraded). *)
let report_health eng =
  let h = Hsq_serve.Health.collect eng in
  List.iter print_endline (Hsq_serve.Health.to_lines h);
  Hsq_serve.Health.exit_code h

let status_one dir pool_blocks health =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "no such store directory: %s\n" dir;
    2
  end
  else begin
    let device_path, meta_path, wal_path, ckpt_path = Hsq.Engine.store_paths ~dir in
    let problems = ref 0 in
    let problem fmt = Printf.ksprintf (fun s -> incr problems; Printf.printf "%s\n" s) fmt in
    (* Warehouse: the sidecar is the commit record. *)
    let committed_steps = ref 0 in
    (match (Sys.file_exists meta_path, Sys.file_exists device_path) with
    | false, _ -> print_endline "warehouse: empty (no committed time step yet)"
    | true, false -> problem "warehouse: DAMAGED — sidecar present but device file missing"
    | true, true -> (
      match Hsq.Persist.load_files ~pool_blocks ~device_path ~meta_path () with
      | eng ->
        committed_steps := Hsq.Engine.time_steps eng;
        Printf.printf "warehouse: %d archived steps, %d elements, %d partitions\n"
          (Hsq.Engine.time_steps eng) (Hsq.Engine.hist_size eng)
          (Hsq_hist.Level_index.partition_count (Hsq.Engine.hist eng));
        (match Hsq_storage.Block_device.pool_stats (Hsq.Engine.device eng) with
        | Some (hits, misses) when hits + misses > 0 ->
          Printf.printf "buffer pool: %d blocks, %d hits / %d misses (%.1f%% hit rate)\n"
            pool_blocks hits misses
            (100.0 *. float_of_int hits /. float_of_int (hits + misses))
        | _ -> ());
        if health && report_health eng <> 0 then
          problem "health: DEGRADED — breaker open or partitions quarantined";
        Hsq_storage.Block_device.close (Hsq.Engine.device eng)
      | exception Hsq.Persist.Corrupt_metadata msg -> problem "warehouse: CORRUPT — %s" msg
      | exception Hsq_storage.Block_device.Device_error msg ->
        problem "warehouse: DEVICE ERROR — %s" msg));
    (* Write-ahead log. *)
    (if Sys.file_exists wal_path then begin
       match Hsq_storage.Wal.read_path ~path:wal_path with
       | records, start_seq, tail ->
         let observes, markers =
           List.fold_left
             (fun (o, m) (_, r) ->
               match r with
               | Hsq_storage.Wal.Observe _ -> (o + 1, m)
               | Hsq_storage.Wal.End_step _ | Hsq_storage.Wal.End_step_cuts _ -> (o, m + 1))
             (0, 0) records
         in
         Printf.printf "wal: %d records (%d observes, %d commit markers), seq %d..%d\n"
           (List.length records) observes markers start_seq
           (start_seq + List.length records - 1);
         (match tail with
         | Hsq_storage.Wal.Clean -> ()
         | Hsq_storage.Wal.Torn why ->
           (* Expected after a crash — recovery floors it — so it is
              reported but is not a health problem by itself. *)
           Printf.printf "wal: torn tail (%s); next open floors it\n" why)
       | exception Hsq_storage.Block_device.Device_error msg -> problem "wal: UNREADABLE — %s" msg
     end
     else print_endline "wal: absent (no open step)");
    (* Sketch checkpoint. *)
    (match Hsq.Checkpoint.load ~path:ckpt_path with
    | Ok None -> print_endline "checkpoint: absent"
    | Ok (Some c) ->
      Printf.printf "checkpoint: covers WAL seq <= %d at %d committed steps (%d spooled elements)%s\n"
        c.Hsq.Checkpoint.seq c.Hsq.Checkpoint.steps_done
        (Array.length c.Hsq.Checkpoint.batch)
        (if c.Hsq.Checkpoint.steps_done <> !committed_steps then " [stale — will be ignored]"
         else "")
    | Error why ->
      (* Also not fatal: recovery treats it as absent. *)
      Printf.printf "checkpoint: unreadable (%s); recovery falls back to full replay\n" why);
    if !problems = 0 then begin
      print_endline "status: OK";
      0
    end
    else begin
      Printf.printf "status: %d problem(s)\n" !problems;
      1
    end
  end

(* Sharded/replicated status: the same per-store checks on every
   replica store, rolled up into one verdict.

   Exit-code contract (documented in the README): 0 also covers
   degraded-but-full-precision states — a damaged or missing replica
   store whose sibling is intact keeps every answer inside ±ε·m, so it
   is reported as a warning; only a shard with NO intact replica
   (answers degraded) exits 1. With --replicas 1 this collapses to the
   old per-shard verdict: any damaged shard exits 1. *)
let status dir shards replicas pool_blocks health =
  if shards <= 1 && replicas <= 1 then status_one dir pool_blocks health
  else begin
    let rows =
      List.init shards (fun i ->
          List.init replicas (fun j ->
              let sdir = G.store_dir ~root:dir ~shards ~replicas ~shard:i ~replica:j in
              if replicas > 1 then Printf.printf "== shard %d replica %d: %s ==\n" i j sdir
              else Printf.printf "== shard %d: %s ==\n" i sdir;
              let code =
                if Sys.file_exists sdir && Sys.is_directory sdir then
                  status_one sdir pool_blocks health
                else begin
                  if replicas > 1 then
                    Printf.printf
                      "shard %d replica %d: MISSING (never created, or lost with its volume)\n"
                      i j
                  else
                    Printf.printf "shard %d: MISSING (never created, or lost with its volume)\n" i;
                  1
                end
              in
              print_newline ();
              code))
    in
    if replicas > 1 then begin
      (* Per-shard replica matrix: one row per shard, one cell per
         replica store. *)
      print_endline "replica matrix:";
      List.iteri
        (fun i row ->
          Printf.printf "  shard %d: %s\n" i
            (String.concat "  "
               (List.mapi
                  (fun j c -> Printf.sprintf "r%d=%s" j (if c = 0 then "OK" else "BAD"))
                  row)))
        rows;
      let shard_ok = List.map (List.exists (fun c -> c = 0)) rows in
      let bad_replicas =
        List.fold_left
          (fun acc row -> acc + List.length (List.filter (fun c -> c <> 0) row))
          0 rows
      in
      Printf.printf "status: %d/%d replica stores OK, %d/%d shards with an intact replica\n"
        ((shards * replicas) - bad_replicas)
        (shards * replicas)
        (List.length (List.filter Fun.id shard_ok))
        shards;
      if List.for_all Fun.id shard_ok then begin
        if bad_replicas > 0 then
          Printf.printf
            "status: WARNING — %d damaged replica store(s); siblings keep full precision, \
             repair on rejoin\n"
            bad_replicas;
        0
      end
      else 1
    end
    else begin
      let codes = List.concat rows in
      let bad = List.length (List.filter (fun c -> c <> 0) codes) in
      Printf.printf "status: %d/%d shards OK\n" (shards - bad) shards;
      if bad = 0 then 0 else 1
    end
  end

let status_cmd =
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Durable store directory (see --durable).")
  in
  let pool_blocks =
    let doc =
      "LRU buffer-pool capacity (blocks) used while loading the warehouse; the hit/miss rate \
       over the recovery reads is reported. 0 disables the pool."
    in
    Arg.(value & opt int 256 & info [ "pool-blocks" ] ~docv:"N" ~doc)
  in
  let health =
    let doc =
      "Also report failure-containment state: the device circuit breaker, quarantined \
       partitions per level, and the last scrub outcome."
    in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let doc =
    "Report the health of a durable store: warehouse commit state, WAL extent and tail, and \
     sketch-checkpoint coverage. Exits non-zero if the store is damaged beyond what recovery \
     handles."
  in
  Cmd.v (Cmd.info "status" ~doc)
    Term.(const status $ dir $ shards $ replicas $ pool_blocks $ health)

(* --- metrics --------------------------------------------------------------- *)

let metrics device meta format phis no_exercise =
  match (device, meta) with
  | Some device_path, Some meta_path -> (
    try
      let eng = Hsq.Persist.load_files ~device_path ~meta_path () in
      (* Answer the requested quantiles silently first so the query-path
         metrics (latency histograms, probe counters, cache hits) carry
         real observations, not just the load-time I/O. *)
      if not no_exercise then List.iter (fun phi -> ignore (Hsq.Engine.quantile eng phi)) phis;
      let reg = Hsq.Engine.metrics eng in
      Hsq_obs.Process.register reg;
      (match format with
      | `Json -> print_endline (Hsq_obs.Metrics.to_json reg)
      | `Prometheus -> print_string (Hsq_obs.Metrics.to_prometheus reg));
      Hsq_storage.Block_device.close (Hsq.Engine.device eng);
      0
    with
    | Hsq.Persist.Corrupt_metadata msg ->
      Printf.eprintf "corrupt metadata: %s\n" msg;
      1
    | Hsq_storage.Block_device.Device_error msg ->
      Printf.eprintf "device error: %s\n" msg;
      1)
  | _ ->
    prerr_endline "metrics requires both --device and --meta";
    2

let metrics_cmd =
  let meta =
    Arg.(value & opt (some string) None & info [ "meta" ] ~docv:"PATH" ~doc:"Metadata sidecar.")
  in
  let format =
    let doc = "Output format: $(b,prometheus) (text exposition) or $(b,json)." in
    Arg.(
      value
      & opt (enum [ ("prometheus", `Prometheus); ("json", `Json) ]) `Prometheus
      & info [ "format"; "f" ] ~docv:"FMT" ~doc)
  in
  let no_exercise =
    let doc = "Dump the registry as loaded, without answering --quantiles first." in
    Arg.(value & flag & info [ "no-exercise" ] ~doc)
  in
  let doc =
    "Load a saved warehouse, answer the --quantiles against it, and dump its metric registry \
     (I/O counters, query latency histograms, cache and pool statistics)."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const metrics $ device_path $ meta $ format $ phis $ no_exercise)

(* --- serve ----------------------------------------------------------------- *)

let serve socket tcp epsilon kappa block_size query_domains durable wal_sync checkpoint_every
    queue_depth quick_ms accurate_ms ingest_ms admin_ms read_timeout_ms shards replicas
    ingest_domains stream_sketch =
  let listen =
    match (socket, tcp) with
    | Some path, None -> Some (Hsq_serve.Server.Unix_sock path)
    | None, Some port -> Some (Hsq_serve.Server.Tcp ("127.0.0.1", port))
    | _ -> None
  in
  match listen with
  | None ->
    prerr_endline "serve requires exactly one of --socket PATH or --tcp PORT";
    2
  | Some listen -> (
    let config =
      {
        (Hsq_serve.Server.default_config listen) with
        Hsq_serve.Server.queue_depth;
        budgets =
          { Hsq_serve.Server.quick_ms; accurate_ms; ingest_ms; admin_ms };
        read_timeout_s = read_timeout_ms /. 1000.0;
      }
    in
    try
      let srv =
        Hsq_serve.Server.create config
          (make_group ~shards ~replicas ~epsilon ~kappa ~block_size ~steps_hint:100
             ?query_domains ?durable ~wal_sync ~checkpoint_every ~ingest_domains ~stream_sketch
             ())
      in
      (* Signal handlers only flip the stop atomic; the accept loop
         notices within its poll interval and runs the drain. *)
      let on_signal _ = Hsq_serve.Server.request_stop srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Hsq_serve.Server.start srv;
      Printf.eprintf "hsq serve: listening on %s (queue depth %d%s%s)\n%!"
        (match listen with
        | Hsq_serve.Server.Unix_sock p -> p
        | Hsq_serve.Server.Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
        queue_depth
        (match durable with None -> "" | Some d -> ", durable at " ^ d)
        ((if shards > 1 then Printf.sprintf ", %d shards" shards else "")
        ^ (if replicas > 1 then Printf.sprintf ", %d replicas" replicas else "")
        ^ if ingest_domains > 1 then Printf.sprintf ", %d ingest lanes" ingest_domains else "");
      Hsq_serve.Server.wait srv;
      prerr_endline "hsq serve: drained";
      0
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "hsq serve: %s(%s): %s\n" fn arg (Unix.error_message e);
      1)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on 127.0.0.1:$(docv) instead of a Unix socket.")
  in
  let queue_depth =
    let doc =
      "Admission-queue capacity: requests beyond $(docv) waiting are shed with an explicit \
       $(b,overloaded) response and a retry-after hint."
    in
    Arg.(value & opt int 128 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let budget name default cls =
    let doc =
      Printf.sprintf
        "Deadline budget for %s requests, milliseconds (queue wait + execution). A request \
         past its budget is answered $(b,timeout)." cls
    in
    Arg.(value & opt float default & info [ name ] ~docv:"MS" ~doc)
  in
  let read_timeout_ms =
    let doc = "Per-connection stalled-read cutoff, milliseconds." in
    Arg.(value & opt float 30_000.0 & info [ "read-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "Run the warehouse as a long-lived daemon answering line-JSON requests (ingest, quick and \
     accurate quantile queries, windowed queries, stats, metrics, health) over a socket, with \
     bounded admission, per-class deadline budgets, and graceful drain on SIGTERM."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket $ tcp $ epsilon $ kappa $ block_size $ query_domains $ durable_dir
      $ wal_sync $ checkpoint_every $ queue_depth
      $ budget "quick-budget-ms" 250.0 "quick-query"
      $ budget "accurate-budget-ms" 2000.0 "accurate-query"
      $ budget "ingest-budget-ms" 2000.0 "ingest"
      $ budget "admin-budget-ms" 1000.0 "admin"
      $ read_timeout_ms $ shards $ replicas $ ingest_domains $ sketch_kind)

let () =
  let doc = "quantiles over the union of historical and streaming data (VLDB'16 reproduction)" in
  let info = Cmd.info "hsq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd;
            stream_cmd;
            query_cmd;
            inspect_cmd;
            scrub_cmd;
            status_cmd;
            metrics_cmd;
            serve_cmd;
          ]))
