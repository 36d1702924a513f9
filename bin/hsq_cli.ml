(* hsq — command-line front end.

   Subcommands:
     simulate  drive a synthetic warehouse (one of the paper's datasets)
               and report quantiles, accuracy, and I/O costs;
     stream    read integers from stdin, archiving a time step every N
               elements, and answer quantile queries at EOF;
     query     reopen a store and answer quantile and heavy-hitter
               queries against it;
     inspect   print a store's partition layout, window alignment, and
               memory footprint;
     scrub     verify a store end to end (and repair with --repair);
     status    report a store's health without opening it;
     metrics   dump a store's metric registry;
     serve     run the warehouse as a line-JSON daemon.

   simulate, stream, query, inspect, scrub, metrics and serve each have
   one body over a Shard_group, whatever its shards and replicas:
   [with_group] opens the store --durable DIR names as the group (a
   lone engine is its one-store case), or a volatile group without it.
   A store records its own layout; only the creating subcommands take
   --shards/--replicas, for a new store. *)

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

let block_size =
  let doc = "Simulated disk block size, in elements." in
  Arg.(value & opt int 256 & info [ "block-size" ] ~docv:"B" ~doc)

let phis =
  let doc = "Quantiles to report." in
  Arg.(value & opt phi_list [ 0.5; 0.95; 0.99 ] & info [ "quantiles"; "q" ] ~docv:"PHIS" ~doc)

let shards =
  let doc =
    "Shard a new warehouse across $(docv) independent engines (own device, WAL, breaker, \
     quarantine per shard); ingest hash-routes and queries fuse the shards' answers with the \
     same ±ε·m guarantee. Unset = 1. A store keeps its layout: on one, a different value exits 2."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"K" ~doc)

let replicas =
  let doc =
    "Run every logical shard as $(docv) replicated engines (own device, WAL, \
     breaker per replica): writes fan out synchronously to each live replica and are \
     acknowledged while at least one accepts, reads fail over to a sibling instead of \
     widening bounds when a replica is down, downed replicas catch up from hinted handoff \
     on rejoin, and $(b,hsq scrub) compares replica state digests and repairs divergence \
     from the healthiest sibling. Works with or without --shards. Unset = 1; like --shards."
  in
  Arg.(value & opt (some int) None & info [ "replicas" ] ~docv:"R" ~doc)

let deadline_ms =
  let doc =
    "Accurate-query deadline in milliseconds: a query that overruns it returns its \
     best-so-far answer, flagged $(b,deadline) with an honest rank-error bound, instead of \
     blocking. Unset = unbounded."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

(* Store options. *)
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
    "The store: its warehouse and write-ahead log live in $(docv), and a sharded or \
     replicated store records its layout there. $(b,simulate), $(b,stream) and $(b,serve) \
     create it or recover whatever a previous (possibly crashed) run left there, and run in \
     memory without it; $(b,query), $(b,inspect), $(b,scrub), $(b,metrics) and $(b,status) \
     read a store that exists, at its recorded shards and replicas."
  in
  Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR" ~doc)

let wal_sync =
  let doc =
    "WAL sync policy with --durable, applied once per append call (one element, or one \
     $(b,serve) observe request): $(b,always) (flush once per call, before its ack: zero \
     acknowledged loss), $(b,group:N) (flush once N records are pending), or $(b,never) \
     (flush only at commit markers)."
  in
  Arg.(value & opt wal_sync_conv Hsq_storage.Wal.Always & info [ "wal-sync" ] ~docv:"POLICY" ~doc)

(* --- opening a store --------------------------------------------------- *)

module G = Hsq_shard.Shard_group

(* Labels name a store only when the layout has more than one. *)
let store_label ~shards ~replicas ~shard ~replica =
  if replicas > 1 then Printf.sprintf "shard %d replica %d" shard replica
  else if shards > 1 then Printf.sprintf "shard %d" shard
  else ""

let group_label g = store_label ~shards:(G.shard_count g) ~replicas:(G.replica_count g)

(* The label as a line prefix ("shard 1: "), empty at K = 1, R = 1. *)
let group_prefix g ~shard ~replica =
  match group_label g ~shard ~replica with "" -> "" | l -> l ^ ": "

let report_recoveries g recoveries =
  List.iter
    (fun { G.shard; replica; outcome } ->
      let who = group_prefix g ~shard ~replica in
      match outcome with
      | Ok (r : Hsq.Engine.recovery_report) ->
        if r.replayed > 0 || r.wal_tail <> None then
          Printf.eprintf
            "[recover] %sreplayed %d WAL records: %d steps re-archived, %d already committed%s\n%!"
            who r.replayed r.steps_reingested r.steps_skipped
            (match r.wal_tail with
            | None -> ""
            | Some why -> Printf.sprintf "; torn tail floored (%s)" why)
      | Error msg ->
        Printf.eprintf "[recover] %sFAILED, marked down (%s): %s\n%!" who
          (if G.replica_count g > 1 then "siblings keep serving, rejoin after repair"
           else "queries degrade, rejoin after repair")
          msg)
    recoveries

(* A warehouse that cannot be read exits 1, in every subcommand; a
   store written with ingest lanes exits 2. *)
let guard f =
  try f () with
  | Hsq.Engine.Unsupported_store msg ->
    Printf.eprintf "unsupported store: %s\n" msg;
    2
  | Hsq.Meta.Corrupt_metadata msg ->
    Printf.eprintf "corrupt metadata: %s\n" msg;
    1
  | Hsq_storage.Block_device.Device_error msg ->
    Printf.eprintf "device error: %s\n" msg;
    1

(* A --durable DIR the subcommand cannot use: it is reported and exits
   2, and nothing is created.  A read-only subcommand needs the store
   to exist; a creating one needs DIR to be a directory, or to be
   missing under an existing parent (the store directory is created,
   never its ancestors). *)
let unusable_store ~reopen dir =
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  let parent = Filename.dirname dir in
  let why =
    if is_dir dir then None
    else if reopen then Some ("no such store directory: " ^ dir)
    else if Sys.file_exists dir then Some ("store path is not a directory: " ^ dir)
    else if not (is_dir parent) then
      Some (Printf.sprintf "cannot create store directory %s: no such directory %s" dir parent)
    else None
  in
  Option.iter prerr_endline why;
  why <> None

(* The one way a subcommand gets its warehouse: a shard group at every K,
   handed to [k] and closed after it.  --durable DIR opens (or recovers)
   the store rooted there, at its own layout; without it a volatile
   group stands in.  With [~reopen:true] (query, inspect, scrub,
   metrics) a missing DIR or --durable exits 2, a DIR that holds no
   store exits 1, and nothing is created anywhere.  Otherwise a DIR
   whose parent is missing exits 2 the same way, as do
   [shards]/[replicas] that disagree with the store's layout.
   [config.wal_dir] is set here. *)
let with_group ~who ~config ?(reopen = false) ?shards ?replicas durable k =
  let run g =
    let code = k g in
    G.close g;
    code
  in
  match durable with
  | Some dir when unusable_store ~reopen dir -> 2
  | Some dir -> (
    match G.layout ~root:dir with
    | None when reopen ->
      Printf.eprintf "%s: %s holds no store (never created, or lost)\n" who dir;
      1
    | layout ->
      (* The store's own layout; the flags' (1 without them) for a root
         that holds no store. *)
      let default = (Option.value shards ~default:1, Option.value replicas ~default:1) in
      let k, r = Option.value layout ~default in
      let conflicts flag v = flag <> None && flag <> Some v in
      if conflicts shards k || conflicts replicas r then begin
        Printf.eprintf "%s holds a store of %d shards x %d replicas: leave --shards/--replicas \
                        off or match them\n" dir k r;
        2
      end
      else
        guard (fun () ->
            let config = { config with Hsq.Config.wal_dir = Some dir; shards = k; replicas = r } in
            let g, recoveries = G.open_or_recover config in
            report_recoveries g recoveries;
            run g))
  | None when reopen ->
    Printf.eprintf "%s requires --durable DIR\n" who;
    2
  | None -> run (G.create config)

(* --- reports ------------------------------------------------------------ *)

(* Archive the open step on every shard; returns the update I/O of the
   shards that archived. *)
let archive g ~who =
  List.fold_left
    (fun io (i, r) ->
      match r with
      | Ok (report : Hsq_hist.Level_index.update_report) ->
        Hsq_storage.Io_stats.add io report.io_total
      | Error msg ->
        Printf.eprintf "[%s] shard %d archive failed: %s\n%!" who i msg;
        io)
    Hsq_storage.Io_stats.zero (G.end_time_step g)

(* Partitions are summed over the read replicas, levels are the
   deepest; a one-store group prints no topology. *)
let report_footprint ?update_io g =
  let down = G.shards_down g in
  let hists = List.map (fun (_, e) -> Hsq.Engine.hist e) (G.engines g) in
  Printf.printf "N=%d (historical %d + stream %d%s), %d time steps, %s%s%d partitions over %d levels\n"
    (G.total_size g) (G.hist_size g) (G.stream_size g)
    (match G.down_elements g with 0 -> "" | d -> Printf.sprintf " + %d dark on down shards" d)
    (G.time_steps g)
    (match (G.shard_count g, G.replica_count g) with
    | 1, 1 -> ""
    | k, 1 -> Printf.sprintf "%d shards, " k
    | k, r -> Printf.sprintf "%d shards x %d replicas, " k r)
    (match down with
    | [] -> ""
    | ks -> Printf.sprintf "(DOWN: %s), " (String.concat "," (List.map string_of_int ks)))
    (List.fold_left (fun acc h -> acc + Hsq_hist.Level_index.partition_count h) 0 hists)
    (List.fold_left (fun acc h -> max acc (Hsq_hist.Level_index.num_levels h)) 0 hists);
  List.iter
    (fun (i, j) ->
      if not (List.mem i down) then
        Printf.printf "replica %d of shard %d down (%s) — sibling serving at full precision\n" j i
          (Option.value ~default:"?" (G.replica_down_reason g ~shard:i ~replica:j)))
    (G.replicas_down g);
  List.iter
    (fun (i, j) ->
      Printf.printf "replica %d of shard %d DIVERGED — excluded from reads (scrub --repair)\n" j i)
    (G.diverged_replicas g);
  Printf.printf "summary memory: %d words (%.1f KiB)\n" (G.memory_words g)
    (float_of_int (8 * G.memory_words g) /. 1024.0);
  Option.iter
    (fun io ->
      Printf.printf "update I/O total: %s\n" (Format.asprintf "%a" Hsq_storage.Io_stats.pp io))
    update_io

(* A fused answer needs data on a serving shard; a store whose every
   such shard is down has only the dark elements its footprint counts. *)
let answerable g = G.total_size g > G.down_elements g

let report_quantiles g phis =
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
    (if answerable g then phis else [])

(* --- simulate ---------------------------------------------------------- *)

let simulate dataset steps step_size seed epsilon kappa block_size deadline_ms phis verify
    durable wal_sync shards replicas =
  let config =
    Hsq.Config.make ~kappa ~block_size ~steps_hint:steps
      ?query_deadline_ms:deadline_ms ~wal_sync ?shards ?replicas
      (Hsq.Config.Epsilon epsilon)
  in
  let ds = Hsq_workload.Datasets.by_name ~seed dataset in
  with_group ~who:"simulate" ~config ?shards ?replicas durable (fun g ->
      let oracle = if verify then Some (Hsq_workload.Oracle.create ()) else None in
      let update_io = ref Hsq_storage.Io_stats.zero in
      for step = 1 to steps do
        let batch = Hsq_workload.Datasets.next_batch ds step_size in
        Option.iter (fun o -> Hsq_workload.Oracle.add_batch o batch) oracle;
        Array.iter (G.observe g) batch;
        update_io := Hsq_storage.Io_stats.add !update_io (archive g ~who:"simulate");
        if step mod 10 = 0 then Printf.eprintf "[simulate] archived step %d/%d\n%!" step steps
      done;
      (* live stream: half a batch *)
      let tail = Hsq_workload.Datasets.next_batch ds (max 1 (step_size / 2)) in
      Option.iter (fun o -> Hsq_workload.Oracle.add_batch o tail) oracle;
      Array.iter (G.observe g) tail;
      Printf.printf "dataset=%s  " dataset;
      report_footprint ~update_io:!update_io g;
      report_quantiles g phis;
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
      0)

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
      $ deadline_ms $ phis $ verify $ durable_dir $ wal_sync $ shards $ replicas)

(* --- stream ------------------------------------------------------------- *)

let stream step_every epsilon kappa block_size deadline_ms phis durable wal_sync shards
    replicas =
  let config =
    Hsq.Config.make ~kappa ~block_size ~steps_hint:100
      ?query_deadline_ms:deadline_ms ~wal_sync ?shards ?replicas
      (Hsq.Config.Epsilon epsilon)
  in
  with_group ~who:"stream" ~config ?shards ?replicas durable (fun g ->
      let observe v =
        try G.observe g v with G.Shard_unavailable (i, reason) ->
          Printf.eprintf "[stream] DROPPED (shard %d down: %s)\n%!" i reason
      in
      (* Observe, count, archive every N. *)
      let in_step = ref 0 in
      (try
         while true do
           let line = String.trim (input_line stdin) in
           if line <> "" then begin
             match int_of_string_opt line with
             | None -> Printf.eprintf "[stream] skipping non-integer line %S\n%!" line
             | Some v ->
               observe v;
               incr in_step;
               if !in_step >= step_every then begin
                 let io = archive g ~who:"stream" in
                 Printf.eprintf "[stream] archived step %d (%d block I/Os)\n%!" (G.time_steps g)
                   (Hsq_storage.Io_stats.total io);
                 in_step := 0
               end
           end
         done
       with End_of_file -> ());
      (* Closing flushes the WAL: the open step (elements past the last
         archive point) survives a restart with --durable. *)
      if G.total_size g = 0 then begin
        prerr_endline "no data read";
        1
      end
      else begin
        report_footprint g;
        report_quantiles g phis;
        0
      end)

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
      const stream $ step_every $ epsilon $ kappa $ block_size $ deadline_ms $ phis
      $ durable_dir $ wal_sync $ shards $ replicas)

(* --- query ---------------------------------------------------------------- *)

let query deadline_ms phis heavy trace durable =
  let config = Hsq.Config.make ?query_deadline_ms:deadline_ms (Hsq.Config.Epsilon 0.01) in
  with_group ~who:"query" ~config ~reopen:true durable (fun g ->
      if G.total_size g = 0 then begin
        prerr_endline "empty store";
        1
      end
      else begin
        let tracer = if trace then Some (Hsq_obs.Trace.create ()) else None in
        G.set_tracer g tracer;
        report_footprint g;
        report_quantiles g phis;
        Option.iter
          (fun phi ->
            (* Counts are exact over the archived partitions; an open
               step holds elements no partition has yet. *)
            if G.stream_size g > 0 then
              prerr_endline "warning: --heavy ignored on a store with an open step"
            else if G.shards_down g <> [] then
              prerr_endline "warning: --heavy ignored with a shard down"
            else begin
              let engines = List.map snd (G.engines g) in
              let stats =
                List.map (fun e -> Hsq_storage.Block_device.stats (Hsq.Engine.device e)) engines
              in
              let partitions =
                List.concat_map (fun e -> Hsq_hist.Level_index.partitions (Hsq.Engine.hist e)) engines
              in
              let hits, report = Hsq.Heavy_hitters.frequent ~stats partitions ~phi in
              Printf.printf
                "values with frequency >= %g%% (%d candidates verified, %d disk accesses):\n"
                (100.0 *. phi) report.Hsq.Heavy_hitters.candidates
                (Hsq_storage.Io_stats.total report.Hsq.Heavy_hitters.io);
              List.iter
                (fun (h : Hsq.Heavy_hitters.hit) ->
                  Printf.printf "  %-12d count in [%d, %d]\n" h.value h.lower h.upper)
                hits
            end)
          heavy;
        Option.iter
          (fun tr ->
            (* One JSON line per completed root span (query.accurate with
               bisect/probe children, ...), oldest first. *)
            print_endline "trace:";
            List.iter
              (fun s -> print_endline (Hsq_obs.Trace.to_json s))
              (Hsq_obs.Trace.roots tr))
          tracer;
        (* Exit-code contract: degraded answers (a whole shard dark)
           fail; a downed replica with a live sibling keeps full
           precision and exits 0. *)
        if G.shards_down g = [] then 0 else 1
      end)

let query_cmd =
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
  let doc = "Query the store a simulate, stream or serve run left (see --durable)." in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const query $ deadline_ms $ phis $ heavy $ trace $ durable_dir)

(* --- inspect --------------------------------------------------------------- *)

let inspect durable =
  let config = Hsq.Config.make (Hsq.Config.Epsilon 0.01) in
  with_group ~who:"inspect" ~config ~reopen:true durable (fun g ->
      report_footprint g;
      (* Each read replica's index, under its label. *)
      let stores =
        List.map
          (fun (i, e) ->
            let reads_through j =
              match G.replica_engine g ~shard:i ~replica:j with Some r -> r == e | None -> false
            in
            let j = List.find reads_through (List.init (G.replica_count g) Fun.id) in
            (group_prefix g ~shard:i ~replica:j, Hsq.Engine.hist e))
          (G.engines g)
      in
      List.iter
        (fun (who, hist) ->
          Printf.printf "\n%spartition layout (newest first):\n" who;
          List.iter
            (fun p ->
              Printf.printf "  %s  summary=%d entries\n"
                (Format.asprintf "%a" Hsq_hist.Partition.pp p)
                (Hsq_hist.Partition_summary.length (Hsq_hist.Partition.summary p)))
            (Hsq_hist.Level_index.partitions hist);
          match Hsq_hist.Level_index.expired_through hist with
          | 0 -> ()
          | through -> Printf.printf "%sretention: steps 1..%d expired\n" who through)
        stores;
      Printf.printf "answerable windows (steps): %s\n"
        (String.concat ", " (List.map string_of_int (G.window_sizes g)));
      Printf.printf "aligned range boundaries: %s\n"
        (String.concat ", "
           (List.map (fun (a, b) -> Printf.sprintf "[%d-%d]" a b) (G.range_boundaries g)));
      List.iter
        (fun (who, hist) ->
          match Hsq_hist.Level_index.check_invariants hist with
          | [] -> Printf.printf "%sinvariants: OK\n" who
          | errs -> List.iter (fun e -> Printf.printf "%sINVARIANT VIOLATION: %s\n" who e) errs)
        stores;
      if G.shards_down g = [] then 0 else 1)

let inspect_cmd =
  let doc = "Print a store's layout, windows, and health." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const inspect $ durable_dir)

(* --- scrub ----------------------------------------------------------------- *)

let scrub repair durable =
  let config = Hsq.Config.make (Hsq.Config.Epsilon 0.01) in
  with_group ~who:"scrub" ~config ~reopen:true durable (fun g ->
      let errors = ref 0 in
      (* A downed replica with a live sibling rejoins first: its hints
         drain, or its lost store is copied back from the sibling. *)
      if repair then
        List.iter
          (fun (i, j) ->
            if not (List.mem i (G.shards_down g)) then
              match G.rejoin_replica g ~shard:i ~replica:j with
              | Ok _ -> Printf.printf "scrub: shard %d replica %d rejoined\n" i j
              | Error why -> Printf.printf "scrub: shard %d replica %d did not rejoin: %s\n" i j why)
          (G.replicas_down g);
      (* Media scrub of every live replica store. *)
      List.iter
        (fun ((i, j), (r : Hsq.Engine.scrub_report)) ->
          let who = group_label g ~shard:i ~replica:j in
          Printf.printf "%sscrubbed %d partitions (%d block reads)"
            (if who = "" then "" else who ^ ": ")
            r.partitions_checked r.blocks_read;
          if repair then
            Printf.printf "; %d quarantined, %d reinstated, %d still quarantined" r.quarantined
              r.reinstated r.still_quarantined
          else if r.still_quarantined > 0 then
            Printf.printf "; %d partitions quarantined (re-verify with --repair)"
              r.still_quarantined;
          print_newline ();
          Option.iter
            (fun e ->
              let stats =
                Hsq_storage.Io_stats.snapshot
                  (Hsq_storage.Block_device.stats (Hsq.Engine.device e))
              in
              if stats.retries > 0 then
                Printf.printf "retries during scrub: %d (checksum failures: %d)\n" stats.retries
                  stats.checksum_failures)
            (G.replica_engine g ~shard:i ~replica:j);
          List.iter
            (fun e ->
              incr errors;
              if who = "" then Printf.printf "SCRUB ERROR: %s\n" e
              else Printf.printf "SCRUB ERROR [%s]: %s\n" who e)
            r.errors)
        (G.scrub_all ~repair g);
      (* Anti-entropy digest pass (replicated durable stores): replicas
         of a shard apply identical op sequences, so any digest
         disagreement is real divergence. *)
      List.iter
        (fun (er : G.entropy_report) ->
          (match er.flagged with
          | [] ->
            Printf.printf "anti-entropy [shard %d]: %d replicas consistent\n" er.entropy_shard
              (List.length er.digests)
          | flagged ->
            List.iter
              (fun (j, why) ->
                if List.mem j er.repaired then
                  Printf.printf
                    "anti-entropy [shard %d]: replica %d DIVERGED (%s); repaired from healthiest \
                     sibling\n"
                    er.entropy_shard j why
                else if not (List.mem_assoc j er.repair_failed) then begin
                  incr errors;
                  Printf.printf "ANTI-ENTROPY ERROR [shard %d]: replica %d diverged (%s)%s\n"
                    er.entropy_shard j why
                    (if repair then "" else "; re-run with --repair")
                end)
              flagged);
          List.iter
            (fun (j, why) ->
              incr errors;
              Printf.printf "ANTI-ENTROPY ERROR [shard %d]: replica %d repair failed: %s\n"
                er.entropy_shard j why)
            er.repair_failed)
        (G.anti_entropy ~repair g);
      (* Downed replicas with live siblings are warnings, not damage:
         answers keep full precision and hints replay on rejoin.  A
         shard with no live replica is damage. *)
      let down = G.shards_down g in
      List.iter
        (fun (i, j) ->
          if not (List.mem i down) then
            Printf.printf
              "scrub: shard %d replica %d down (%s) — sibling serving, catches up on rejoin\n" i j
              (Option.value ~default:"?" (G.replica_down_reason g ~shard:i ~replica:j)))
        (G.replicas_down g);
      List.iter
        (fun i ->
          incr errors;
          Printf.printf "SCRUB ERROR [shard %d]: shard is down (%s)\n" i
            (Option.value ~default:"?" (G.down_reason g i)))
        down;
      if !errors = 0 then begin
        print_endline "scrub: OK";
        0
      end
      else 1)

let scrub_cmd =
  let repair =
    let doc =
      "Act on what the scrub finds: quarantine partitions that fail verification, re-verify \
       and reinstate previously quarantined ones, and repair diverged replicas from their \
       healthiest sibling."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let doc =
    "Verify a store end to end: re-read every partition, checking block checksums and \
     sortedness. Exits non-zero if any damage is found."
  in
  Cmd.v (Cmd.info "scrub" ~doc) Term.(const scrub $ repair $ durable_dir)

(* --- status (durable store health) ----------------------------------------- *)

(* Failure-containment health: collected and rendered by
   Hsq_serve.Health, the same implementation behind the daemon's
   `health` wire verb, so the two surfaces cannot drift.  Returns the
   shared exit code (0 healthy, 1 degraded). *)
let report_health eng =
  let h = Hsq_serve.Health.collect eng in
  List.iter print_endline (Hsq_serve.Health.to_lines h);
  Hsq_serve.Health.exit_code h

(* The checks on one store directory; 0 healthy, 1 damaged. *)
let status_one dir health =
  Hsq.Engine.check_store ~dir;
  let device_path, meta_path, wal_path = Hsq.Engine.store_paths ~dir in
  let problems = ref 0 in
  let problem fmt = Printf.ksprintf (fun s -> incr problems; Printf.printf "%s\n" s) fmt in
  (* Warehouse: the sidecar is the commit record. *)
  (match (Sys.file_exists meta_path, Sys.file_exists device_path) with
  | false, _ -> print_endline "warehouse: empty (no committed time step yet)"
  | true, false -> problem "warehouse: DAMAGED — sidecar present but device file missing"
  | true, true -> (
    match Hsq.Engine.load_warehouse ~dir with
    | eng ->
      Printf.printf "warehouse: %d archived steps, %d elements, %d partitions\n"
        (Hsq.Engine.time_steps eng) (Hsq.Engine.hist_size eng)
        (Hsq_hist.Level_index.partition_count (Hsq.Engine.hist eng));
      if health && report_health eng <> 0 then
        problem "health: DEGRADED — breaker open or partitions quarantined";
      Hsq_storage.Block_device.close (Hsq.Engine.device eng)
    | exception Hsq.Meta.Corrupt_metadata msg -> problem "warehouse: CORRUPT — %s" msg
    | exception Hsq_storage.Block_device.Device_error msg ->
      problem "warehouse: DEVICE ERROR — %s" msg));
  (* Write-ahead log: the open step's one durable copy. *)
  (if Sys.file_exists wal_path then begin
     let count (o, m) _ = function
       | Hsq_storage.Wal.Observe _ -> (o + 1, m)
       | Hsq_storage.Wal.End_step _ -> (o, m + 1)
     in
     match Hsq_storage.Wal.fold_path ~path:wal_path count (0, 0) with
     | (observes, markers), start_seq, tail ->
       let records = observes + markers in
       Printf.printf "wal: %d records (%d observes, %d commit markers), seq %d..%d\n" records
         observes markers start_seq (start_seq + records - 1);
       (match tail with
       | Hsq_storage.Wal.Clean -> ()
       | Hsq_storage.Wal.Torn why ->
         (* Expected after a crash — recovery floors it — so it is
            reported but is not a health problem by itself. *)
         Printf.printf "wal: torn tail (%s); next open floors it\n" why)
     | exception Hsq_storage.Block_device.Device_error msg -> problem "wal: UNREADABLE — %s" msg
   end
   else print_endline "wal: absent (no open step)");
  if !problems = 0 then begin
    print_endline "status: OK";
    0
  end
  else begin
    Printf.printf "status: %d problem(s)\n" !problems;
    1
  end

(* The per-store checks on every store of the group (the root itself at
   K = 1, R = 1), at the layout the store records, rolled up into one
   verdict.  Reads only: an older store's inferred layout is not
   written here.

   Exit-code contract (documented in the README): 0 also covers
   degraded-but-full-precision states — a damaged or missing replica
   store whose sibling is intact keeps every answer inside ±ε·m, so it
   is reported as a warning; only a shard with NO intact replica
   (answers degraded) exits 1, as does a DIR that holds no store.  A
   missing DIR or --durable, or a store written with ingest lanes,
   exits 2. *)
let status durable health =
  match durable with
  | None ->
    prerr_endline "status requires --durable DIR";
    2
  | Some dir when unusable_store ~reopen:true dir -> 2
  | Some dir ->
    guard @@ fun () ->
    let shards, replicas = Option.value (G.layout ~root:dir) ~default:(1, 1) in
    let stores = shards * replicas in
    let rows =
      List.init shards (fun i ->
          List.init replicas (fun j ->
              let sdir = G.store_dir ~root:dir ~shards ~replicas ~shard:i ~replica:j in
              let label = store_label ~shards ~replicas ~shard:i ~replica:j in
              if stores > 1 then Printf.printf "== %s: %s ==\n" label sdir;
              let code =
                if Hsq.Engine.store_exists ~dir:sdir then status_one sdir health
                else begin
                  Printf.printf "%s: MISSING (never created, or lost with its volume)\n"
                    (if label = "" then "store" else label);
                  1
                end
              in
              if stores > 1 then print_newline ();
              code))
    in
    let shard_ok = List.map (List.exists (fun c -> c = 0)) rows in
    if stores > 1 then begin
      (* Per-shard replica matrix: one row per shard, one cell per
         replica store. *)
      print_endline "replica matrix:";
      List.iteri
        (fun i row ->
          Printf.printf "  shard %d: %s\n" i
            (String.concat "  "
               (List.mapi (fun j c -> Printf.sprintf "r%d=%s" j (if c = 0 then "OK" else "BAD")) row)))
        rows;
      let bad_stores =
        List.fold_left (fun acc row -> acc + List.length (List.filter (fun c -> c <> 0) row)) 0 rows
      in
      Printf.printf "status: %d/%d stores OK, %d/%d shards with an intact replica\n"
        (stores - bad_stores) stores
        (List.length (List.filter Fun.id shard_ok))
        shards;
      if List.for_all Fun.id shard_ok && bad_stores > 0 then
        Printf.printf
          "status: WARNING — %d damaged replica store(s); siblings keep full precision, repair \
           on rejoin\n"
          bad_stores
    end;
    if List.for_all Fun.id shard_ok then 0 else 1

let status_cmd =
  let health =
    let doc =
      "Also report failure-containment state: the device circuit breaker, quarantined \
       partitions per level, and the last scrub outcome."
    in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let doc =
    "Report the health of a durable store: warehouse commit state, and WAL extent and tail. \
     Exits non-zero if the store is damaged beyond what recovery handles."
  in
  Cmd.v (Cmd.info "status" ~doc)
    Term.(const status $ durable_dir $ health)

(* --- metrics --------------------------------------------------------------- *)

let metrics format phis no_exercise durable =
  let config = Hsq.Config.make (Hsq.Config.Epsilon 0.01) in
  with_group ~who:"metrics" ~config ~reopen:true durable (fun g ->
      (* Answer the requested quantiles silently first so the query-path
         metrics (latency histograms, probe counters, cache hits) carry
         real observations, not just the load-time I/O. *)
      if not no_exercise && answerable g then
        List.iter (fun phi -> ignore (G.quantile g phi)) phis;
      (* The daemon's metrics verb renders through the same exporters. *)
      let extra = Hsq_obs.Metrics.create () in
      Hsq_obs.Process.register extra;
      (match format with
      | `Json -> print_endline (G.metrics_json ~extra g)
      | `Prometheus -> print_string (G.metrics_prometheus ~extra g));
      if G.shards_down g = [] then 0 else 1)

let metrics_cmd =
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
    "Open a store, answer the --quantiles against it, and dump its metric registry (I/O \
     counters, query latency histograms, cache statistics); one section per store when \
     the store has more than one."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(const metrics $ format $ phis $ no_exercise $ durable_dir)

(* --- serve ----------------------------------------------------------------- *)

let serve socket tcp epsilon kappa block_size durable wal_sync queue_depth quick_ms accurate_ms
    ingest_ms admin_ms read_timeout_ms shards replicas =
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
  | Some listen ->
    let config =
      {
        (Hsq_serve.Server.default_config listen) with
        Hsq_serve.Server.queue_depth;
        budgets =
          { Hsq_serve.Server.quick_ms; accurate_ms; ingest_ms; admin_ms };
        read_timeout_s = read_timeout_ms /. 1000.0;
      }
    in
    let store_config =
      Hsq.Config.make ~kappa ~block_size ~steps_hint:100 ~wal_sync ?shards ?replicas
        (Hsq.Config.Epsilon epsilon)
    in
    with_group ~who:"serve" ~config:store_config ?shards ?replicas durable (fun g ->
        try
          let srv = Hsq_serve.Server.create config g in
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
            ((match G.shard_count g with 1 -> "" | k -> Printf.sprintf ", %d shards" k)
            ^ match G.replica_count g with 1 -> "" | r -> Printf.sprintf ", %d replicas" r);
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
        "Deadline budget for %s requests, milliseconds, counted from when the daemon reads \
         the request line (queue wait + execution). A request past its budget is answered \
         $(b,timeout)." cls
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
      const serve $ socket $ tcp $ epsilon $ kappa $ block_size $ durable_dir
      $ wal_sync $ queue_depth
      $ budget "quick-budget-ms" 250.0 "quick-query"
      $ budget "accurate-budget-ms" 2000.0 "accurate-query"
      $ budget "ingest-budget-ms" 2000.0 "ingest"
      $ budget "admin-budget-ms" 1000.0 "admin"
      $ read_timeout_ms $ shards $ replicas)

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
