(* Closed-loop load generator for `hsq serve`.

   Each connection is a closed loop: issue one request, wait for the
   reply, record its latency under its class, repeat until the clock
   runs out.  On an `overloaded` shed the loop honors the daemon's
   retry-after hint — exactly what a well-behaved client does — and
   the shed is counted, not retried silently.

   Default mode spawns its own in-process server over a Unix socket in
   a temp directory, backed by a shard group of --shards x --replicas
   engines (preloaded with a few archived steps so accurate queries
   touch disk); --socket points it at an external daemon
   instead.  --smoke runs a short fixed load and exits nonzero unless
   the run saw nonzero throughput, no client-visible protocol errors,
   and (in self-serve mode) a clean drain. *)

module Server = Hsq_serve.Server
module Client = Hsq_serve.Client
module Json = Hsq_serve.Json

type opts = {
  mutable socket : string option;
  mutable conns : int;
  mutable duration_s : float;
  mutable smoke : bool;
  mutable queue_depth : int;
  mutable seed : int;
  mutable shards : int;
  mutable replicas : int;
  mutable kill_replica : bool;
  mutable ingest_domains : int;
  mutable ingest_heavy : bool;
}

let parse_args () =
  let o =
    {
      socket = None;
      conns = 8;
      duration_s = 10.0;
      smoke = false;
      queue_depth = 128;
      seed = 42;
      shards = 1;
      replicas = 1;
      kill_replica = false;
      ingest_domains = 1;
      ingest_heavy = false;
    }
  in
  let spec =
    [
      ("--socket", Arg.String (fun s -> o.socket <- Some s), "PATH connect to a running daemon");
      ("--conns", Arg.Int (fun n -> o.conns <- n), "N closed-loop connections (default 8)");
      ("--duration", Arg.Float (fun d -> o.duration_s <- d), "S run length in seconds");
      ("--queue-depth", Arg.Int (fun n -> o.queue_depth <- n), "N self-serve admission capacity");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N workload seed");
      ("--shards", Arg.Int (fun k -> o.shards <- k), "K self-serve sharded backend (default 1)");
      ( "--replicas",
        Arg.Int (fun r -> o.replicas <- r),
        "R replicas per shard in the self-serve backend (default 1)" );
      ( "--kill-replica",
        Arg.Unit (fun () -> o.kill_replica <- true),
        " kill one replica mid-run and assert answers stay undegraded" );
      ( "--ingest-domains",
        Arg.Int (fun d -> o.ingest_domains <- d),
        "D self-serve concurrent ingest lanes (default 1)" );
      ( "--ingest-heavy",
        Arg.Unit (fun () -> o.ingest_heavy <- true),
        " invert the mix to 20/10/70 quick/accurate/ingest (writer-bound load)" );
      ( "--smoke",
        Arg.Unit
          (fun () ->
            o.smoke <- true;
            o.conns <- 4;
            o.duration_s <- 2.0),
        " short CI run: assert nonzero throughput and clean drain" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "serve_load [options]";
  o

(* Per-class tallies, one per worker thread; merged after the join. *)
type tally = {
  mutable lat : float list; (* seconds, per completed request *)
  mutable ok : int;
  mutable shed : int;
  mutable timeout : int;
  mutable errors : int; (* protocol-level surprises; must be 0 *)
}

let classes = [| "quick"; "accurate"; "ingest" |]
let new_tallies () = Array.map (fun _ -> { lat = []; ok = 0; shed = 0; timeout = 0; errors = 0 }) classes

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let now = Unix.gettimeofday

(* One worker: a seeded quick/accurate/ingest mix — 70/20/10 by
   default, 20/10/70 under --ingest-heavy (where the daemon's parallel
   ingest lanes should keep writers from queueing behind queries). *)
let worker listen ~seed ~deadline ~mix:(quick_lt, acc_lt) tallies =
  let rng = Random.State.make [| seed |] in
  let c = Client.connect listen in
  let record cls f =
    let t = tallies.(cls) in
    let t0 = now () in
    match f () with
    | r ->
      t.lat <- (now () -. t0) :: t.lat;
      if Client.is_ok r then t.ok <- t.ok + 1
      else begin
        match Client.error_kind r with
        | Some "overloaded" ->
          t.shed <- t.shed + 1;
          (* Honor the hint: back off as the daemon asked. *)
          (match Client.retry_after_ms r with
          | Some ms -> Thread.delay (ms /. 1000.0)
          | None -> ())
        | Some "timeout" -> t.timeout <- t.timeout + 1
        | Some "shutting_down" -> () (* drain raced the clock; benign *)
        | _ -> t.errors <- t.errors + 1
      end
    | exception Client.Protocol_error _ -> t.errors <- t.errors + 1
  in
  (try
     while now () < deadline do
       let r = Random.State.int rng 100 in
       if r < quick_lt then
         record 0 (fun () -> Client.quick c (`Phi (0.01 +. Random.State.float rng 0.98)))
       else if r < acc_lt then
         record 1 (fun () ->
             Client.accurate c ~deadline_ms:500.0 (`Phi (0.01 +. Random.State.float rng 0.98)))
       else
         record 2 (fun () ->
             let batch = Array.init 64 (fun _ -> Random.State.int rng 1_000_000) in
             Client.request c
               (Json.Obj
                  [
                    ("op", Json.Str "observe");
                    ("values", Json.List (Array.to_list (Array.map Json.int batch)));
                  ]))
     done
   with Client.Protocol_error _ -> tallies.(0).errors <- tallies.(0).errors + 1);
  Client.close c

let preload ~observe ~end_step ~seed =
  let rng = Random.State.make [| seed; 7 |] in
  for _step = 1 to 4 do
    for _ = 1 to 20_000 do
      observe (Random.State.int rng 1_000_000)
    done;
    end_step ()
  done;
  for _ = 1 to 5_000 do
    observe (Random.State.int rng 1_000_000)
  done

let () =
  let o = parse_args () in
  let listen, server =
    match o.socket with
    | Some path -> (Server.Unix_sock path, None)
    | None ->
      let dir = Filename.temp_file "hsq-serve-load" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let listen = Server.Unix_sock (Filename.concat dir "hsq.sock") in
      let config = { (Server.default_config listen) with Server.queue_depth = o.queue_depth } in
      let g =
        Hsq_shard.Shard_group.create
          (Hsq.Config.make ~shards:o.shards ~replicas:o.replicas ~ingest_domains:o.ingest_domains
             (Hsq.Config.Epsilon 0.01))
      in
      preload
        ~observe:(Hsq_shard.Shard_group.observe g)
        ~end_step:(fun () -> ignore (Hsq_shard.Shard_group.end_time_step g))
        ~seed:o.seed;
      let srv = Server.create config g in
      Server.start srv;
      (listen, Some (srv, g))
  in
  let deadline = now () +. o.duration_s in
  let per_worker = Array.init o.conns (fun _ -> new_tallies ()) in
  let t0 = now () in
  let mix = if o.ingest_heavy then (20, 30) else (70, 90) in
  let threads =
    Array.mapi
      (fun i tallies ->
        Thread.create
          (fun () -> worker listen ~seed:(o.seed + (31 * i)) ~deadline ~mix tallies)
          ())
      per_worker
  in
  (* Failover blip: halfway through the run, kill one replica through
     the daemon's maintenance path, then probe over the wire — the
     answer must stay fully undegraded (a live sibling serves the
     shard at ±ε·m), and the workers above keep measuring latency
     straight through the blip. *)
  let failover_undegraded = ref true in
  let chaos =
    if not o.kill_replica then None
    else
      match server with
      | Some (srv, _) when o.replicas > 1 ->
        Some
          (Thread.create
             (fun () ->
               Thread.delay (o.duration_s /. 2.0);
               Server.submit_fn srv (fun g ->
                   Hsq_shard.Shard_group.mark_replica_down g ~shard:0 ~replica:(o.replicas - 1)
                     ~reason:"bench: failover blip");
               let c = Client.connect listen in
               let r = Client.quick c (`Phi 0.5) in
               (match Json.get_str r "degradation" with
               | Some "none" -> ()
               | d ->
                 failover_undegraded := false;
                 Printf.eprintf "kill-replica probe: degradation %s\n%!"
                   (Option.value d ~default:"<absent>"));
               Client.close c)
             ())
      | _ ->
        failover_undegraded := false;
        prerr_endline "--kill-replica needs self-serve mode with --replicas >= 2";
        None
  in
  Array.iter Thread.join threads;
  Option.iter Thread.join chaos;
  let elapsed = now () -. t0 in
  (* Drain our own server; leave an external one running. *)
  let drained_clean =
    match server with
    | None -> true
    | Some (srv, g) ->
      Server.stop srv;
      Hsq_shard.Shard_group.is_closed g
  in
  (* Merge and report. *)
  let merged = new_tallies () in
  Array.iter
    (fun tallies ->
      Array.iteri
        (fun i t ->
          merged.(i).lat <- t.lat @ merged.(i).lat;
          merged.(i).ok <- merged.(i).ok + t.ok;
          merged.(i).shed <- merged.(i).shed + t.shed;
          merged.(i).timeout <- merged.(i).timeout + t.timeout;
          merged.(i).errors <- merged.(i).errors + t.errors)
        tallies)
    per_worker;
  Printf.printf "serve_load: %d conns, %.1fs, %d shard%s x %d replica%s%s, %d ingest lane%s%s, %s\n"
    o.conns elapsed o.shards
    (if o.shards = 1 then "" else "s")
    o.replicas
    (if o.replicas = 1 then "" else "s")
    (if o.kill_replica then " (one killed mid-run)" else "")
    o.ingest_domains
    (if o.ingest_domains = 1 then "" else "s")
    (if o.ingest_heavy then ", ingest-heavy mix" else "")
    (match listen with Server.Unix_sock p -> "unix:" ^ p | Server.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p);
  Printf.printf "%-9s %9s %12s %9s %9s %9s %6s %8s\n" "class" "count" "throughput" "p50_ms"
    "p99_ms" "p999_ms" "shed" "timeout";
  let total_ok = ref 0 and total_errors = ref 0 in
  Array.iteri
    (fun i t ->
      let lat = Array.of_list t.lat in
      Array.sort compare lat;
      let ms q = 1000.0 *. percentile lat q in
      total_ok := !total_ok + t.ok;
      total_errors := !total_errors + t.errors;
      Printf.printf "%-9s %9d %10.1f/s %9.2f %9.2f %9.2f %6d %8d\n" classes.(i)
        (Array.length lat)
        (float_of_int (Array.length lat) /. elapsed)
        (ms 0.5) (ms 0.99) (ms 0.999) t.shed t.timeout)
    merged;
  Printf.printf "total: %d ok, %.1f req/s, %d client-visible errors, drain %s%s\n" !total_ok
    (float_of_int !total_ok /. elapsed)
    !total_errors
    (if drained_clean then "clean" else "UNCLEAN")
    (if o.kill_replica then
       if !failover_undegraded then ", failover undegraded" else ", failover DEGRADED"
     else "");
  if o.smoke then
    if !total_ok > 0 && !total_errors = 0 && drained_clean && !failover_undegraded then begin
      print_endline "smoke: OK";
      exit 0
    end
    else begin
      print_endline "smoke: FAILED";
      exit 1
    end
