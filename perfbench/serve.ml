(* serve-read: the wire workload against a forked `hsq serve` daemon.

   The store is preloaded during set-up, then two closed-loop
   connections each send a fixed seeded list of 80% quick / 20%
   accurate queries after an untimed warm-up.  No writes, so every
   quick answer hits the engine's summary cache and the wire path
   dominates.  The daemon's counters, memory and CPU are read only
   outside the timed window. *)

open Common
module Client = Hsq_serve.Client
module Json = Hsq_serve.Json
module O = Hsq_workload.Oracle
module D = Hsq_workload.Datasets

(* Requests per second of --seconds: sized so the timed window lasts
   about --seconds on a 2-core box. *)
let read_requests_per_s = 10_000

(* Two connections at most: the box the benchmark was tuned on has two
   cores, and the load generator must leave one to the daemon. *)
let read_conns = 2

let read_shape = { Inputs.dataset = "uniform"; steps = 20; step_size = 10_000; batch = 200; tail = 5_000 }

(* Everything the daemon reported after the timed window. *)
type readings = {
  rss_mb : float;
  summary_words : float;
  writes_per_step : float;
  cpu_s : float; (* daemon CPU over the timed window *)
  window_s : float;
  window_requests : int;
  queue_wait_p50_ms : float;
  queue_wait_p99_ms : float;
  gc_major : float;
  gc_heap_mb : float;
  quick_rtt_us : float; (* sequential quick round trip after the window *)
}

type outcome = {
  attempted : int;
  failures : Failures.t;
  e2e : metric list;
  layers : metric list; (* set-up ingest figures and p99s, for the traced run *)
  daemon : readings;
  lag_p99_ms : float;
}

(* --- checks on replies -------------------------------------------------- *)

(* What went wrong with a reply, if anything: a reply fails unless it is
   ok and, for an accurate query, undegraded. *)
let reply_failure op r =
  if not (Client.is_ok r) then
    Some ("replies with error " ^ Option.value ~default:"(none given)" (Client.error_kind r))
  else
    match (op, Json.get_str r "degradation") with
    | Inputs.Query (Inputs.Accurate _), Some "none" -> None
    | Inputs.Query (Inputs.Accurate _), d ->
      Some ("accurate answers with degradation " ^ Option.value ~default:"(none given)" d)
    | _ -> None

(* A query answer must lie within the rank-error bound it reported. *)
let check_bound ~what oracle r =
  let rank = Daemon.int_field what r "rank" and value = Daemon.int_field what r "value" in
  let bound = Daemon.float_field what r "bound" in
  let err = O.rank_error oracle ~rank ~value in
  check
    (float_of_int err <= bound +. 1e-9)
    "%s: rank %d answered %d, true rank error %d above the reported bound %.1f" what rank value err
    bound

(* --- set-up ------------------------------------------------------------- *)

(* Launch a daemon on a fresh store and preload [ops] over the wire.
   Returns the daemon, set-up seconds (launch to the last preload ack)
   and the preload's seconds. *)
let setup_once ~hsq ~dir ops observe_lat =
  rm_rf dir;
  let t0 = now () in
  let d = Daemon.spawn ~hsq ~dir in
  let c = Daemon.connect d in
  let tp = now () in
  Array.iter
    (fun op ->
      let t = now () in
      let r = Daemon.expect "preload" c (Inputs.to_json op) in
      match op with
      | Inputs.Observe v ->
        Samples.add observe_lat (now () -. t);
        check (Json.get_int r "applied" = Some (Array.length v)) "preload: short observe ack"
      | _ -> ())
    ops;
  let t1 = now () in
  Client.close c;
  (d, t1 -. t0, t1 -. tp)

(* [n] set-ups; all but the last are drained and removed.  Returns the
   survivor, the median set-up time, the ingest rate over all preloads
   together, and every preload observe's ack latency. *)
let setup ~hsq ~n ~elements ops =
  let observe_lat = Samples.create () in
  let rec go i setups preload_s =
    let dir = Printf.sprintf "serve-%d" i in
    let d, s, p = setup_once ~hsq ~dir ops observe_lat in
    let setups = s :: setups and preload_s = preload_s +. p in
    if i + 1 < n then begin
      Daemon.drain d;
      rm_rf dir;
      go (i + 1) setups preload_s
    end
    else (d, median (Array.of_list setups), float_of_int (n * elements) /. preload_s)
  in
  let d, setup_s, ingest = go 0 [] 0.0 in
  (d, setup_s, ingest, Samples.to_array observe_lat)

(* --- load loop ----------------------------------------------------------- *)

module Barrier = struct
  type t = { m : Mutex.t; c : Condition.t; parties : int; mutable arrived : int; mutable start : float }

  let create parties = { m = Mutex.create (); c = Condition.create (); parties; arrived = 0; start = 0.0 }

  (* Block until every party arrived; all return the same start time. *)
  let await b =
    Mutex.lock b.m;
    b.arrived <- b.arrived + 1;
    if b.arrived = b.parties then begin
      b.start <- now ();
      Condition.broadcast b.c
    end
    else
      while b.arrived < b.parties do
        Condition.wait b.c b.m
      done;
    Mutex.unlock b.m;
    b.start
end

(* One connection's share of the timed window. *)
type lane = {
  ops : Inputs.op array;
  replies : Json.t array;
  lat : float array; (* seconds *)
  gaps : Samples.t; (* generator time from one reply to the next send *)
  mutable finished : float;
  mutable error : string option;
}

let lane ops =
  {
    ops;
    replies = Array.make (Array.length ops) Json.Null;
    lat = Array.make (Array.length ops) 0.0;
    gaps = Samples.create ();
    finished = 0.0;
    error = None;
  }

let error_text = function Client.Protocol_error m -> m | e -> Printexc.to_string e

(* Connect and send [warm] untimed. *)
let warm_up d warm =
  match Daemon.connect d with
  | exception e -> Error (error_text e)
  | c -> (
    try
      Array.iter (fun op -> ignore (Client.request c (Inputs.to_json op))) warm;
      Ok c
    with e ->
      Client.close c;
      Error (error_text e))

(* Wait at the barrier, then run the lane as a closed loop.  Errors are
   kept in the lane, never raised, so every lane reaches the barrier. *)
let run_lane ~barrier c l =
  let start = Barrier.await barrier in
  let last = ref start in
  (try
     Array.iteri
       (fun i op ->
         let sent = now () in
         Samples.add l.gaps (sent -. !last);
         let r = Client.request c (Inputs.to_json op) in
         last := now ();
         l.replies.(i) <- r;
         l.lat.(i) <- !last -. sent)
       l.ops
   with e -> l.error <- Some (error_text e));
  l.finished <- now ()

let on_threads f xs = List.iter Thread.join (List.map (fun x -> Thread.create f x) xs)

(* Warm each (warm-up, lane) pair up on its own thread and connection,
   call [before] once every connection is warm, then run the lanes
   together.  Returns what [before] returned and the timed window's
   length. *)
let run_lanes d ~before specs =
  let warmed = List.map (fun (warm, _) -> (warm, ref (Error "not started"))) specs in
  on_threads (fun (warm, r) -> r := warm_up d warm) warmed;
  let conns =
    List.map (fun (_, r) -> match !r with Ok c -> c | Error m -> fail "protocol: %s" m) warmed
  in
  let b = before () in
  let lanes = List.map snd specs in
  let barrier = Barrier.create (List.length lanes) in
  on_threads (fun (c, l) -> run_lane ~barrier c l) (List.combine conns lanes);
  List.iter Client.close conns;
  List.iter (fun l -> Option.iter (fail "protocol: %s") l.error) lanes;
  (b, List.fold_left (fun acc l -> Float.max acc l.finished) 0.0 lanes -. barrier.Barrier.start)

(* Latencies of the ops in [lanes] that satisfy [keep]. *)
let latencies lanes keep =
  Array.concat
    (List.map
       (fun l ->
         let acc = Samples.create () in
         Array.iteri (fun i op -> if keep op then Samples.add acc l.lat.(i)) l.ops;
         Samples.to_array acc)
       lanes)

let is_quick = function Inputs.Query (Inputs.Quick _) -> true | _ -> false
let is_accurate = function Inputs.Query (Inputs.Accurate _) -> true | _ -> false

let failures lanes =
  let f = Failures.create () in
  List.iter
    (fun l -> Array.iteri (fun i op -> Option.iter (Failures.add f) (reply_failure op l.replies.(i))) l.ops)
    lanes;
  f

(* --- readings outside the window ---------------------------------------- *)

let quick_probe c queries =
  let t0 = now () in
  Array.iter (fun q -> ignore (Daemon.expect "quick probe" c (Inputs.to_json (Inputs.Query q)))) queries;
  us (now () -. t0) /. float_of_int (Array.length queries)

(* Read the daemon after the window: one metrics request, one stats
   request, /proc.  [before] is a metrics dump from just before the
   window (queue waits are taken as the window's delta). *)
let read_daemon d c ~before ~cpu_before ~window_s ~window_requests ~probe =
  let cpu_after = cpu_seconds (Daemon.pid_s d) in
  let m = Daemon.metrics c in
  let st = Client.stats c in
  let steps = Daemon.int_field "stats" st "steps" in
  let wait q = ms (Daemon.histogram_percentile ~before ~after:m "hsq_serve_queue_wait_seconds" q) in
  {
    rss_mb = peak_rss_mb (Daemon.pid_s d);
    summary_words = float_of_int (Daemon.int_field "stats" st "memory_words");
    writes_per_step = Daemon.value m "hsq_io_writes_total" /. float_of_int (max 1 steps);
    cpu_s = cpu_after -. cpu_before;
    window_s;
    window_requests;
    queue_wait_p50_ms = wait 0.5;
    queue_wait_p99_ms = wait 0.99;
    gc_major = Daemon.value m "hsq_gc_major_collections";
    gc_heap_mb = Daemon.value m "hsq_gc_heap_words" *. 8.0 /. 1048576.0;
    quick_rtt_us = (if probe = [||] then nan else quick_probe c probe);
  }

(* Drain, restart on the same store, and require the recovered count
   to equal [n]; the second daemon must drain cleanly too. *)
let restart_check ~hsq d c ~n =
  Client.close c;
  Daemon.drain d;
  let d' = Daemon.spawn ~hsq ~dir:d.Daemon.dir in
  let c' = Daemon.connect d' in
  let n' = Daemon.int_field "stats" (Client.stats c') "n" in
  check (n' = n) "restart: count %d after drain and restart, %d before" n' n;
  Client.close c';
  Daemon.drain d'

(* --- the workload -------------------------------------------------------- *)

let queries ops = Array.map (fun q -> Inputs.Query q) ops

(* The seeded requests of one run. *)
type plan = {
  preload : Inputs.op array;
  warm : Inputs.op array list; (* per connection *)
  timed : Inputs.op array list;
  oracle : O.t;
}

let plan ~seed ~seconds =
  let preload = Inputs.ingest_ops (D.by_name ~seed read_shape.Inputs.dataset) read_shape in
  let oracle = O.create () in
  O.add_batch oracle (Inputs.values_of preload);
  let per_conn = max 5_000 (read_requests_per_s * seconds / read_conns) in
  {
    preload;
    warm = List.init read_conns (fun k -> queries (Inputs.query_mix (Inputs.rng seed (10 + k)) 1_000));
    timed = List.init read_conns (fun k -> queries (Inputs.query_mix (Inputs.rng seed (20 + k)) per_conn));
    oracle;
  }

let quick_probe_of ops =
  Array.of_list
    (List.filter_map
       (function Inputs.Query q -> Some (Inputs.Quick (Inputs.phi_of q)) | _ -> None)
       (Array.to_list ops))

let mean_field what replies key =
  mean (Array.of_list (List.map (fun r -> Daemon.float_field what r key) replies))

let serve_read ~hsq ~setups ~traced p =
  let elements = Inputs.elements read_shape in
  let ls = List.map lane p.timed in
  let d, setup_s, ingest_rate, observe_lat = setup ~hsq ~n:setups ~elements p.preload in
  (* Read at the start of the window, after the warm-up.  Each reading
     has a connection of its own, because the daemon cuts one that sits
     idle for 30 s. *)
  let (before, cpu_before), window_s =
    run_lanes d (List.combine p.warm ls) ~before:(fun () ->
        let c = Daemon.connect d in
        let m = Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Daemon.metrics c) in
        (m, cpu_seconds (Daemon.pid_s d)))
  in
  let c = Daemon.connect d in
  let requests = List.fold_left (fun acc l -> acc + Array.length l.ops) 0 ls in
  let probe = if traced then quick_probe_of (List.hd p.warm) else [||] in
  let daemon = read_daemon d c ~before ~cpu_before ~window_s ~window_requests:requests ~probe in
  (* Every answer within its bound; failed replies are counted. *)
  let failures = failures ls in
  List.iter
    (fun l ->
      Array.iter (fun r -> if Client.is_ok r then check_bound ~what:"serve-read answer" p.oracle r) l.replies)
    ls;
  let acc_replies =
    List.concat_map (fun l -> List.filteri (fun i _ -> is_accurate l.ops.(i)) (Array.to_list l.replies)) ls
  in
  let n = Daemon.int_field "stats" (Client.stats c) "n" in
  check (n = elements) "count: daemon holds %d elements, %d were acked" n elements;
  restart_check ~hsq d c ~n;
  let e2e, layers =
    workload_metrics
      ~head:[ metric "setup_s" "s" setup_s; metric "throughput_per_s" "1/s" (float_of_int requests /. window_s) ]
      ~classes:[ ("quick", latencies ls is_quick); ("accurate", latencies ls is_accurate) ]
      ~rest:
        [
          metric "accurate_reads_per_query" "count" (mean_field "accurate" acc_replies "io");
          metric "update_writes_per_step" "count" daemon.writes_per_step;
          metric "accurate_bound_mean" "elems" (mean_field "accurate" acc_replies "bound");
          metric "summary_words" "words" daemon.summary_words;
          metric "peak_rss_mb" "MB" daemon.rss_mb;
        ]
      ~setup:(ingest_rate, observe_lat)
  in
  let gaps = Samples.concat (List.map (fun l -> l.gaps) ls) in
  { attempted = requests; failures; e2e; layers; daemon; lag_p99_ms = ms (percentile gaps 0.99) }
