(* `hsq serve` — the long-running, overload-safe query daemon.

   Threading model (threads for I/O):

   - an accept thread polls the listen socket (select with a short
     timeout, so a stop request is noticed within ~50 ms without
     relying on signal-interrupted syscalls);
   - one connection thread per client parses line-JSON requests and
     submits them to the bounded admission queue, then blocks in the
     item's mailbox until the reply arrives — a slow or stalled client
     therefore only ever stalls its own thread (and is cut by the
     per-connection read/write timeouts);
   - a single engine thread drains the queue: the engine is
     single-submitter by contract, so all engine access funnels here;
   - full-store quicks (no window) skip the queue: a connection thread
     answers them from the engine thread's published quick snapshot
     while that snapshot's write generation is current, the engine
     thread is idle and no stop was requested.  Writers bump the
     generation after applying and before acking; the publisher reads
     it before building.  The idle gate keeps inline answers off the
     runtime lock while an accurate query waits on device reads.  See
     "inline quick answers".

   Admission control: the queue is strictly bounded (shed with
   retry-after past capacity — see Admission); every admitted request
   carries an absolute deadline from its class budget, checked when
   the engine thread picks it up (a request that aged out in the queue
   is answered `timeout`, not executed) and passed through to the
   accurate path's cooperative cancellation for the execution
   remainder.  An inline quick never enters the queue, so it is
   neither shed nor deadline-cut.

   Drain (SIGTERM via request_stop, the `drain` verb, or stop):
     1. the queue stops admitting (submit -> shutting_down) but every
        already-admitted request is served or deadline-cut, then the
        engine thread exits;
     2. the listen socket stays open behind a refusal loop: a client
        that connects mid-drain reads an explicit shutting_down error
        instead of racing the close (hang on a half-accepted socket or
        ECONNRESET — the old behavior);
     3. close, which flushes every WAL — idempotent, so a concurrent
        or repeated shutdown is safe;
     4. connection sockets are shut down, their threads joined; only
        then does the listener itself close, so connects after a
        completed drain fail outright.
   A crash instead of a drain loses nothing acknowledged: every
   observe was WAL-appended before its ack, so open_or_recover replays
   the suffix (chaos-tested by test_serve's kill/restart scenario).

   Backend: a Shard_group at every shard count; one engine is its
   K = 1, R = 1 case, with the same on-disk layout, answers and flat
   metrics dump. *)

module Metrics = Hsq_obs.Metrics
module E = Hsq.Engine
module BD = Hsq_storage.Block_device
module G = Hsq_shard.Shard_group

type listen =
  | Unix_sock of string
  | Tcp of string * int

type budgets = {
  quick_ms : float;
  accurate_ms : float;
  ingest_ms : float;
  admin_ms : float;
}

let default_budgets =
  { quick_ms = 250.0; accurate_ms = 2_000.0; ingest_ms = 2_000.0; admin_ms = 1_000.0 }

type config = {
  listen : listen;
  queue_depth : int;
  budgets : budgets;
  read_timeout_s : float;
  write_timeout_s : float;
  max_line_bytes : int;
}

let default_config listen =
  {
    listen;
    queue_depth = Admission.default_capacity;
    budgets = default_budgets;
    read_timeout_s = 30.0;
    write_timeout_s = 10.0;
    max_line_bytes = 1 lsl 20;
  }

type counters = {
  ok : Metrics.Counter.t;
  timeout : Metrics.Counter.t;
  parse_error : Metrics.Counter.t;
  bad_request : Metrics.Counter.t;
  internal : Metrics.Counter.t;
  conn_timeout : Metrics.Counter.t;
  conns_total : Metrics.Counter.t;
  quick_inline : Metrics.Counter.t;
}

type t = {
  config : config;
  group : G.t;
  reg : Metrics.t; (* serve-owned metrics; shard registries are merged
                      in at dump time *)
  (* Inline quick answers (see "inline quick answers" below): the write
     generation, the last full-store quick snapshot tagged with the
     generation read before it was built, and the engine-thread items
     admitted and not yet answered. *)
  generation : int Atomic.t;
  published : (int * G.quick_snapshot) option Atomic.t;
  outstanding : int Atomic.t;
  adm : Admission.t;
  started_at : float;
  stop_requested : bool Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  mutable accept_thread : Thread.t option;
  mutable engine_thread : Thread.t option;
  conn_lock : Mutex.t;
  conns : (int, Unix.file_descr * Thread.t) Hashtbl.t; (* keyed by a conn id *)
  mutable next_conn_id : int;
  c : counters;
  conn_gauge : Metrics.Gauge.t;
  inflight_gauge : Metrics.Gauge.t;
  request_hist : Metrics.Histogram.t;
  queue_wait_hist : Metrics.Histogram.t;
}

let budget_ms_for t cls =
  let b = t.config.budgets in
  match cls with
  | Protocol.Quick_q -> b.quick_ms
  | Protocol.Accurate_q -> b.accurate_ms
  | Protocol.Ingest_q -> b.ingest_ms
  | Protocol.Admin_q -> b.admin_ms

let create config group =
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  let reg = Metrics.create () in
  Hsq_obs.Process.register reg;
  let counter name help = Metrics.counter ~help reg name in
  {
    config;
    group;
    reg;
    generation = Atomic.make 0;
    published = Atomic.make None;
    outstanding = Atomic.make 0;
    adm = Admission.create ~capacity:config.queue_depth ~metrics:reg ();
    started_at = Metrics.now_s ();
    stop_requested = Atomic.make false;
    listen_fd = None;
    accept_thread = None;
    engine_thread = None;
    conn_lock = Mutex.create ();
    conns = Hashtbl.create 64;
    next_conn_id = 0;
    c =
      {
        ok = counter "hsq_serve_requests_ok_total" "Requests answered successfully";
        timeout =
          counter "hsq_serve_requests_timeout_total"
            "Requests that aged past their deadline budget in the queue";
        parse_error = counter "hsq_serve_requests_parse_error_total" "Unparseable request lines";
        bad_request = counter "hsq_serve_requests_bad_request_total" "Well-formed but invalid requests";
        internal = counter "hsq_serve_requests_error_total" "Requests failed by an engine/device error";
        conn_timeout =
          counter "hsq_serve_conn_timeouts_total" "Connections cut by the read/write timeout";
        conns_total = counter "hsq_serve_connections_total" "Connections accepted";
        quick_inline =
          counter "hsq_serve_quick_inline_total"
            "Full-store quick answers served on the connection thread from the published \
             snapshot, never queued (hsq_serve_requests_admitted_total counts queued requests \
             only)";
      };
    conn_gauge = Metrics.gauge ~help:"Open client connections" reg "hsq_serve_connections";
    inflight_gauge =
      Metrics.gauge ~help:"Requests currently executing on the engine thread" reg
        "hsq_serve_inflight";
    request_hist =
      Metrics.histogram ~help:"Request latency, admission to reply" reg
        "hsq_serve_request_seconds";
    queue_wait_hist =
      Metrics.histogram ~help:"Admission-queue wait" reg "hsq_serve_queue_wait_seconds";
  }

let uptime_s t = Metrics.now_s () -. t.started_at

(* Async-signal-safe: just an atomic store; the accept thread polls it. *)
let request_stop t = Atomic.set t.stop_requested true

(* --- request execution (engine thread only) ---------------------------- *)

let window_error_response sizes =
  Protocol.err Protocol.e_window
    ~extra:[ ("windows", Json.List (List.map Json.int sizes)) ]

(* Resolve a phi target against the population it will be asked over. *)
let rank_of_target ~n = function
  | Protocol.Rank r -> r
  | Protocol.Phi p -> Hsq.Bisection.rank_of_phi ~who:"Server" ~n p

let pairs l = Json.List (List.map (fun (i, j) -> Json.List [ Json.int i; Json.int j ]) l)

let degradation_fields (report : G.query_report) =
  let down = match report.G.degradation with `Shard_down ks -> ks | _ -> [] in
  let diverged = match report.G.degradation with `Replica_diverged srs -> srs | _ -> [] in
  [
    ("bound", Json.Num report.G.rank_error_bound);
    ("degradation", Json.Str (G.degradation_label report.G.degradation));
    ("iterations", Json.int report.G.iterations);
    ("io", Json.int (Hsq_storage.Io_stats.total report.G.io));
    ("shards_down", Json.List (List.map Json.int down));
    ("replicas_diverged", pairs diverged);
  ]

(* One group call per request: the values are logged as one batch
   (one WAL flush per replica under [Always]).  The reply's [applied]
   is the longest prefix of the request that is durable; values past it
   may be durable too but are unacknowledged, the state a crash between
   the flush and the reply leaves as well. *)
let observe_all g vals =
  match G.observe_batch g vals with
  | () -> (`Ok, Protocol.ok [ ("applied", Json.int (Array.length vals)) ])
  | exception Hsq_storage.Wal.Partial (applied, cause) -> (
    let n = ("applied", Json.int applied) in
    match cause with
    | G.Shard_unavailable (i, reason) ->
      ( `Error,
        Protocol.err Protocol.e_device
          ~detail:(Printf.sprintf "shard %d down: %s" i reason)
          ~extra:[ n; ("shard", Json.int i) ] )
    | BD.Device_error msg -> (`Error, Protocol.err Protocol.e_wal ~detail:msg ~extra:[ n ])
    | exn -> raise exn)

(* The element count a query over [window] (the whole store if [None])
   resolves its target against. *)
let population g = function None -> Ok (G.total_size g) | Some w -> G.window_total g ~window:w

(* One quick or accurate query: resolve the target against its
   [population], run it, and render the answer.  [run] returns the value
   and the fields that describe it. *)
let answer ~population ~target ~window run =
  try
    match population with
    | Error (E.Window_not_aligned sizes) -> (`Bad, window_error_response sizes)
    | Ok 0 ->
      let what = if window = None then "empty engine" else "empty window" in
      (`Bad, Protocol.err Protocol.e_bad_request ~detail:what)
    | Ok n -> (
      let rank = rank_of_target ~n target in
      match run ~rank with
      | Error (E.Window_not_aligned sizes) -> (`Bad, window_error_response sizes)
      | Ok (v, fields) ->
        let window = match window with Some w -> [ ("window", Json.int w) ] | None -> [] in
        (`Ok, Protocol.ok ((("value", Json.int v) :: ("rank", Json.int rank) :: window) @ fields)))
  with
  | Invalid_argument msg -> (`Bad, Protocol.err Protocol.e_bad_request ~detail:msg)
  | BD.Device_error msg -> (`Error, Protocol.err Protocol.e_device ~detail:msg)

let quick_fields (v, bound, degradation) =
  (v, [ ("bound", Json.Num bound); ("degradation", Json.Str (G.degradation_label degradation)) ])

(* A full-store quick: Algorithm 5 from the snapshot [snap ()] yields.
   The engine thread builds it (and publishes it, see below); a
   connection thread answering inline reuses a published one. *)
let full_quick ~population ~reused snap target =
  answer ~population ~target ~window:None (fun ~rank ->
      Ok (quick_fields (G.quick_answer ~reused (snap ()) ~rank)))

(* Build a full-store quick snapshot and publish it, tagged with the
   write generation read BEFORE the build: a write that lands during
   the build bumps the generation past the tag, so the snapshot is never
   served as covering it. *)
let publish t =
  let generation = Atomic.get t.generation in
  let snap = G.quick_snapshot t.group in
  Atomic.set t.published (Some (generation, snap));
  snap

let execute t req ~deadline =
  let g = t.group in
  match req with
  | Protocol.Ping -> (`Ok, Protocol.ok [ ("pong", Json.Bool true) ])
  | Protocol.Drain ->
    (* Normally handled inline by the connection thread; if one slips
       through, honor it here too. *)
    request_stop t;
    (`Ok, Protocol.ok [ ("draining", Json.Bool true) ])
  | Protocol.Observe vals -> observe_all g vals
  | Protocol.End_step -> (
    match G.end_time_step g with
    | [] -> (`Bad, Protocol.err Protocol.e_bad_request ~detail:"empty step")
    | results ->
      let reports, failures =
        List.partition_map
          (fun (i, r) -> match r with Ok rep -> Left (i, rep) | Error m -> Right (i, m))
          results
      in
      let deferred =
        List.filter_map
          (fun (i, rep) -> Option.map (fun why -> (i, why)) rep.Hsq_hist.Level_index.deferred_merge)
          reports
      in
      let merges =
        List.fold_left
          (fun acc (_, rep) -> acc + rep.Hsq_hist.Level_index.merges_performed)
          0 reports
      in
      (* The i-th message pairs with the i-th shard listed beside it. *)
      let messages l = String.concat "; " (List.map snd l) in
      let shards l = Json.List (List.map (fun (i, _) -> Json.int i) l) in
      let fields =
        [ ("step", Json.int (G.time_steps g)); ("merges", Json.int merges) ]
        @
        if deferred = [] then []
        else
          [ ("deferred_merge", Json.Str (messages deferred)); ("deferred_shards", shards deferred) ]
      in
      if failures = [] then (`Ok, Protocol.ok fields)
      else
        (* Healthy shards archived; the client learns exactly which
           shards did not. *)
        ( `Error,
          Protocol.err Protocol.e_device ~detail:(messages failures)
            ~extra:(fields @ [ ("failed_shards", shards failures) ]) ))
  | Protocol.Quick { target; window = None } ->
    full_quick ~population:(population g None) ~reused:false (fun () -> publish t) target
  | Protocol.Quick { target; window = Some w as window } ->
    answer ~population:(population g window) ~target ~window (fun ~rank ->
        Result.map quick_fields (G.quick_window g ~window:w ~rank))
  | Protocol.Accurate { target; window; deadline_ms = _ } ->
    (* The remaining budget (class budget minus queue wait, already
       folded with any request deadline) drives the cooperative
       deadline-cut machinery. *)
    let deadline_ms = Float.max 1.0 ((deadline -. Metrics.now_s ()) *. 1000.0) in
    answer ~population:(population g window) ~target ~window (fun ~rank ->
        Result.map
          (fun (v, report) -> (v, degradation_fields report))
          (match window with
          | None -> Ok (G.accurate ~deadline_ms g ~rank)
          | Some w -> G.accurate_window ~deadline_ms g ~window:w ~rank))
  | Protocol.Stats ->
    let durable = List.exists (fun (_, e) -> E.durability_status e <> None) (G.engines g) in
    let epsilon = try G.epsilon g with Invalid_argument _ -> 0.0 in
    ( `Ok,
      Protocol.ok
        [
          ("n", Json.int (G.total_size g));
          ("hist", Json.int (G.hist_size g));
          ("stream", Json.int (G.stream_size g));
          ("steps", Json.int (G.time_steps g));
          ("epsilon", Json.Num epsilon);
          ("sketch", Json.Str "gk");
          ("memory_words", Json.int (G.memory_words g));
          ("windows", Json.List (List.map Json.int (G.window_sizes g)));
          ("shards", Json.int (G.shard_count g));
          ("shards_down", Json.List (List.map Json.int (G.shards_down g)));
          ("down_elements", Json.int (G.down_elements g));
          ("replicas", Json.int (G.replica_count g));
          ("replicas_down", pairs (G.replicas_down g));
          ("replicas_diverged", pairs (G.diverged_replicas g));
          ("uptime_s", Json.Num (uptime_s t));
          ("queue_depth", Json.int (Admission.depth t.adm));
          ("queue_capacity", Json.int (Admission.capacity t.adm));
          ("durable", Json.Bool durable);
        ] )
  | Protocol.Metrics_dump Protocol.Fmt_json ->
    (* The dump is a single line by construction, so it can be spliced
       into the response line as-is. *)
    (`Ok, Printf.sprintf "{\"ok\":true,\"metrics\":%s}\n" (G.metrics_json ~extra:t.reg g))
  | Protocol.Metrics_dump Protocol.Fmt_prometheus ->
    (`Ok, Protocol.ok [ ("body", Json.Str (G.metrics_prometheus ~extra:t.reg g)) ])
  | Protocol.Health_check -> (`Ok, Protocol.ok (Health.group_to_fields (Health.collect_group g)))

(* Count a request's outcome and return its reply. *)
let tally t run =
  match run () with
  | `Ok, resp ->
    Metrics.Counter.inc t.c.ok;
    resp
  | `Bad, resp ->
    Metrics.Counter.inc t.c.bad_request;
    resp
  | `Error, resp ->
    Metrics.Counter.inc t.c.internal;
    resp
  | exception e ->
    Metrics.Counter.inc t.c.internal;
    Protocol.err Protocol.e_internal ~detail:(Printexc.to_string e)

(* --- inline quick answers ------------------------------------------------

   A full-store quick (no window) is a memory-only lookup, so a
   connection thread answers it itself from the snapshot the engine
   thread last published, when three things hold: the snapshot's
   generation tag is the current write generation, the engine thread is
   idle (no item admitted and unanswered), and no stop was requested.
   Anything else queues as before.

   Zero staleness rests on one ordering.  Every write bumps the
   generation after it is applied and before it is acknowledged:
   observe, end_step and every job, all on the engine thread.  The
   publisher reads the generation before it builds.  So a quick that
   arrives after an ack finds either a snapshot built after that write
   or a stale tag.  An accurate query can quarantine partitions or drop
   what the snapshot read; after each one the engine thread checks the
   snapshot against the group (no summary build) and bumps the
   generation if it no longer matches.

   The idle gate is for latency, not correctness: an inline answer on a
   connection thread would take the runtime lock at every device read
   of an in-flight accurate query.  An item counts from before it enters
   the queue, so a quick arriving while an accurate waits for the engine
   thread to wake queues behind it instead of delaying it.  An inline
   quick never enters the queue, so it is neither shed nor
   deadline-cut. *)

let bump t = Atomic.incr t.generation

(* Admit [item] for the engine thread, outstanding until just before
   its reply. *)
let enqueue t item =
  Atomic.incr t.outstanding;
  match Admission.submit t.adm item with
  | Admission.Admitted -> Admission.Admitted
  | refused ->
    Atomic.decr t.outstanding;
    refused

let revalidate t =
  match Atomic.get t.published with
  | Some (generation, snap) when generation = Atomic.get t.generation ->
    if not (G.snapshot_current t.group snap) then bump t
  | _ -> ()

(* After an engine-thread item, before its reply. *)
let settle_snapshot t = function
  | Admission.Job _ | Admission.Request (Protocol.Observe _ | Protocol.End_step) -> bump t
  | Admission.Request (Protocol.Accurate _) -> revalidate t
  | Admission.Request _ -> ()

let inline_snapshot t =
  if Atomic.get t.outstanding = 0 && not (Atomic.get t.stop_requested) then
    match Atomic.get t.published with
    | Some (generation, snap) when generation = Atomic.get t.generation -> Some snap
    | _ -> None
  else None

let inline_quick t snap target =
  let t0 = Metrics.now_s () in
  Metrics.Counter.inc t.c.quick_inline;
  let resp =
    tally t (fun () ->
        full_quick ~population:(Ok (G.snapshot_total snap)) ~reused:true (fun () -> snap) target)
  in
  Metrics.Histogram.observe t.request_hist (Metrics.now_s () -. t0);
  resp

(* Drain every remaining queue item, then run the shutdown sequence.
   A request that spent its whole budget waiting is answered `timeout`
   without touching the engine — explicit, never silent. *)
let engine_loop t =
  let rec loop () =
    match Admission.next t.adm with
    | None -> ()
    | Some item ->
      let now = Metrics.now_s () in
      Metrics.Histogram.observe t.queue_wait_hist (now -. item.Admission.enqueued);
      Metrics.Gauge.set t.inflight_gauge 1.0;
      let resp =
        match item.Admission.payload with
        | Admission.Job f ->
          (try f () with _ -> ());
          Protocol.ok []
        | Admission.Request req ->
          if now > item.Admission.deadline then begin
            Metrics.Counter.inc t.c.timeout;
            Protocol.err Protocol.e_timeout
              ~extra:[ ("class", Json.Str (Protocol.class_label item.Admission.cls)) ]
          end
          else tally t (fun () -> execute t req ~deadline:item.Admission.deadline)
      in
      settle_snapshot t item.Admission.payload;
      Metrics.Gauge.set t.inflight_gauge 0.0;
      Atomic.decr t.outstanding;
      Admission.reply item resp;
      Metrics.Histogram.observe t.request_hist (Metrics.now_s () -. item.Admission.enqueued);
      loop ()
  in
  loop ()

(* --- connection handling ----------------------------------------------- *)

(* Write one reply; every reply is a whole line, since Protocol renders
   the newline with it. *)
let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write_substring fd s !off (len - !off) in
    if n <= 0 then raise Exit;
    off := !off + n
  done

let submit_and_reply t req =
  let cls = Protocol.class_of req in
  let budget_ms =
    match Protocol.requested_deadline_ms req with
    | Some d -> Float.min d (budget_ms_for t cls)
    | None -> budget_ms_for t cls
  in
  let item =
    Admission.make_item (Admission.Request req) cls
      ~deadline:(Metrics.now_s () +. (budget_ms /. 1000.0))
  in
  match enqueue t item with
  | Admission.Admitted -> Admission.await item
  | Admission.Overloaded retry_ms ->
    Protocol.err Protocol.e_overloaded
      ~extra:
        [
          ("retry_after_ms", Json.Num retry_ms);
          ("class", Json.Str (Protocol.class_label cls));
        ]
  | Admission.Draining -> Protocol.err Protocol.e_shutting_down

(* An engine-thread job outside any client's budget. *)
let admin_job f =
  Admission.make_item (Admission.Job f) Protocol.Admin_q ~deadline:(Metrics.now_s () +. 60.0)

let handle_line t fd buf ~pos ~len =
  match Json.of_bytes buf ~pos ~len with
  | Error msg ->
    Metrics.Counter.inc t.c.parse_error;
    write_all fd (Protocol.err Protocol.e_parse ~detail:msg)
  | Ok j -> (
    match Protocol.parse j with
    | Error msg ->
      Metrics.Counter.inc t.c.bad_request;
      write_all fd (Protocol.err Protocol.e_bad_request ~detail:msg)
    | Ok Protocol.Ping ->
      Metrics.Counter.inc t.c.ok;
      write_all fd (Protocol.ok [ ("pong", Json.Bool true); ("uptime_s", Json.Num (uptime_s t)) ])
    | Ok Protocol.Drain ->
      (* Acknowledge first, then trigger: the drain closes this very
         socket shortly after. *)
      Metrics.Counter.inc t.c.ok;
      write_all fd (Protocol.ok [ ("draining", Json.Bool true) ]);
      request_stop t
    | Ok (Protocol.Quick { target; window = None } as req) -> (
      match inline_snapshot t with
      | Some snap -> write_all fd (inline_quick t snap target)
      | None -> write_all fd (submit_and_reply t req))
    | Ok req -> write_all fd (submit_and_reply t req))

(* The whitespace String.trim strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Per-connection loop: a bounded line scanner over Unix.read.  The
   read and write timeouts (SO_RCVTIMEO / SO_SNDTIMEO) contain slow and
   stalled clients; a line above max_line_bytes, whether or not its
   newline has arrived, is a protocol violation and closes the
   connection after an explicit parse error.

   Received bytes live in one growable buffer: [buf.[start, len)] is
   unconsumed input, of which [start, scan) is known to hold no newline,
   so every byte is scanned once.  The buffer is compacted only after a
   line was consumed, and only before the next read. *)
let conn_loop t fd =
  let cfg = t.config in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO cfg.read_timeout_s with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO cfg.write_timeout_s with Unix.Unix_error _ -> ());
  let chunk = 4096 in
  let buf = ref (Bytes.create chunk) in
  let start = ref 0 and scan = ref 0 and len = ref 0 in
  let run = ref true in
  let rec newline i = if i >= !len then None else if Bytes.get !buf i = '\n' then Some i else newline (i + 1) in
  let too_long () =
    Metrics.Counter.inc t.c.parse_error;
    (try write_all fd (Protocol.err Protocol.e_parse ~detail:"line too long") with _ -> ());
    run := false
  in
  while !run do
    (* Serve every complete line currently buffered. *)
    let progress = ref true in
    while !run && !progress do
      match newline !scan with
      | Some i ->
        let line_start = !start in
        start := i + 1;
        scan := i + 1;
        if i - line_start > cfg.max_line_bytes then too_long ()
        else begin
          (* Parse the line in place, without the whitespace String.trim
             would strip; a blank line gets no reply. *)
          let lo = ref line_start and hi = ref i in
          while !lo < !hi && is_space (Bytes.get !buf !lo) do incr lo done;
          while !hi > !lo && is_space (Bytes.get !buf (!hi - 1)) do decr hi done;
          if !hi > !lo then (
            try handle_line t fd !buf ~pos:!lo ~len:(!hi - !lo)
            with Exit | Unix.Unix_error _ ->
              (* Write failed: stalled or vanished client; drop it. *)
              run := false)
        end
      | None ->
        progress := false;
        scan := !len;
        if !len - !start > cfg.max_line_bytes then too_long ()
    done;
    if !run then begin
      let pending = !len - !start in
      if !start > 0 then begin
        Bytes.blit !buf !start !buf 0 pending;
        start := 0;
        scan := pending;
        len := pending
      end;
      if Bytes.length !buf - !len < chunk then begin
        let bigger = Bytes.create (2 * Bytes.length !buf) in
        Bytes.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      match Unix.read fd !buf !len (Bytes.length !buf - !len) with
      | 0 -> run := false (* orderly disconnect *)
      | n -> len := !len + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* Read timeout: a stalled client is cut, not waited on. *)
        Metrics.Counter.inc t.c.conn_timeout;
        run := false
      | exception Unix.Unix_error _ -> run := false
    end
  done

let handle_conn t id fd =
  Metrics.Gauge.add t.conn_gauge 1.0;
  Metrics.Counter.inc t.c.conns_total;
  Fun.protect
    ~finally:(fun () ->
      Metrics.Gauge.add t.conn_gauge (-1.0);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.conn_lock;
      Hashtbl.remove t.conns id;
      Mutex.unlock t.conn_lock)
    (fun () -> try conn_loop t fd with _ -> ())

(* --- listener & lifecycle ---------------------------------------------- *)

let bind_listener = function
  | Unix_sock path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let addr =
      match host with
      | "" | "0.0.0.0" -> Unix.inet_addr_any
      | h -> (
        try Unix.inet_addr_of_string h
        with Failure _ -> (Unix.gethostbyname h).Unix.h_addr_list.(0))
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    fd

(* The drain sequence (runs on the accept thread, after its loop saw
   the stop flag).  Steps are individually guarded: a half-broken
   engine must still release sockets and threads.

   Ordering matters for clients racing the shutdown: the queue stops
   admitting FIRST, and the listen socket stays open behind a refusal
   loop until the drain completes — a client that connects mid-drain
   reads one explicit shutting_down error and a clean close, instead of
   hanging in the kernel accept backlog (never accepted, never
   refused) or catching ECONNRESET from a listener closed under it.
   Only after everything admitted is served does the listener close,
   so connects after a finished drain fail outright, as before. *)
let drain t listen_fd =
  Admission.begin_drain t.adm;
  let refusing = Atomic.make true in
  let refuse_thread =
    Thread.create
      (fun () ->
        while Atomic.get refusing do
          match Unix.select [ listen_fd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
            match Unix.accept listen_fd with
            | fd, _ ->
              (try write_all fd (Protocol.err Protocol.e_shutting_down) with _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  (match t.engine_thread with
  | Some thr ->
    Thread.join thr;
    t.engine_thread <- None
  | None -> ());
  (* Backend is quiescent now: close, which syncs every WAL (idempotent,
     so a signal-driven second shutdown is harmless). *)
  (try G.close t.group with _ -> ());
  (* Unblock any connection thread still parked in a read, then join. *)
  let remaining =
    Mutex.lock t.conn_lock;
    let l = Hashtbl.fold (fun _ (fd, thr) acc -> (fd, thr) :: acc) t.conns [] in
    Mutex.unlock t.conn_lock;
    l
  in
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  List.iter (fun (_, thr) -> try Thread.join thr with _ -> ()) remaining;
  Atomic.set refusing false;
  (try Thread.join refuse_thread with _ -> ());
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match t.config.listen with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  t.listen_fd <- None

let accept_loop t listen_fd =
  while not (Atomic.get t.stop_requested) do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept listen_fd with
      | fd, _ ->
        Mutex.lock t.conn_lock;
        let id = t.next_conn_id in
        t.next_conn_id <- id + 1;
        let thr = Thread.create (fun () -> handle_conn t id fd) () in
        Hashtbl.replace t.conns id (fd, thr);
        Mutex.unlock t.conn_lock
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
        ()
      | exception Unix.Unix_error _ -> Atomic.set t.stop_requested true)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  drain t listen_fd

let start t =
  if t.accept_thread <> None then invalid_arg "Server.start: already started";
  (* A stalled client must surface as a write error, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_listener t.config.listen in
  t.listen_fd <- Some listen_fd;
  t.engine_thread <- Some (Thread.create (fun () -> engine_loop t) ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t listen_fd) ())

let wait t =
  match t.accept_thread with
  | None -> ()
  | Some thr ->
    Thread.join thr;
    t.accept_thread <- None

let stop t =
  request_stop t;
  wait t

(* Test/ops hook: run [f group] on the engine thread (serialized with
   request execution), blocking until it completes.  The chaos harnesses
   use it to flip fault injectors, run repair scrubs and kill or rejoin
   shards without ever racing a live query. *)
let submit_fn t f =
  let item = admin_job (fun () -> f t.group) in
  match enqueue t item with
  | Admission.Admitted -> ignore (Admission.await item)
  | Admission.Overloaded _ -> invalid_arg "Server.submit_fn: admission queue full"
  | Admission.Draining -> invalid_arg "Server.submit_fn: server draining"
