(* `hsq serve` — the long-running, overload-safe query daemon.

   One serve loop.  A single thread does all of the daemon's work: each
   turn it selects over the listener, a self-pipe and every connection,
   then accepts, reads, parses, executes on the group and writes.

   - Sockets are non-blocking.  Each connection has an input buffer,
     scanned for lines in place, and an output buffer; the replies one
     turn produces go out in a single write, so the replies to pipelined
     requests are coalesced.  A connection whose output did not all go
     out is neither read nor parsed until it has.
   - read_timeout_s and write_timeout_s are per-connection deadlines the
     loop checks: a client that sends nothing, or stops reading its
     replies, is cut and counted (hsq_serve_conn_timeouts_total), and
     cannot stall the loop.
   - ping and drain are answered in place.  Every other request enters
     the bounded Admission FIFO, stamped when its line is parsed, and
     runs when it reaches the head with the engine free.  Its connection
     parses no further line until it is answered, so replies stay in
     request order.
   - submit_fn queues a job like a request.  At the head, the loop lends
     it the engine: the job runs on its caller's thread while the loop
     goes on accepting, reading, shedding and answering ping and drain,
     but runs nothing on the group until the job returns.
   - Unix.select takes no descriptor at or above FD_SETSIZE, so a
     connection that gets one is refused with an explicit overloaded
     reply.  An accept that finds the descriptor table full leaves the
     connection in the listen backlog until a connection closes.

   An engine call blocks the loop for its own duration: no line is read
   while an accurate query probes the disk, so a request's deadline
   counts from when its line is read, not from when the client sent it.

   Admission control: the queue is strictly bounded (shed with
   retry-after past capacity — see Admission); every admitted request
   carries an absolute deadline from its class budget, checked when it
   reaches the head (a request that aged out in the queue is answered
   `timeout`, not executed) and passed through to the accurate path's
   cooperative cancellation for the execution remainder.

   Drain (SIGTERM via request_stop, the `drain` verb, or stop):
     1. the queue stops admitting (engine requests answer shutting_down),
        but the listener stays open: a client that connects mid-drain
        reads an explicit shutting_down error and a clean close instead
        of hanging in the accept backlog;
     2. everything already admitted is served or deadline-cut, and a
        lent job runs to its end;
     3. close, which flushes every WAL — idempotent, so a concurrent or
        repeated shutdown is safe;
     4. once every reply is written (or its connection cut), the
        connections close, then the listener, so connects after a
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
}

type conn = {
  fd : Unix.file_descr;
  (* Received bytes: [buf.[start, len)] is unconsumed input, of which
     [start, scan) is known to hold no newline, so every byte is scanned
     once. *)
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scan : int;
  mutable len : int;
  out : Buffer.t; (* replies, written up to [sent] *)
  mutable sent : int;
  mutable stalled : bool; (* the last write left output behind *)
  mutable waiting : bool; (* a request of this connection is queued *)
  mutable eof : bool; (* read nothing more; close once answered and written *)
  mutable closed : bool; (* to be closed at the end of the turn *)
  mutable since : float; (* last progress: bytes read or written, or a reply *)
}

(* A submit_fn job's side of the lending hand-off, under [t.lock]. *)
type job_state =
  | Queued
  | Lent
  | Done

type job = { mutable state : job_state }

type work =
  | Request of conn * Protocol.request
  | Job of job

type t = {
  config : config;
  group : G.t;
  reg : Metrics.t; (* serve-owned metrics; shard registries are merged
                      in at dump time *)
  adm : work Admission.t;
  started_at : float;
  stop_requested : bool Atomic.t;
  (* Loop state; only the loop thread touches it. *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable draining : bool;
  (* Until when the listener stays out of select: an accept that found
     no descriptor to take left the connection in the backlog. *)
  mutable accept_after : float;
  mutable lent : (job * float) option; (* the job holding the engine, and
                                          when it was queued *)
  (* The lending hand-off with submit_fn callers: job states, and the
     self-pipe that wakes the loop, open while it runs. *)
  lock : Mutex.t;
  lent_cond : Condition.t;
  mutable wake_pipe : (Unix.file_descr * Unix.file_descr) option;
  mutable loop_thread : Thread.t option;
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
    adm = Admission.create ~capacity:config.queue_depth ~metrics:reg ();
    started_at = Metrics.now_s ();
    stop_requested = Atomic.make false;
    conns = Hashtbl.create 64;
    draining = false;
    accept_after = 0.0;
    lent = None;
    lock = Mutex.create ();
    lent_cond = Condition.create ();
    wake_pipe = None;
    loop_thread = None;
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
          counter "hsq_serve_conn_timeouts_total"
            "Connections cut by the read or the write timeout";
        conns_total = counter "hsq_serve_connections_total" "Connections accepted";
      };
    conn_gauge = Metrics.gauge ~help:"Open client connections" reg "hsq_serve_connections";
    inflight_gauge =
      Metrics.gauge ~help:"Requests executing on the group (1 while a job holds the engine)" reg
        "hsq_serve_inflight";
    request_hist =
      Metrics.histogram ~help:"Request latency, admission to reply" reg
        "hsq_serve_request_seconds";
    queue_wait_hist =
      Metrics.histogram ~help:"Admission-queue wait" reg "hsq_serve_queue_wait_seconds";
  }

let uptime_s t = Metrics.now_s () -. t.started_at

(* Async-signal-safe: just an atomic store; the loop polls it. *)
let request_stop t = Atomic.set t.stop_requested true

(* --- request execution (on the loop, engine free) ------------------------ *)

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

let execute t req ~deadline =
  let g = t.group in
  match req with
  | Protocol.Ping ->
    (`Ok, Protocol.ok [ ("pong", Json.Bool true); ("uptime_s", Json.Num (uptime_s t)) ])
  | Protocol.Drain ->
    (* Acknowledged first: the drain closes this very socket once the
       reply is written. *)
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
  | Protocol.Quick { target; window } ->
    answer ~population:(population g window) ~target ~window (fun ~rank ->
        Result.map quick_fields
          (match window with
          | None -> Ok (G.quick_with_bound g ~rank)
          | Some w -> G.quick_window g ~window:w ~rank))
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

(* --- connections ---------------------------------------------------------- *)

let chunk = 4096

let new_conn fd =
  {
    fd;
    buf = Bytes.create chunk;
    start = 0;
    scan = 0;
    len = 0;
    out = Buffer.create 256;
    sent = 0;
    stalled = false;
    waiting = false;
    eof = false;
    closed = false;
    since = Metrics.now_s ();
  }

(* Every reply is a whole line, since Protocol renders the newline with
   it; a connection cut meanwhile drops it. *)
let reply c resp =
  if not c.closed then begin
    Buffer.add_string c.out resp;
    c.since <- Metrics.now_s ()
  end

(* Queue a request for the group, stamped now: its deadline and its
   queue wait count from here. *)
let submit t c req =
  let cls = Protocol.class_of req in
  let budget_ms =
    match Protocol.requested_deadline_ms req with
    | Some d -> Float.min d (budget_ms_for t cls)
    | None -> budget_ms_for t cls
  in
  let now = Metrics.now_s () in
  let deadline = now +. (budget_ms /. 1000.0) in
  let item = { Admission.payload = Request (c, req); cls; enqueued = now; deadline } in
  match Admission.submit t.adm item with
  | Admission.Admitted -> c.waiting <- true
  | Admission.Overloaded retry_ms ->
    reply c
      (Protocol.err Protocol.e_overloaded
         ~extra:
           [
             ("retry_after_ms", Json.Num retry_ms);
             ("class", Json.Str (Protocol.class_label cls));
           ])
  | Admission.Draining -> reply c (Protocol.err Protocol.e_shutting_down)

let handle_line t c ~pos ~len =
  match Json.of_bytes c.buf ~pos ~len with
  | Error msg ->
    Metrics.Counter.inc t.c.parse_error;
    reply c (Protocol.err Protocol.e_parse ~detail:msg)
  | Ok j -> (
    match Protocol.parse j with
    | Error msg ->
      Metrics.Counter.inc t.c.bad_request;
      reply c (Protocol.err Protocol.e_bad_request ~detail:msg)
    | Ok ((Protocol.Ping | Protocol.Drain) as req) ->
      reply c (tally t (fun () -> execute t req ~deadline:Float.infinity))
    | Ok req -> submit t c req)

(* Whether the connection's buffered lines may be served now. *)
let pumpable c = not (c.waiting || c.stalled || c.closed)

(* The whitespace String.trim strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* A line above max_line_bytes, whether or not its newline has arrived,
   is a protocol violation: an explicit parse error, then the connection
   closes. *)
let too_long t c =
  Metrics.Counter.inc t.c.parse_error;
  reply c (Protocol.err Protocol.e_parse ~detail:"line too long");
  c.start <- 0;
  c.scan <- 0;
  c.len <- 0;
  c.eof <- true

let rec newline c i =
  if i >= c.len then None else if Bytes.get c.buf i = '\n' then Some i else newline c (i + 1)

(* Serve the connection's buffered lines in order, until one of them
   waits for the group. *)
let rec pump t c =
  if pumpable c then begin
    match newline c c.scan with
    | Some i ->
      let line_start = c.start in
      c.start <- i + 1;
      c.scan <- i + 1;
      if i - line_start > t.config.max_line_bytes then too_long t c
      else begin
        (* Parse the line in place, without the whitespace String.trim
           would strip; a blank line gets no reply. *)
        let lo = ref line_start and hi = ref i in
        while !lo < !hi && is_space (Bytes.get c.buf !lo) do incr lo done;
        while !hi > !lo && is_space (Bytes.get c.buf (!hi - 1)) do decr hi done;
        if !hi > !lo then handle_line t c ~pos:!lo ~len:(!hi - !lo);
        pump t c
      end
    | None ->
      c.scan <- c.len;
      if c.len - c.start > t.config.max_line_bytes then too_long t c
  end

(* One read into the buffer, compacted only after a line was consumed. *)
let read_conn c =
  let pending = c.len - c.start in
  if c.start > 0 then begin
    Bytes.blit c.buf c.start c.buf 0 pending;
    c.scan <- c.scan - c.start;
    c.start <- 0;
    c.len <- pending
  end;
  if Bytes.length c.buf - c.len < chunk then begin
    let bigger = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 bigger 0 c.len;
    c.buf <- bigger
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> c.eof <- true (* orderly disconnect *)
  | n ->
    c.len <- c.len + n;
    c.since <- Metrics.now_s ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* One write of everything the connection has to send. *)
let flush c =
  let pending = Buffer.length c.out - c.sent in
  if pending > 0 then begin
    let n =
      match Unix.single_write_substring c.fd (Buffer.sub c.out c.sent pending) 0 pending with
      | n -> n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
    in
    if n = pending then begin
      Buffer.clear c.out;
      c.sent <- 0;
      c.stalled <- false
    end
    else begin
      c.sent <- c.sent + n;
      (* The write deadline counts from the last progress. *)
      if n > 0 || not c.stalled then c.since <- Metrics.now_s ();
      c.stalled <- true
    end
  end

(* A socket fault ends its connection only. *)
let guarded c f = try f c with Unix.Unix_error _ -> c.closed <- true

let close_conn t c =
  Metrics.Gauge.add t.conn_gauge (-1.0);
  (* The descriptor it frees may take a connection left waiting. *)
  t.accept_after <- 0.0;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* When the loop must act on the connection if nothing arrives: the
   write deadline while its output is stuck, the read deadline while it
   waits for input. *)
let deadline t c =
  if c.stalled then Some (c.since +. t.config.write_timeout_s)
  else if c.waiting || c.eof then None
  else Some (c.since +. t.config.read_timeout_s)

let readable c = pumpable c && not c.eof

(* --- the engine: queued requests and lent jobs ---------------------------- *)

(* Call with [t.lock] held. *)
let wake t =
  match t.wake_pipe with
  | Some (_, w) -> (
    try ignore (Unix.single_write_substring w "!" 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

let lend t job ~enqueued =
  Metrics.Gauge.set t.inflight_gauge 1.0;
  t.lent <- Some (job, enqueued);
  Mutex.protect t.lock (fun () ->
      job.state <- Lent;
      Condition.broadcast t.lent_cond)

let settle_lent t =
  match t.lent with
  | Some (job, enqueued) when Mutex.protect t.lock (fun () -> job.state = Done) ->
    t.lent <- None;
    Metrics.Gauge.set t.inflight_gauge 0.0;
    Metrics.Histogram.observe t.request_hist (Metrics.now_s () -. enqueued)
  | _ -> ()

(* Run the queue in order while the engine is free.  A request that
   spent its whole budget waiting is answered `timeout` without touching
   the engine — explicit, never silent.  An answered connection goes
   straight on with its buffered lines. *)
let rec run_queue t =
  if t.lent = None then
    match Admission.pop t.adm with
    | None -> ()
    | Some item -> (
      let now = Metrics.now_s () in
      Metrics.Histogram.observe t.queue_wait_hist (now -. item.Admission.enqueued);
      match item.Admission.payload with
      | Job job -> lend t job ~enqueued:item.Admission.enqueued
      | Request (c, req) ->
        Metrics.Gauge.set t.inflight_gauge 1.0;
        let resp =
          if now > item.Admission.deadline then begin
            Metrics.Counter.inc t.c.timeout;
            Protocol.err Protocol.e_timeout
              ~extra:[ ("class", Json.Str (Protocol.class_label item.Admission.cls)) ]
          end
          else tally t (fun () -> execute t req ~deadline:item.Admission.deadline)
        in
        Metrics.Gauge.set t.inflight_gauge 0.0;
        c.waiting <- false;
        reply c resp;
        Metrics.Histogram.observe t.request_hist (Metrics.now_s () -. item.Admission.enqueued);
        pump t c;
        run_queue t)

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

(* Unix.select raises EINVAL on a descriptor at or above FD_SETSIZE
   (1024 in glibc); on Unix a file_descr is its number. *)
let fd_setsize = 1024
let selectable fd = (Obj.magic fd : int) < fd_setsize

(* Answer a connection the loop will not keep with one line, then close
   it. *)
let refuse fd resp =
  (try ignore (Unix.single_write_substring fd resp 0 (String.length resp))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* select sleeps at most [poll_s], so a stop request is noticed. *)
let poll_s = 0.05

(* A full descriptor table (EMFILE, ENFILE) or a kernel short of memory
   (ENOBUFS, ENOMEM) leaves the connection in the listen backlog: the
   listener stays out of select until a connection closes or [poll_s]
   passes, so the loop neither spins on it nor stops serving. *)
let rec accept_all t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    if t.draining then refuse fd (Protocol.err Protocol.e_shutting_down)
    else if not (selectable fd) then
      refuse fd (Protocol.err Protocol.e_overloaded ~detail:"too many open connections")
    else begin
      Unix.set_nonblock fd;
      Hashtbl.replace t.conns fd (new_conn fd);
      Metrics.Gauge.add t.conn_gauge 1.0;
      Metrics.Counter.inc t.c.conns_total
    end;
    accept_all t listen_fd
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
    ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
    t.accept_after <- Metrics.now_s () +. poll_s
  | exception Unix.Unix_error _ -> request_stop t

(* One turn: cut expired connections, wait for work, accept, read,
   serve every buffered line the engine lets through, write.  select
   sleeps until the nearest connection deadline at the latest, and not
   at all while an unblocked connection holds unscanned input. *)
let turn t listen_fd wake_r =
  let now = Metrics.now_s () in
  let reads, writes, timeout =
    Hashtbl.fold
      (fun fd c ((r, w, timeout) as acc) ->
        match deadline t c with
        | Some d when now > d ->
          Metrics.Counter.inc t.c.conn_timeout;
          c.closed <- true;
          acc
        | d ->
          let timeout =
            if pumpable c && c.scan < c.len then 0.0
            else match d with Some d -> Float.min timeout (d -. now) | None -> timeout
          in
          if c.stalled then (r, fd :: w, timeout)
          else if readable c then (fd :: r, w, timeout)
          else (r, w, timeout))
      t.conns
      ((if now >= t.accept_after then [ listen_fd; wake_r ] else [ wake_r ]), [], poll_s)
  in
  let ready =
    match Unix.select reads writes [] timeout with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  List.iter
    (fun fd ->
      if fd = wake_r then (
        try ignore (Unix.read wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ())
      else if fd = listen_fd then accept_all t listen_fd
      else match Hashtbl.find_opt t.conns fd with Some c -> guarded c read_conn | None -> ())
    ready;
  settle_lent t;
  Hashtbl.iter (fun _ c -> pump t c) t.conns;
  run_queue t;
  Hashtbl.iter (fun _ c -> if not c.closed then guarded c flush) t.conns;
  Hashtbl.filter_map_inplace
    (fun _ c ->
      if c.eof && not (c.waiting || c.stalled || c.scan < c.len) then c.closed <- true;
      if c.closed then begin
        close_conn t c;
        None
      end
      else Some c)
    t.conns

(* The loop, then the end of the drain.  Once the queue is empty and no
   job holds the engine, the group closes (which syncs every WAL); the
   loop turns on until every reply is written or its connection cut. *)
let serve_loop t listen_fd wake_r =
  let group_closed = ref false in
  while not (!group_closed && Hashtbl.fold (fun _ c idle -> idle && not c.stalled) t.conns true) do
    if Atomic.get t.stop_requested && not t.draining then begin
      t.draining <- true;
      Admission.begin_drain t.adm
    end;
    turn t listen_fd wake_r;
    if t.draining && t.lent = None && Admission.depth t.adm = 0 && not !group_closed then begin
      (try G.close t.group with _ -> ());
      group_closed := true
    end
  done;
  Hashtbl.iter (fun _ c -> close_conn t c) t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match t.config.listen with
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  Mutex.protect t.lock (fun () ->
      Option.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        t.wake_pipe;
      t.wake_pipe <- None)

let start t =
  if t.loop_thread <> None then invalid_arg "Server.start: already started";
  (* A client that vanished must surface as a write error, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = bind_listener t.config.listen in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Mutex.protect t.lock (fun () -> t.wake_pipe <- Some (wake_r, wake_w));
  t.loop_thread <- Some (Thread.create (fun () -> serve_loop t listen_fd wake_r) ())

let wait t =
  match t.loop_thread with
  | None -> ()
  | Some thr ->
    Thread.join thr;
    t.loop_thread <- None

let stop t =
  request_stop t;
  wait t

(* Queue a job like a request; at the head of the queue the loop lends
   it the engine, and [f group] runs here, on the caller's thread, while
   the loop runs nothing else on the group.  The chaos harnesses use it
   to flip fault injectors, run repair scrubs and kill or rejoin shards
   without ever racing a live query. *)
let submit_fn t f =
  let job = { state = Queued } in
  let item =
    {
      Admission.payload = Job job;
      cls = Protocol.Admin_q;
      enqueued = Metrics.now_s ();
      deadline = Float.infinity;
    }
  in
  match Admission.submit t.adm item with
  | Admission.Overloaded _ -> invalid_arg "Server.submit_fn: admission queue full"
  | Admission.Draining -> invalid_arg "Server.submit_fn: server draining"
  | Admission.Admitted ->
    Mutex.protect t.lock (fun () ->
        wake t;
        while job.state <> Lent do
          Condition.wait t.lent_cond t.lock
        done);
    (try f t.group with _ -> ());
    Mutex.protect t.lock (fun () ->
        job.state <- Done;
        wake t)
