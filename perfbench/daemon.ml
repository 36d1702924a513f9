(* The `hsq serve` daemon under test, run as a process of its own so
   that its memory and CPU readings belong to it alone.  Each daemon
   lives in a directory holding its durable store, its socket and its
   log; paths are relative to the work directory, which keeps the
   Unix socket path short wherever the checkout lives. *)

open Common
module Client = Hsq_serve.Client
module Json = Hsq_serve.Json
module Server = Hsq_serve.Server

type t = {
  pid : int;
  dir : string;
  listen : Server.listen;
  mutable running : bool;
}

(* Every daemon started, so an aborted run still stops them all. *)
let started : t list ref = ref []

let reap d =
  if d.running then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.running <- false
  end

let () = at_exit (fun () -> List.iter reap !started)
let log_path dir = Filename.concat dir "daemon.log"

(* Start `hsq serve` with its default flags on [dir]/store (created if
   absent; an existing store is recovered). *)
let spawn ~hsq ~dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" and sock = Filename.concat dir "hsq.sock" in
  if not (Sys.file_exists store) then Unix.mkdir store 0o755;
  (* A fresh log per daemon, so the drain check reads only its own. *)
  let log = Unix.openfile (log_path dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process hsq [| hsq; "serve"; "--durable"; store; "--socket"; sock |] Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; dir; listen = Server.Unix_sock sock; running = true } in
  started := d :: !started;
  d

let connect d = Client.connect ~retries:2000 ~retry_delay_s:0.005 d.listen
let pid_s d = string_of_int d.pid

(* One request whose reply must be ok. *)
let expect what c j =
  let r = Client.request c j in
  check (Client.is_ok r) "%s: daemon answered %s" what (Json.to_string r);
  r

let int_field what r key =
  match Json.get_int r key with Some v -> v | None -> fail "%s: reply has no %s" what key

let float_field what r key =
  match Json.get_float r key with Some v -> v | None -> fail "%s: reply has no %s" what key

(* --- the metrics verb --------------------------------------------------- *)

let metrics c =
  match Json.member (Client.metrics c) "metrics" with
  | Some m -> m
  | None -> fail "metrics: reply has no metrics object"

let value m name = match Json.get_float m name with Some v -> v | None -> fail "metrics: %s missing" name

(* Cumulative buckets [(le, n)] of a histogram in a metrics dump. *)
let buckets m name =
  match Option.bind (Json.member m name) (fun h -> Json.get_list h "buckets") with
  | None -> fail "metrics: histogram %s missing" name
  | Some rows ->
    Array.of_list
      (List.map
         (fun row ->
           let le = match Json.get_float row "le" with Some f -> f | None -> infinity in
           (le, Option.value ~default:0 (Json.get_int row "n")))
         rows)

(* Percentile of the observations a histogram gained between two dumps,
   interpolated linearly inside the bucket that holds it. *)
let histogram_percentile ~before ~after name q =
  let b = buckets before name and a = buckets after name in
  let cum = Array.mapi (fun i (le, n) -> (le, n - snd b.(i))) a in
  let total = snd cum.(Array.length cum - 1) in
  if total = 0 then nan
  else begin
    let target = q *. float_of_int total in
    let rec go i lo prev =
      let le, n = cum.(i) in
      if float_of_int n >= target || i = Array.length cum - 1 then
        if le = infinity then lo
        else lo +. ((le -. lo) *. (target -. float_of_int prev) /. float_of_int (max 1 (n - prev)))
      else go (i + 1) le n
    in
    go 0 0.0 0
  end

(* --- shutdown ----------------------------------------------------------- *)

let wait_exit d ~timeout_s =
  let deadline = now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if now () > deadline then begin
        reap d;
        None
      end
      else begin
        Thread.delay 0.01;
        go ()
      end
    | _, st ->
      d.running <- false;
      Some st
  in
  go ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Drain over the wire; the daemon must exit 0 after reporting the
   drain. *)
let drain d =
  let c = connect d in
  Client.drain c;
  Client.close c;
  match wait_exit d ~timeout_s:60.0 with
  | Some (Unix.WEXITED 0) ->
    check (contains (read_file (log_path d.dir)) "hsq serve: drained") "clean exit: no drain line in the daemon log"
  | Some (Unix.WEXITED n) -> fail "clean exit: daemon exited with code %d" n
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "clean exit: daemon stopped by signal %d" n
  | None -> fail "clean exit: daemon still running 60 s after drain"
