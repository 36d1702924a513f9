(* A small blocking line-JSON client for the daemon — the load
   generator and the serve tests speak through this.  One request, one
   response line, in order; that is the whole protocol. *)

type t = {
  fd : Unix.file_descr;
  inc : in_channel;
}

let connect_addr = function
  | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Server.Tcp (host, port) ->
    let addr =
      match host with
      | "" | "0.0.0.0" -> Unix.inet_addr_loopback
      | h -> (
        try Unix.inet_addr_of_string h
        with Failure _ -> (Unix.gethostbyname h).Unix.h_addr_list.(0))
    in
    (Unix.PF_INET, Unix.ADDR_INET (addr, port))

(* Retry the connect while the daemon boots: a spawned server needs a
   moment to bind, and tests/benches should not have to sleep-and-hope. *)
let connect ?(retries = 50) ?(retry_delay_s = 0.05) listen =
  let domain, addr = connect_addr listen in
  let rec go n =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> { fd; inc = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 0 ->
      Unix.close fd;
      Thread.delay retry_delay_s;
      go (n - 1)
    | exception e ->
      Unix.close fd;
      raise e
  in
  go retries

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

exception Protocol_error of string

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write_substring fd s !off (len - !off) in
    if n <= 0 then raise (Protocol_error "short write");
    off := !off + n
  done

let request t (j : Json.t) : Json.t =
  write_all t.fd (Json.to_line j);
  match input_line t.inc with
  | line -> (
    match Json.of_string line with
    | Ok r -> r
    | Error msg -> raise (Protocol_error ("bad response: " ^ msg)))
  | exception End_of_file -> raise (Protocol_error "connection closed")

let op ?(fields = []) name = Json.Obj (("op", Json.Str name) :: fields)

(* Typed views over a response.  [ok] is [Obj] with ["ok" = true];
   anything else is an error whose kind/detail the caller can inspect. *)
let is_ok r = match Json.member r "ok" with Some (Json.Bool true) -> true | _ -> false
let error_kind r = Option.bind (Json.member r "error") Json.as_str
let retry_after_ms r = Option.bind (Json.member r "retry_after_ms") Json.as_float

let expect_ok what r =
  if is_ok r then r
  else
    raise
      (Protocol_error
         (Printf.sprintf "%s failed: %s" what
            (Option.value ~default:(Json.to_string r) (error_kind r))))

let ping t = ignore (expect_ok "ping" (request t (op "ping")))

let observe t values =
  let vals = Json.List (List.map Json.int (Array.to_list values)) in
  let r = expect_ok "observe" (request t (op ~fields:[ ("values", vals) ] "observe")) in
  match Json.member r "applied" with Some j -> Option.value ~default:0 (Json.as_int j) | None -> 0

let end_step t = ignore (expect_ok "end_step" (request t (op "end_step")))

let target_fields = function
  | `Rank r -> [ ("rank", Json.int r) ]
  | `Phi p -> [ ("phi", Json.Num p) ]

let window_fields = function None -> [] | Some w -> [ ("window", Json.int w) ]

let quick ?window t target =
  request t (op ~fields:(target_fields target @ window_fields window) "quick")

let accurate ?window ?deadline_ms t target =
  let deadline =
    match deadline_ms with None -> [] | Some d -> [ ("deadline_ms", Json.Num d) ]
  in
  request t (op ~fields:(target_fields target @ window_fields window @ deadline) "accurate")

let stats t = expect_ok "stats" (request t (op "stats"))
let metrics t = expect_ok "metrics" (request t (op "metrics"))
let health t = expect_ok "health" (request t (op "health"))
let drain t = ignore (expect_ok "drain" (request t (op "drain")))

let value_of r =
  match Option.bind (Json.member r "value") Json.as_int with
  | Some v -> v
  | None -> raise (Protocol_error ("no value in " ^ Json.to_string r))

let bound_of r = Option.bind (Json.member r "bound") Json.as_float
