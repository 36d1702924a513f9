(* Wire protocol of the serve daemon: line-JSON requests and
   responses.

   A request is one JSON object per line with an "op" field; a
   response is one JSON object per line with an "ok" field.  Every
   request gets exactly one response, in order, on the connection that
   sent it — including rejected ones: admission control answers
   overload with an explicit {"ok":false,"error":"overloaded"}
   carrying a retry-after hint, never by dropping the request.

   Requests fall into classes for admission-control purposes; each
   class has a deadline budget covering queue wait plus execution (see
   Server.budgets).  The class is decided here, from the parsed
   request, so the admission layer never inspects JSON. *)

type target =
  | Rank of int
  | Phi of float

type format =
  | Fmt_json
  | Fmt_prometheus

type request =
  | Ping
  | Observe of int array
  | End_step
  | Quick of { target : target; window : int option }
  | Accurate of { target : target; window : int option; deadline_ms : float option }
  | Stats
  | Metrics_dump of format
  | Health_check
  | Drain

(* Admission classes, in the daemon's vocabulary: cheap in-memory
   queries, disk-probing queries, WAL-bound ingest, and introspection. *)
type cls =
  | Quick_q
  | Accurate_q
  | Ingest_q
  | Admin_q

let class_of = function
  | Quick _ -> Quick_q
  | Accurate _ -> Accurate_q
  | Observe _ | End_step -> Ingest_q
  | Ping | Stats | Metrics_dump _ | Health_check | Drain -> Admin_q

let class_label = function
  | Quick_q -> "quick"
  | Accurate_q -> "accurate"
  | Ingest_q -> "ingest"
  | Admin_q -> "admin"

(* Explicit deadline the request carries, if any (admission folds it
   into the class budget). *)
let requested_deadline_ms = function
  | Accurate { deadline_ms; _ } -> deadline_ms
  | _ -> None

let parse_target j =
  match (Json.get_int j "rank", Json.get_float j "phi") with
  | Some r, None -> Ok (Rank r)
  | None, Some p ->
    if p > 0.0 && p <= 1.0 then Ok (Phi p) else Error "phi must lie in (0, 1]"
  | Some _, Some _ -> Error "give rank or phi, not both"
  | None, None -> Error "missing rank or phi"

let parse j =
  match Json.get_str j "op" with
  | None -> Error "missing op field"
  | Some op -> (
    match op with
    | "ping" -> Ok Ping
    | "observe" -> (
      match (Json.member j "value", Json.member j "values") with
      | Some v, None -> (
        match Json.as_int v with
        | Some v -> Ok (Observe [| v |])
        | None -> Error "value must be an integer")
      | None, Some vs -> (
        match Json.as_list vs with
        | None -> Error "values must be a list of integers"
        | Some [] -> Error "empty values"
        | Some vs ->
          let vals = Array.make (List.length vs) 0 in
          let rec fill i = function
            | [] -> Ok (Observe vals)
            | v :: rest -> (
              match Json.as_int v with
              | Some x ->
                vals.(i) <- x;
                fill (i + 1) rest
              | None -> Error "values must be integers")
          in
          fill 0 vs)
      | Some _, Some _ -> Error "give value or values, not both"
      | None, None -> Error "observe needs value or values")
    | "end_step" -> Ok End_step
    | "quick" -> (
      match parse_target j with
      | Error e -> Error e
      | Ok target -> Ok (Quick { target; window = Json.get_int j "window" }))
    | "accurate" -> (
      match parse_target j with
      | Error e -> Error e
      | Ok target ->
        Ok
          (Accurate
             {
               target;
               window = Json.get_int j "window";
               deadline_ms = Json.get_float j "deadline_ms";
             }))
    | "stats" -> Ok Stats
    | "metrics" -> (
      match Json.get_str j "format" with
      | None | Some "json" -> Ok (Metrics_dump Fmt_json)
      | Some "prometheus" -> Ok (Metrics_dump Fmt_prometheus)
      | Some f -> Error (Printf.sprintf "unknown metrics format %S" f))
    | "health" -> Ok Health_check
    | "drain" -> Ok Drain
    | op -> Error (Printf.sprintf "unknown op %S" op))

(* --- responses --------------------------------------------------------- *)

(* A response is rendered as its whole wire line, newline included. *)
let ok fields = Json.to_line (Json.Obj (("ok", Json.Bool true) :: fields))

let err ?detail ?(extra = []) kind =
  let fields = [ ("ok", Json.Bool false); ("error", Json.Str kind) ] in
  let fields =
    match detail with None -> fields | Some d -> fields @ [ ("detail", Json.Str d) ]
  in
  Json.to_line (Json.Obj (fields @ extra))

(* The daemon's shed-load vocabulary, shared by server and clients so
   the chaos harness can pattern-match rejections exhaustively. *)
let e_overloaded = "overloaded"
let e_timeout = "timeout"
let e_shutting_down = "shutting_down"
let e_parse = "parse"
let e_bad_request = "bad_request"
let e_internal = "internal"
let e_device = "device"
let e_wal = "wal"
let e_window = "window_not_aligned"
