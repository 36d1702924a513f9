(** Wire protocol of the serve daemon: line-JSON requests and
    responses.

    One JSON object per line, both directions.  Requests carry an
    ["op"] field; responses carry ["ok"] plus either the result fields
    or ["error"] naming one of the {!e_overloaded}-style kinds below.
    Every request gets exactly one response, in order, on its own
    connection — rejections are explicit, never silent drops. *)

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

(** Admission classes; each has a deadline budget in the server
    config covering queue wait plus execution. *)
type cls =
  | Quick_q
  | Accurate_q
  | Ingest_q
  | Admin_q

val class_of : request -> cls
val class_label : cls -> string

(** The explicit deadline the request carries, if any. *)
val requested_deadline_ms : request -> float option

(** Parse a request object; [Error] explains what is malformed. *)
val parse : Json.t -> (request, string) result

(** Render [{"ok":true, ...fields}] as one wire line, trailing ['\n']
    included. *)
val ok : (string * Json.t) list -> string

(** Render [{"ok":false,"error":kind[,"detail":...]...extra}] as one
    wire line, like {!ok}. *)
val err : ?detail:string -> ?extra:(string * Json.t) list -> string -> string

(** Error kinds (the daemon's complete shed/failure vocabulary). *)

val e_overloaded : string
val e_timeout : string
val e_shutting_down : string
val e_parse : string
val e_bad_request : string
val e_internal : string
val e_device : string
val e_wal : string
val e_window : string
