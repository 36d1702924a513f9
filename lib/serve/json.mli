(** Minimal JSON for the line-JSON wire protocol.

    One request or response is exactly one JSON document on one line:
    {!to_string} never emits a newline, and {!of_string} parses one
    complete document.  Integers are exact over the whole OCaml [int]
    range: an integer literal that fits parses to [Int] and [Int]
    renders as its decimal digits.  Fractions, exponents, integer
    literals out of range and [-0] are [Num] floats.  No external dependency on
    purpose. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Render on a single line (strings are escaped; NaN/inf render as
    [null]). *)
val to_string : t -> string

(** [to_string] followed by ['\n'], rendered in one buffer: one wire
    line. *)
val to_line : t -> string

(** Parse one complete document; [Error msg] names the offset of the
    first problem. *)
val of_string : string -> (t, string) result

(** [of_bytes b ~pos ~len] parses [b]'s bytes [pos .. pos + len - 1]
    like [of_string] on that range, without copying it; offsets in
    errors count from [pos]. [b] must not change during the call.
    Raises [Invalid_argument] if the range is not inside [b]. *)
val of_bytes : bytes -> pos:int -> len:int -> (t, string) result

(** Object field lookup; [None] on non-objects and absent keys. *)
val member : t -> string -> t option

(** [Int n] and integral [Num f] with [|f| < 9e15] (so [1e3] reads as
    1000). *)
val as_int : t -> int option

(** [Int] (rounded to the nearest float) and [Num]. *)
val as_float : t -> float option
val as_str : t -> string option
val as_list : t -> t list option

(** [get_* v key] = [member] composed with the matching [as_*]. *)
val get_int : t -> string -> int option

val get_float : t -> string -> float option
val get_str : t -> string -> string option
val get_bool : t -> string -> bool option
val get_list : t -> string -> t list option

(** [int n] = [Int n]. *)
val int : int -> t
