(** Decimal integers without Printf, over the whole OCaml [int] range.

    The line-JSON wire writes and reads its integers through it. *)

(** [add_int buf n] appends the decimal form of [n], byte-identical to
    [string_of_int n] (a leading ['-'] for negatives, no leading zeros). *)
val add_int : Buffer.t -> int -> unit

(** [read_int s ~pos ~stop] reads [s.[pos, stop)] as an optional ['-']
    followed by one or more decimal digits. [None] if the range holds
    anything else (including ['+'], a fraction or an exponent), is empty
    or out of bounds, or names an integer outside [[min_int, max_int]].
    Leading zeros are accepted. *)
val read_int : string -> pos:int -> stop:int -> int option
