(** The one binary codec of the block device, the WAL and the hint logs:
    an OCaml int stored as an 8-byte big-endian word, its 64-bit sign
    extension. A 63-bit int copies bit 62 into bit 63, so a stored word
    whose bits 63 and 62 differ was written by no one; {!get} rejects
    it, which makes a flip of bit 63 as visible as a flip of any other
    bit. *)

(** Raised by {!get} on a word whose bit 63 differs from its bit 62. *)
exception Invalid

(** Append [w] to a buffer as one word. *)
val add : Buffer.t -> int -> unit

(** [set b off w] writes [w] as one word at byte [off] of [b]. *)
val set : Bytes.t -> int -> int -> unit

(** [get b off] decodes the word at byte [off] of [b]. Raises {!Invalid}
    if its bit 63 differs from its bit 62. *)
val get : Bytes.t -> int -> int
