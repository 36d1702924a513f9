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

(** {2 Checksums and sealed records}

    The device's blocks and the WAL's records carry one checksum word:
    the fold of {!mix} over the decoded words from a seed.
    {!read_sealed} and {!write_sealed} compute that fold on its doubled
    64-bit form, off the tag arithmetic, and their checksums are
    bit-identical to folding {!mix} word by word. *)

(** [mix h v] folds word [v] into checksum [h]. *)
val mix : int -> int -> int

(** The seed of a WAL checksum; a device block's is
    [mix checksum_seed addr]. *)
val checksum_seed : int

(** [read_sealed b dst ~len ~seed] decodes the [len] words at the start
    of [b] into [dst.(0 .. len-1)] and reports whether the word after
    them equals their checksum from [seed] and all [len + 1] words are
    sign extensions. One pass over the record, one bounds check: raises
    [Invalid_argument] if [b] holds fewer than [len + 1] words or [dst]
    fewer than [len]. *)
val read_sealed : Bytes.t -> int array -> len:int -> seed:int -> bool

(** [write_sealed b ~off src ~upto ~flip ~seed] encodes
    [src.(0 .. upto-1)] into [b] from byte [off], word [flip] with its
    low bit flipped (no word when [flip] is out of range), and returns
    the checksum of those words of [src] from [seed], taken before the
    flip. One pass, one bounds check: raises [Invalid_argument] if [b]
    holds fewer than [upto] words past [off] or [src] fewer than
    [upto]. *)
val write_sealed : Bytes.t -> off:int -> int array -> upto:int -> flip:int -> seed:int -> int
