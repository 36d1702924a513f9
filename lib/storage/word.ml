(* 8-byte big-endian words holding 63-bit ints.  [Int64.to_int] alone
   would drop bit 63, so [get] first checks that the word is a sign
   extension: bits 63 and 62 shifted down read 0 (both clear) or -1
   (both set). *)

exception Invalid

let add buf w = Buffer.add_int64_be buf (Int64.of_int w)
let set b off w = Bytes.set_int64_be b off (Int64.of_int w)

let get b off =
  let w = Bytes.get_int64_be b off in
  let top = Int64.to_int (Int64.shift_right w 62) in
  if top = 0 || top = -1 then Int64.to_int w else raise Invalid

(* splitmix-style word mixer: cheap, and any single flipped bit changes
   the checksum with overwhelming probability. *)
let mix h v =
  let h = (h lxor v) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let checksum_seed = 0x106689D45497FDB5

(* The record loops check their bounds once per record, then use the
   unchecked accessors [Bytes.get_int64_be] wraps. *)
external big_endian : unit -> bool = "%big_endian"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let check_record who b ~off ~words a ~len =
  if len < 0 || len > Array.length a || off < 0 || off + (8 * words) > Bytes.length b then
    invalid_arg who

(* The record loops fold {!mix} in [Int64] on the doubled
   representation [T = 2h], which is the 63-bit fold shifted one bit up:
   [(h lxor v) * k] doubled is [(T lxor 2v) * k] modulo 2^64, and
   [h lsr 29] doubled is [(T lsr 29) land -2].  A stored word [w] is [v]
   sign-extended, so [2v] is [w lsl 1] whatever bit 63 holds: no word is
   tagged or untagged on the fold's dependency chain, which costs a
   xor, a multiply, a shift, an and and a xor a word.  [T asr 1] is the
   63-bit checksum again, so stored records are unchanged. *)
let mix_k = 0x2545F4914F6CDD1DL

let[@inline] word b off = if big_endian () then get64u b off else swap64 (get64u b off)

(* One pass per word: decode, fold into the sum, and collect in [bad]
   each word xored with itself shifted up one bit, whose sign bit is set
   exactly when the word's bits 63 and 62 differ.  The checksum word is
   the [len]th; its low 63 bits must equal the sum's. *)
let read_sealed b (dst : int array) ~len ~seed =
  check_record "Word.read_sealed" b ~off:0 ~words:(len + 1) dst ~len;
  let t = ref (Int64.shift_left (Int64.of_int seed) 1) and bad = ref 0L in
  for j = 0 to len - 1 do
    let w = word b (8 * j) in
    let w2 = Int64.shift_left w 1 in
    bad := Int64.logor !bad (Int64.logxor w w2);
    Array.unsafe_set dst j (Int64.to_int w);
    let x = Int64.mul (Int64.logxor !t w2) mix_k in
    t := Int64.logxor x (Int64.logand (Int64.shift_right_logical x 29) (-2L))
  done;
  let w = word b (8 * len) in
  let w2 = Int64.shift_left w 1 in
  Int64.logor !bad (Int64.logxor w w2) >= 0L && Int64.equal w2 !t

let write_sealed b ~off (src : int array) ~upto ~flip ~seed =
  check_record "Word.write_sealed" b ~off ~words:upto src ~len:upto;
  let t = ref (Int64.shift_left (Int64.of_int seed) 1) in
  for j = 0 to upto - 1 do
    let v = Array.unsafe_get src j in
    let x = Int64.mul (Int64.logxor !t (Int64.shift_left (Int64.of_int v) 1)) mix_k in
    t := Int64.logxor x (Int64.logand (Int64.shift_right_logical x 29) (-2L));
    let w = Int64.of_int (if j = flip then v lxor 1 else v) in
    set64u b (off + (8 * j)) (if big_endian () then w else swap64 w)
  done;
  Int64.to_int (Int64.shift_right !t 1)
