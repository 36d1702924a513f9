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

(* One pass per word: decode, fold into the sum, and collect in [bad]
   the words whose bits 63 and 62 differ ([top + 1] is 0 or 1 exactly
   when the top two bits agree).  The checksum word is the [len]th. *)
let read_sealed b (dst : int array) ~len ~seed =
  check_record "Word.read_sealed" b ~off:0 ~words:(len + 1) dst ~len;
  let h = ref seed and bad = ref 0 and sum = ref 0 in
  for j = 0 to len do
    let w = if big_endian () then get64u b (8 * j) else swap64 (get64u b (8 * j)) in
    bad := !bad lor ((Int64.to_int (Int64.shift_right w 62) + 1) lsr 1);
    let v = Int64.to_int w in
    if j < len then begin
      Array.unsafe_set dst j v;
      h := mix !h v
    end
    else sum := v
  done;
  !bad = 0 && !sum = !h

let write_sealed b ~off (src : int array) ~upto ~flip ~seed =
  check_record "Word.write_sealed" b ~off ~words:upto src ~len:upto;
  let h = ref seed in
  for j = 0 to upto - 1 do
    let v = Array.unsafe_get src j in
    h := mix !h v;
    let w = Int64.of_int (if j = flip then v lxor 1 else v) in
    set64u b (off + (8 * j)) (if big_endian () then w else swap64 w)
  done;
  !h
