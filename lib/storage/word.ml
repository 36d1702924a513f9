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
