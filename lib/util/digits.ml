(* Decimal integers without Printf: the one codec behind the wire's
   integers (Hsq_serve.Json).

   Both directions work on the non-positive side of the range, where
   OCaml's [int] has one more value than on the positive side, so
   [min_int] needs no special case.  [n / 10] truncates toward zero and
   [n mod 10] takes the sign of [n], so for [n <= 0] the last digit is
   [- (n mod 10)]. *)

let add_int buf n =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

(* Accumulate [-value] so that [min_int] fits; [min_acc] is the smallest
   accumulator that can take one more digit without leaving the range. *)
let min_acc = min_int / 10

let read_int s ~pos ~stop =
  let rec go i acc =
    if i = stop then Some acc
    else
      match String.unsafe_get s i with
      | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc < min_acc || acc * 10 < min_int + d then None else go (i + 1) ((acc * 10) - d)
      | _ -> None
  in
  if pos < 0 || stop > String.length s || pos >= stop then None
  else if String.unsafe_get s pos = '-' then if pos + 1 = stop then None else go (pos + 1) 0
  else
    match go pos 0 with
    | Some acc when acc <> min_int -> Some (-acc)
    | Some _ | None -> None
