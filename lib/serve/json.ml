(* Minimal JSON for the line-JSON wire protocol (lib/serve).

   One request or response is exactly one JSON document on one line —
   the renderer emits no newline inside a document ([to_line] appends
   the one that ends it), and the parser consumes one complete document
   (trailing whitespace allowed).  An integer literal that fits in an
   OCaml [int] is an [Int], exact over the whole range, read and
   written by Hsq_util.Digits; every other number (a fraction, an
   exponent, an integer out of range, and -0) is a float [Num].
   Kept dependency-free on purpose: the protocol needs only this. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering --------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf f =
  if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 9.0e15 then
    (* Exactly what "%.0f" prints, sign of zero included. *)
    if Float.sign_bit f && f = 0.0 then Buffer.add_string buf "-0"
    else Hsq_util.Digits.add_int buf (int_of_float f)
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Hsq_util.Digits.add_int buf n
  | Num f -> add_num buf f
  | Str s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        render buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        render buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  render buf v;
  Buffer.contents buf

let to_line v =
  let buf = Buffer.create 128 in
  render buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Bad of string

(* Parse [s.[start, n)]; offsets in messages count from [start]. *)
let parse s start n =
  let pos = ref start in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg (!pos - start))) in
  (* '\000' past the end, which no caller compares against: the one
     place that needs the end told apart checks [!pos >= n] itself. *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let literal word value =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* UTF-8 encode a \uXXXX codepoint (surrogate pairs folded by the
     string scanner below). *)
  let add_codepoint buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape";
         (match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let cp = try hex4 () with Failure _ -> fail "bad \\u escape" in
           (* Surrogate pair: \uD800-\uDBFF must be followed by a low
              surrogate escape. *)
           if cp >= 0xD800 && cp <= 0xDBFF && !pos + 2 <= n && s.[!pos] = '\\'
              && s.[!pos + 1] = 'u'
           then begin
             pos := !pos + 2;
             let lo = try hex4 () with Failure _ -> fail "bad \\u escape" in
             add_codepoint buf (0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00)))
           end
           else add_codepoint buf cp
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c)));
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let first = !pos in
    if peek () = '-' then advance ();
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      advance ()
    done;
    match Hsq_util.Digits.read_int s ~pos:first ~stop:!pos with
    | Some 0 when s.[first] = '-' -> Num (-0.0)
    | Some i -> Int i
    | None -> (
      match float_of_string_opt (String.sub s first (!pos - first)) with
      | Some f -> Num f
      | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            items (v :: acc)
          | ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let of_string s = parse s 0 (String.length s)

(* The parse copies what it keeps (strings go through a Buffer), so the
   bytes are only borrowed for the duration of the call. *)
let of_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Json.of_bytes";
  parse (Bytes.unsafe_to_string b) pos (pos + len)

(* --- accessors --------------------------------------------------------- *)

let member v key = match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

let as_int = function
  | Int n -> Some n
  | Num f when Float.is_integer f && Float.abs f < 9.0e15 -> Some (int_of_float f)
  | _ -> None

let as_float = function Int n -> Some (float_of_int n) | Num f -> Some f | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_list = function List xs -> Some xs | _ -> None
let get_int v key = Option.bind (member v key) as_int
let get_float v key = Option.bind (member v key) as_float
let get_str v key = Option.bind (member v key) as_str
let get_bool v key = Option.bind (member v key) as_bool
let get_list v key = Option.bind (member v key) as_list
let int n = Int n
