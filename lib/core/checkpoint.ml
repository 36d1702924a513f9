(* Sketch checkpoints for the durable ingest path.

   A checkpoint freezes the GK sketch of the open time step with the
   WAL sequence number it covers, so recovery re-inserts only the log
   suffix past [seq].  The open step's elements are not copied: the
   WAL, rotated only at a step end, holds every [Observe] since the
   last commit, and recovery refills the spool from its records up to
   [seq].  Engine.checkpoint_verdict decides when a checkpoint is
   usable; otherwise recovery replays the whole WAL, which is always
   correct, just slower.

   The file uses the Persist sidecar idiom: plain text, a trailing
   whole-file checksum line, written to a temp file and renamed into
   place.  A torn or tampered checkpoint therefore reads as "absent",
   never as wrong state. *)

(* Version 1 also carried the open step's spool, and version 2 the
   per-lane WAL cuts of the removed multi-lane ingest; both fail the
   version check like any unknown version and read as absent, so
   recovery replays the whole WAL. *)
let format_version = 3

type t = {
  seq : int; (* last WAL sequence number covered by this state *)
  steps_done : int; (* warehouse time steps committed at save time *)
  gk : int array; (* serialize_sketch of the stream sketch *)
}

(* The sketch image is tagged: word 0 is 1, then the GK payload.
   Untagged GK images from older stores start with 0 (Fixed mode) or a
   word budget >= 32 (Capped), so they parse as GK.  Tag 2 marked the
   KLL sketch of older builds; this build has no KLL, and the image must
   not fall through to the untagged branch, so it is refused. *)
let tag_gk = 1
let tag_kll = 2

let serialize_sketch gk = Array.append [| tag_gk |] (Hsq_sketch.Gk.serialize gk)

let deserialize_sketch data =
  if Array.length data = 0 then invalid_arg "Checkpoint.deserialize_sketch: empty image";
  if data.(0) = tag_gk then Hsq_sketch.Gk.deserialize (Array.sub data 1 (Array.length data - 1))
  else if data.(0) = tag_kll then invalid_arg "Checkpoint.deserialize_sketch: KLL image"
  else Hsq_sketch.Gk.deserialize data

let render c =
  let buf = Buffer.create (256 + (8 * Array.length c.gk)) in
  Printf.bprintf buf "hsq-ckpt %d\n" format_version;
  Printf.bprintf buf "seq %d\n" c.seq;
  Printf.bprintf buf "steps_done %d\n" c.steps_done;
  Printf.bprintf buf "gk_len %d\n" (Array.length c.gk);
  Buffer.add_string buf "gk";
  Array.iter
    (fun w ->
      Buffer.add_char buf ' ';
      Hsq_util.Digits.add_int buf w)
    c.gk;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "checksum %x\n" (Meta.checksum (Buffer.contents buf));
  Buffer.contents buf

let save ~path c = Meta.write ~path (render c)

let parse_error msg = raise (Meta.Corrupt_metadata msg)

(* The body lines, the checksum line already stripped: exactly
   [hsq-ckpt 3], [seq], [steps_done], [gk_len] and the [gk] words. *)
let parse lines =
  let words name line =
    match String.split_on_char ' ' line with
    | n :: ws when n = name -> List.filter (fun w -> w <> "") ws
    | _ -> parse_error (Printf.sprintf "expected %S..., found %S" name line)
  in
  let ints name line =
    List.map
      (fun w ->
        match int_of_string_opt w with
        | Some v -> v
        | None -> parse_error (Printf.sprintf "non-integer word in %S" name))
      (words name line)
  in
  let int name line =
    match ints name line with [ v ] -> v | _ -> parse_error ("one integer expected in " ^ name)
  in
  match lines with
  | header :: _ when int "hsq-ckpt" header <> format_version ->
    parse_error ("unsupported checkpoint version " ^ header)
  | [ _; seq; steps_done; gk_len; gk ] ->
    let seq = int "seq" seq and steps_done = int "steps_done" steps_done in
    let gk = Array.of_list (ints "gk" gk) and len = int "gk_len" gk_len in
    if Array.length gk <> len then
      parse_error (Printf.sprintf "gk holds %d words, expected %d" (Array.length gk) len);
    if seq < 0 || steps_done < 0 then parse_error "negative sequence or step count";
    { seq; steps_done; gk }
  | _ -> parse_error (Printf.sprintf "%d lines, expected 5" (List.length lines))

(* [Ok None] — no checkpoint on disk; [Ok (Some c)] — a valid one;
   [Error why] — a file is present but unreadable (torn write, bit rot,
   version skew).  Recovery treats [Error] exactly like [Ok None] —
   replay the whole WAL — but the distinction is reported. *)
let load ~path =
  if not (Sys.file_exists path) then Ok None
  else
    match parse (Meta.verify_checksum (Meta.read_lines path)) with
    | c -> Ok (Some c)
    | exception Meta.Corrupt_metadata msg -> Error msg
    | exception Failure msg -> Error msg
    | exception Sys_error msg -> Error msg
