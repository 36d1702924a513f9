(* Sketch checkpoints for the durable ingest path.

   A checkpoint freezes the stream side R of the open time step — the
   batch spool and the GK sketch state — together with the WAL sequence
   number it covers, so recovery replays only the log suffix past
   [seq] instead of the whole open step.  [steps_done] records how many
   time steps the warehouse had durably committed when the checkpoint
   was taken: a checkpoint is only usable if the recovered warehouse
   agrees (otherwise its batch describes a step that has since been
   archived, or one the warehouse rolled back — either way it is stale
   and recovery falls back to a full WAL replay, which is always
   correct, just slower).

   The file uses the Persist sidecar idiom: plain text, a trailing
   whole-file checksum line, written to a temp file and renamed into
   place.  A torn or tampered checkpoint therefore reads as "absent",
   never as wrong state. *)

(* Version 2 carried the per-lane WAL cuts of the removed multi-lane
   ingest; it now fails the version check like any unknown version and
   reads as absent, so recovery replays the whole WAL. *)
let format_version = 1

type t = {
  seq : int; (* last WAL sequence number covered by this state *)
  steps_done : int; (* warehouse time steps committed at save time *)
  batch : int array; (* the open step's spool, one sorted run per hand-off *)
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
  let buf = Buffer.create (256 + (8 * (Array.length c.batch + Array.length c.gk))) in
  Printf.bprintf buf "hsq-ckpt %d\n" format_version;
  Printf.bprintf buf "seq %d\n" c.seq;
  Printf.bprintf buf "steps_done %d\n" c.steps_done;
  let emit_words name ws =
    Printf.bprintf buf "%s_len %d\n" name (Array.length ws);
    Buffer.add_string buf name;
    Array.iter
      (fun w ->
        Buffer.add_char buf ' ';
        Hsq_util.Digits.add_int buf w)
      ws;
    Buffer.add_char buf '\n'
  in
  emit_words "batch" c.batch;
  emit_words "gk" c.gk;
  Printf.bprintf buf "checksum %x\n" (Meta.checksum (Buffer.contents buf));
  Buffer.contents buf

let save ~path c = Meta.write ~path (render c)

let parse_error msg = raise (Meta.Corrupt_metadata msg)

let parse lines =
  let lines = Array.of_list lines in
  let pos = ref 0 in
  let next () =
    if !pos < Array.length lines then begin
      let l = lines.(!pos) in
      incr pos;
      Some l
    end
    else None
  in
  let expect_prefix prefix line =
    let plen = String.length prefix in
    match line with
    | Some l when String.length l >= plen && String.sub l 0 plen = prefix ->
      String.sub l plen (String.length l - plen)
    | Some l -> parse_error (Printf.sprintf "expected %S..., found %S" prefix l)
    | None -> parse_error (Printf.sprintf "missing %S line" prefix)
  in
  let int_field prefix =
    match int_of_string_opt (expect_prefix prefix (next ())) with
    | Some v -> v
    | None -> parse_error (Printf.sprintf "non-integer value for %S" (String.trim prefix))
  in
  let header = expect_prefix "hsq-ckpt " (next ()) in
  if int_of_string_opt header <> Some format_version then
    parse_error ("unsupported checkpoint version " ^ header);
  let seq = int_field "seq " in
  let steps_done = int_field "steps_done " in
  let words name =
    let len = int_field (name ^ "_len ") in
    if len < 0 then parse_error (name ^ " length negative");
    let line = expect_prefix name (next ()) in
    let fields =
      List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
    in
    if List.length fields <> len then
      parse_error (Printf.sprintf "%s holds %d words, expected %d" name (List.length fields) len);
    let out = Array.make len 0 in
    List.iteri
      (fun i s ->
        match int_of_string_opt s with
        | Some v -> out.(i) <- v
        | None -> parse_error (Printf.sprintf "non-integer word in %s" name))
      fields;
    out
  in
  let batch = words "batch" in
  let gk = words "gk" in
  if seq < 0 || steps_done < 0 then parse_error "negative sequence or step count";
  { seq; steps_done; batch; gk }

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
