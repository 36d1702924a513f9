(* The one codec of the store's text files: the warehouse sidecar
   (rendering, parsing, atomic writing, restoring a historical index
   from it), and the checksummed-file framing that every other text
   file of a store (a group's layout and step baseline, a hint log's
   base) shares through [seal] and [read_sealed].

   This sits *below* Engine in the module graph on purpose: the engine's
   loader and recovery manager ([Engine.load_warehouse],
   [Engine.open_or_recover]) read the sidecar, and the shard layer reads
   and writes its own root files through the same framing.

   The sidecar format is version 2: a plain-text file of [field value]
   lines, a partition table, and a trailing whole-file checksum line.
   Durable-ingest settings (WAL directory, sync policy) are deliberately
   *not* persisted — they are runtime policy, supplied by the caller on
   each open. *)

exception Corrupt_metadata of string

(* Version 2 added the trailing whole-file checksum line (and rides
   along with the device format change that embeds per-block checksum
   words). *)
let format_version = 2

(* Same splitmix-style mixing as the device's block checksums, over the
   sidecar's bytes.  Masked to a non-negative int so the hex rendering
   is stable. *)
let checksum s =
  let h = ref 0x106689D45497FDB5 in
  String.iter
    (fun c ->
      let x = (!h lxor Char.code c) * 0x2545F4914F6CDD1D in
      h := x lxor (x lsr 29))
    s;
  !h land max_int

(* A checksummed text file is its body of newline-terminated lines plus
   a trailing [checksum <hex>] line over those bytes. *)
let seal body = Printf.sprintf "%schecksum %x\n" body (checksum body)

let sizing_to_string = function
  | Config.Epsilon e -> Printf.sprintf "epsilon %.17g" e
  | Config.Memory_words w -> Printf.sprintf "memory %d" w

let sizing_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "epsilon"; e ] -> Config.Epsilon (float_of_string e)
  | [ "memory"; w ] -> Config.Memory_words (int_of_string w)
  | _ -> raise (Corrupt_metadata ("bad sizing line: " ^ s))

let render ~config ~descriptors =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "hsq-meta %d\n" format_version;
  Printf.bprintf buf "sizing %s\n" (sizing_to_string config.Config.sizing);
  Printf.bprintf buf "kappa %d\n" config.Config.kappa;
  Printf.bprintf buf "block_size %d\n" config.Config.block_size;
  Printf.bprintf buf "steps_hint %d\n" config.Config.steps_hint;
  Printf.bprintf buf "stream_fraction %.17g\n" config.Config.stream_fraction;
  (* Two retired sort settings keep their lines, so sidecars stay
     byte-identical to what earlier builds wrote. *)
  Printf.bprintf buf "sort_memory none\n";
  Printf.bprintf buf "sort_domains none\n";
  Printf.bprintf buf "partitions %d\n" (List.length descriptors);
  List.iter
    (fun (d : Hsq_hist.Level_index.partition_descriptor) ->
      (* A 6th field ("1") marks a quarantined partition; healthy
         partitions keep the 5-field line, so sidecars of healthy
         warehouses are byte-identical to what earlier builds wrote. *)
      if d.quarantined then
        Printf.bprintf buf "partition %d %d %d %d %d 1\n" d.first_block d.length d.first_step
          d.last_step d.level
      else
        Printf.bprintf buf "partition %d %d %d %d %d\n" d.first_block d.length d.first_step
          d.last_step d.level)
    descriptors;
  seal (Buffer.contents buf)

(* Crash-atomic: write to a sibling temp file, flush, rename over the
   destination, then fsync tmp + parent directory (Atomic_file.commit).
   A crash before the rename leaves the previous sidecar untouched; a
   crash mid-write leaves only a stale .tmp that no load path ever
   reads; and the directory fsync makes the rename itself survive a
   power cut — without it the directory entry can roll back to the old
   sidecar even though the new one's blocks hit disk. *)
let write ~path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Hsq_storage.Atomic_file.commit ~tmp path

let verify_checksum lines =
  match List.rev lines with
  | [] -> raise (Corrupt_metadata "empty metadata file")
  | last :: rev_body ->
    let prefix = "checksum " in
    let plen = String.length prefix in
    if String.length last <= plen || String.sub last 0 plen <> prefix then
      raise (Corrupt_metadata "missing checksum line (truncated metadata?)");
    let stored =
      match int_of_string_opt ("0x" ^ String.sub last plen (String.length last - plen)) with
      | Some v -> v
      | None -> raise (Corrupt_metadata ("unreadable checksum line: " ^ last))
    in
    let body = List.rev rev_body in
    let payload = String.concat "" (List.map (fun l -> l ^ "\n") body) in
    if checksum payload <> stored then
      raise (Corrupt_metadata "metadata checksum mismatch (torn or tampered sidecar)");
    body

let parse_lines lines =
  (* Linear cursor over an array of lines (the former List.nth_opt
     cursor re-walked the list per field — quadratic in file size). *)
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
    let field = String.trim prefix in
    match line with
    | Some l when l = field || l = prefix ->
      raise (Corrupt_metadata (Printf.sprintf "empty value for field %S" field))
    | Some l when String.length l > plen && String.sub l 0 plen = prefix ->
      String.sub l plen (String.length l - plen)
    | Some l -> raise (Corrupt_metadata (Printf.sprintf "expected %S..., found %S" prefix l))
    | None -> raise (Corrupt_metadata (Printf.sprintf "missing %S line" prefix))
  in
  let header = expect_prefix "hsq-meta " (next ()) in
  if int_of_string_opt header <> Some format_version then
    raise (Corrupt_metadata ("unsupported format version " ^ header));
  let sizing = sizing_of_string (expect_prefix "sizing " (next ())) in
  let kappa = int_of_string (expect_prefix "kappa " (next ())) in
  let block_size = int_of_string (expect_prefix "block_size " (next ())) in
  let steps_hint = int_of_string (expect_prefix "steps_hint " (next ())) in
  let stream_fraction = float_of_string (expect_prefix "stream_fraction " (next ())) in
  (* Retired sort settings: any value an older build wrote is ignored. *)
  ignore (expect_prefix "sort_memory " (next ()));
  ignore (expect_prefix "sort_domains " (next ()));
  let count = int_of_string (expect_prefix "partitions " (next ())) in
  let descriptors =
    List.init count (fun _ ->
        let fields = String.split_on_char ' ' (expect_prefix "partition " (next ())) in
        match List.map int_of_string fields with
        | [ first_block; length; first_step; last_step; level ] ->
          {
            Hsq_hist.Level_index.first_block;
            length;
            first_step;
            last_step;
            level;
            quarantined = false;
          }
        | [ first_block; length; first_step; last_step; level; q ] ->
          {
            Hsq_hist.Level_index.first_block;
            length;
            first_step;
            last_step;
            level;
            quarantined = q = 1;
          }
        | _ -> raise (Corrupt_metadata "bad partition line"))
  in
  let config = Config.make ~kappa ~block_size ~steps_hint ~stream_fraction sizing in
  (config, descriptors)

(* Cheap consistency check on a restored partition: its summary entries
   (just re-read from disk) must be sorted — catching truncated or
   shuffled device files before they can serve wrong answers. *)
let verify_partition p =
  let entries = Hsq_hist.Partition_summary.entries (Hsq_hist.Partition.summary p) in
  let ok = ref true in
  for i = 1 to Array.length entries - 1 do
    if entries.(i).Hsq_hist.Partition_summary.value < entries.(i - 1).Hsq_hist.Partition_summary.value
    then ok := false
  done;
  if not !ok then
    raise
      (Corrupt_metadata
         (Printf.sprintf "partition at block %d is not sorted on disk"
            (Hsq_storage.Run.first_block (Hsq_hist.Partition.run p))))

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_sealed path = verify_checksum (read_lines path)

let read path =
  let lines = read_sealed path in
  try parse_lines lines with Failure msg -> raise (Corrupt_metadata msg)

let restore ~device config descriptors =
  let hist =
    (* Device_error here means a checkpointed partition's blocks are
       unreadable or fail their checksums — the warehouse itself is
       corrupt, not just the sidecar. *)
    try
      Hsq_hist.Level_index.restore ~kappa:config.Config.kappa ~beta1:(Config.beta1 config) device
        descriptors
    with
    | Invalid_argument msg -> raise (Corrupt_metadata msg)
    | Hsq_storage.Block_device.Device_error msg ->
      raise (Corrupt_metadata ("device corruption: " ^ msg))
  in
  (try List.iter verify_partition (Hsq_hist.Level_index.partitions hist)
   with Hsq_storage.Block_device.Device_error msg ->
     raise (Corrupt_metadata ("device corruption: " ^ msg)));
  hist
