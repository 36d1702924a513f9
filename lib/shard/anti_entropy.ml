(* Anti-entropy primitives: per-replica state digests and the file-level
   copy a repair uses to converge a diverged replica onto a sibling.

   Replicas of a shard apply identical op sequences, and the warehouse
   is deterministic in that sequence (the merge cascade), so healthy
   siblings hold bit-identical historical state and the same open-step
   elements.  The stream sketch is not hashed: the ingest buffer hands
   off only at 512 pending elements and at step ends, and reads work on
   a copy, so the sketch is a function of the open step's values in
   arrival order, which replicas apply alike.  An acked op a replica
   lost or gained therefore changes the open step's multiset, and
   hashing it in sorted order sees that whatever hand-offs or reads ran
   on either side.  That makes cheap structural digests a sound divergence
   detector, and file-level copy a sound repair: the healthy sibling's
   store files fully describe its state, and opening a byte-identical
   copy recovers the same elements.

   A digest is (element count, archived steps, per-level partition
   checksums, open-step checksum): the historical side is hashed from
   the partition descriptors (level, block placement, step range,
   length, quarantine bit — the same lines the sidecar persists), and
   the stream side from the open step's elements in sorted order, read
   from the engine's in-memory spool (Engine.open_step).  Any acked op
   a replica lost or gained moves at least one component. *)

module E = Hsq.Engine
module Li = Hsq_hist.Level_index

type digest = {
  elements : int;
  steps : int;
  hist_hash : int; (* all partition descriptors *)
  levels : (int * int) list; (* (level, checksum over that level's descriptors) *)
  sketch_hash : int; (* checksum of the open step's sorted elements *)
}

let descriptor_line (d : Li.partition_descriptor) =
  Printf.sprintf "%d %d %d %d %d %d\n" d.level d.first_block d.length d.first_step d.last_step
    (if d.quarantined then 1 else 0)

let digest e =
  let descriptors = Li.describe (E.hist e) in
  let by_level = Hashtbl.create 8 in
  List.iter
    (fun (d : Li.partition_descriptor) ->
      let prev = try Hashtbl.find by_level d.level with Not_found -> "" in
      Hashtbl.replace by_level d.level (prev ^ descriptor_line d))
    descriptors;
  let levels =
    Hashtbl.fold (fun level body acc -> (level, Hsq.Meta.checksum body) :: acc) by_level []
    |> List.sort compare
  in
  let hist_hash = Hsq.Meta.checksum (String.concat "" (List.map descriptor_line descriptors)) in
  let open_step = Array.to_list (Array.map string_of_int (E.open_step e)) in
  let sketch_hash = Hsq.Meta.checksum (String.concat " " open_step) in
  { elements = E.total_size e; steps = E.time_steps e; hist_hash; levels; sketch_hash }

let equal (a : digest) (b : digest) = a = b

let to_string d =
  Printf.sprintf "elements=%d steps=%d hist=%x sketch=%x%s" d.elements d.steps d.hist_hash
    d.sketch_hash
    (String.concat ""
       (List.map (fun (l, c) -> Printf.sprintf " L%d=%x" l c) d.levels))

(* --- file-level repair --------------------------------------------------- *)

let is_store_file name =
  (not (Filename.check_suffix name ".tmp"))
  && not (String.length name >= 5 && String.sub name 0 5 = "hint-")

let copy_file src dst =
  let ic = open_in_bin src in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let oc = open_out_bin dst in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let buf = Bytes.create 65536 in
          let rec loop () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              output oc buf 0 n;
              loop ()
            end
          in
          loop ()));
  Hsq_storage.Atomic_file.fsync_file dst

(* Replace [dst]'s store files with byte-identical copies of [src]'s.
   Both engines must be closed/crashed (no open handles); the caller
   reopens [dst] afterwards.  Stale [dst] files are removed first so a
   leftover cannot shadow the copied state. *)
let copy_store ~src ~dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let p = Filename.concat dst name in
      if is_store_file name && not (Sys.is_directory p) then Sys.remove p)
    (Sys.readdir dst);
  Array.iter
    (fun name ->
      let p = Filename.concat src name in
      if is_store_file name && not (Sys.is_directory p) then
        copy_file p (Filename.concat dst name))
    (Sys.readdir src);
  Hsq_storage.Atomic_file.fsync_dir dst
