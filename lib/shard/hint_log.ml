(* Hinted handoff: the durable per-peer buffer a shard keeps while one
   of its replicas is down.

   While replica j of a shard is dead, every op the shard acknowledges
   (observes and end-of-step cuts) is also appended to j's hint log —
   a regular {!Hsq_storage.Wal} at <shard_dir>/hint-<j>.wal, under the
   same sync policy as the main WALs, so the ack still implies the op
   will reach every replica eventually.  On rejoin the log is drained
   into the recovered replica before it re-enters the read set.

   Exactly-once drain without a per-record cursor: a replica applies
   ops in order and each op appends exactly one record to its own main
   WAL, so main-WAL sequence numbers advance in
   lockstep across replicas.  The sidecar base file records the
   replica's main-WAL [next_seq] at the moment hints began; hint record
   #n (0-based) therefore corresponds to main seq [base_seq + n], and
   the number of hints already applied — surviving any crash mid-drain
   — is just the replica's recovered [next_seq - base_seq].  A replica
   whose recovered seq is *below* the base lost acknowledged ops that
   predate the hints (possible under Group/Never sync); those are not
   in the log, so the drain reports divergence and the caller falls
   back to anti-entropy repair.

   The pair of files is the unit of validity: a missing or corrupt base
   invalidates the log (reopen returns None) and the rejoin path must
   repair from a sibling instead.  [mark_broken] exploits this — a
   failed hint append degrades the dead replica from "drainable" to
   "needs repair" by deleting the pair, never by acking an op the log
   does not hold. *)

module Wal = Hsq_storage.Wal

type t = {
  wal : Wal.t;
  path : string;
  base_path : string;
  base_seq : int; (* target replica's main-WAL next_seq when hints began *)
  peer : int;
}

let wal_path ~dir ~peer = Filename.concat dir (Printf.sprintf "hint-%d.wal" peer)
let base_path ~dir ~peer = Filename.concat dir (Printf.sprintf "hint-%d.base" peer)

let render_base ~peer ~base_seq =
  Hsq.Meta.seal (Printf.sprintf "hsq-hint 1\npeer %d\nbase_seq %d\n" peer base_seq)

let parse_base path ~peer =
  match Hsq.Meta.read_sealed path with
  | [ header; peer_line; base_line ] -> (
    if header <> "hsq-hint 1" then None
    else
      match
        ( String.split_on_char ' ' peer_line,
          String.split_on_char ' ' base_line )
      with
      | [ "peer"; p ], [ "base_seq"; b ] -> (
        match (int_of_string_opt p, int_of_string_opt b) with
        | Some p, Some base_seq when p = peer -> Some base_seq
        | _ -> None)
      | _ -> None)
  | _ | (exception _) -> None

let exists ~dir ~peer =
  Sys.file_exists (wal_path ~dir ~peer) && Sys.file_exists (base_path ~dir ~peer)

let start ~dir ~peer ~sync ~base_seq =
  let path = wal_path ~dir ~peer in
  let bpath = base_path ~dir ~peer in
  (* Base first: a crash between the two writes leaves a base without a
     log, which reopen reads as an empty (valid) hint set. *)
  Hsq.Meta.write ~path:bpath (render_base ~peer ~base_seq);
  let wal = Wal.create ~sync ~stats:(Hsq_storage.Io_stats.create ()) ~path ~start_seq:1 () in
  { wal; path; base_path = bpath; base_seq; peer }

let reopen ~dir ~peer ~sync =
  let path = wal_path ~dir ~peer in
  let bpath = base_path ~dir ~peer in
  if not (Sys.file_exists bpath) then None
  else
    match parse_base bpath ~peer with
    | None -> None
    | Some base_seq -> (
      match
        if Sys.file_exists path then
          let stats = Hsq_storage.Io_stats.create () in
          let wal, (), _ = Wal.open_existing ~sync ~stats ~path (fun () _ _ -> ()) () in
          wal
        else Wal.create ~sync ~stats:(Hsq_storage.Io_stats.create ()) ~path ~start_seq:1 ()
      with
      | wal -> Some { wal; path; base_path = bpath; base_seq; peer }
      | exception _ -> None)

let base_seq t = t.base_seq
let peer t = t.peer
let record_count t = Wal.next_seq t.wal - Wal.start_seq t.wal

(* Appends raise on failure, exactly like the main WAL; the caller
   converts that into [mark_broken]. *)
let observe_batch t vs = Wal.append_observes t.wal vs
let end_step t ~step ~count = ignore (Wal.append t.wal (Wal.End_step { step; count }))

(* Folds [f] over the buffered records in append order (flushing first,
   so the file is the complete truth). *)
let fold t f init =
  Wal.sync t.wal;
  let acc, _, _ = Wal.fold_path ~path:t.path (fun acc _ r -> f acc r) init in
  acc

let close t = try Wal.close t.wal with _ -> ()
let crash t = try Wal.crash t.wal with _ -> ()

let remove_files t =
  (try Sys.remove t.path with Sys_error _ -> ());
  (try Sys.remove t.base_path with Sys_error _ -> ());
  Hsq_storage.Atomic_file.fsync_dir (Filename.dirname t.path)

let discard t =
  close t;
  remove_files t

(* A hint append failed: the log no longer holds every acked op, so it
   must never be drained.  Deleting the base invalidates the pair for
   any future reopen; rejoin then repairs from a sibling. *)
let mark_broken t =
  crash t;
  remove_files t
