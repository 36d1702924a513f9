(* Crash-atomic file replacement with real durability.

   The tmp-write + rename idiom used by the metadata sidecar and WAL
   truncation is atomic against *process* crashes,
   but not against power cuts: POSIX only promises the rename itself is
   durable once the parent DIRECTORY has been fsynced.  Without that, a
   power cut can roll the directory entry back to the old file even
   though the new file's data blocks hit the platter — recovery then
   reads a stale sidecar over a newer device, which the torn-write fuzz
   can never produce (it only truncates forward).

   [commit] is the fixed idiom: fsync the tmp file's data, rename it
   over the destination, then fsync the parent directory.  All
   rename-commit sites in the tree go through it.

   The power-cut simulator makes the missing-dir-fsync bug testable: when
   armed, every rename records the destination's prior contents, a
   directory fsync marks the renames under that directory durable, and
   [power_cut] rolls every still-undurable rename back — exactly the
   reordering a real power loss can expose.  Disarmed (the default),
   the bookkeeping is a single bool check. *)

type pending = {
  dest : string; (* the renamed-over destination path *)
  prior : string option; (* its contents before the rename; None = did not exist *)
}

let sim_armed = ref false
let sim_pending : pending list ref = ref []
let sim_lock = Mutex.create ()

let with_sim f =
  Mutex.lock sim_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sim_lock) f

let read_file_opt path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
  else None

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let fsync_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | fd -> Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()

(* Directory fsync: the only way to make a rename durable.  Some
   filesystems refuse O_RDONLY fsync on directories; a refusal is
   treated as "nothing to do" rather than an error (matching how
   fsync-unaware code behaved before this module existed). *)
let fsync_dir dir =
  (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ());
  if !sim_armed then
    with_sim (fun () ->
        sim_pending := List.filter (fun p -> Filename.dirname p.dest <> dir) !sim_pending)

let record_rename dest =
  if !sim_armed then
    with_sim (fun () ->
        (* Only the oldest pre-state per destination matters: losing a
           chain of un-fsynced renames rolls back to before the first. *)
        if not (List.exists (fun p -> p.dest = dest) !sim_pending) then
          sim_pending := { dest; prior = read_file_opt dest } :: !sim_pending)

(* Rename WITHOUT the directory fsync — the buggy idiom this module
   replaces.  Kept (and exercised by the regression tests) so the
   simulator provably drops exactly these renames. *)
let rename_unsynced ~tmp dest =
  record_rename dest;
  Sys.rename tmp dest

let commit ~tmp dest =
  fsync_file tmp;
  record_rename dest;
  Sys.rename tmp dest;
  fsync_dir (Filename.dirname dest)

let set_crash_sim on =
  with_sim (fun () ->
      sim_armed := on;
      if not on then sim_pending := [])

let power_cut () =
  with_sim (fun () ->
      List.iter
        (fun p ->
          match p.prior with
          | Some contents -> write_file p.dest contents
          | None -> ( try Sys.remove p.dest with Sys_error _ -> ()))
        !sim_pending;
      sim_pending := [])

let pending_renames () = with_sim (fun () -> List.length !sim_pending)
