(* Append-only write-ahead log for the ingest path.

   The paper's stream side R — the open time step's batch and the GK
   sketch — is volatile; this log makes it durable.  Every [observe] is
   appended as a checksummed, sequence-numbered, length-prefixed record
   before it touches in-memory state, and a time-step rollover appends
   an [End_step] commit marker.  The log is rotated only at a step end,
   so it is the one durable copy of the open step's elements: recovery
   (Engine.open_or_recover) replays all of it through the ingest
   buffer, which leaves the sketch as the live engine had it.

   Durability model.  Appends accumulate in an in-process buffer and
   reach the file only on a physical flush ("sync"); a crash loses the
   buffered tail, exactly like a power cut loses data that was written
   but never fsynced.  An append call carries one record ({!append}) or
   a run of [Observe] records ({!append_observes}: one wire request's
   values), and the sync policy is applied once per call.  The policy
   picks the trade:
     - [Always]   flushed once per append call, before its ack — zero
                  acknowledged-record loss (request-scoped group commit);
     - [Group n]  flush once [n] records are pending (group commit) —
                  loss bounded by the group window;
     - [Never]    flush only at commit markers and rotation — loss
                  bounded by one open time step.
   Commit markers are always followed by an explicit {!sync} from the
   engine, whatever the policy: a commit is a flush.

   On-file format (8-byte big-endian words through [Word], the block
   device's codec too):
     header   := magic | start_seq | checksum(magic, start_seq)
     record   := len | seq | kind | payload... | checksum
   where [len] counts the words after it (seq + kind + payload +
   checksum), [seq] increments by exactly 1 from [start_seq], and the
   checksum is the same SplitMix-style mix the device uses, over every
   preceding word of the record.  Kinds: 1 = Observe (payload: value),
   2 = End_step (payload: step number, element count).  Kind 3, the
   commit marker of the removed multi-lane ingest (payload: step number,
   element count, cut count, cuts), is never written but still decodes,
   as an [End_step] without its cuts.

   The reader floors a torn tail: it stops at the first short, corrupt
   (a word whose bit 63 differs from bit 62 counts as corrupt),
   mis-lengthed, or out-of-sequence record and reports why, and
   {!open_existing} physically truncates the tear (temp file + rename,
   the same atomic idiom as the sidecar) so later appends never follow
   garbage.  A structured fault injector mirrors the block device's
   ([Fail] / [Torn k] / [Corrupt i]) so the crash-recovery fuzz harness
   can kill the writer at any append. *)

module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace

type sync_policy = Always | Group of int | Never

type record =
  | Observe of int
  | End_step of { step : int; count : int }

type tail = Clean | Torn of string

type t = {
  path : string;
  stats : Io_stats.t;
  sync_policy : sync_policy;
  mutable channel : Out_channel.t;
  mutable start_seq : int;
  mutable next_seq : int;
  mutable pending : Bytes.t; (* [pending_len] bytes appended, not yet flushed *)
  mutable pending_len : int;
  mutable pending_count : int;
  mutable fault : (int -> Block_device.fault_action option) option;
  mutable tear_at : int option; (* byte offset of un-healed torn garbage *)
  one : int array; (* the payload of a one-record run *)
  words : int array; (* a record's words before its checksum, as encoded *)
  append_hist : Metrics.Histogram.t;
  sync_hist : Metrics.Histogram.t;
}

(* Latency histograms live in the same registry as the WAL counters.
   An append call is buffer writes (tens of ns a record), so its
   latency is sampled: a call is timed when the sequence numbers it
   appends include a multiple of 32 (1-in-32 single appends, every run
   of 32 or more records).  Syncs are physical flushes (µs and up, rare)
   and always timed. *)
let append_sample_shift = 5

let wal_metrics stats =
  let r = Io_stats.registry stats in
  ( Metrics.histogram ~help:"WAL append call latency (sampled 1-in-32 by sequence number)" r
      "hsq_wal_append_seconds",
    Metrics.histogram ~help:"WAL physical flush latency" r "hsq_wal_sync_seconds" )

let magic = 0x48535157414C3031 (* "HSQWAL01" *)
let max_record_words = 64

(* The device's block checksum mixer and seed. *)
let checksum_words ws = Array.fold_left Word.mix Word.checksum_seed ws

let path t = t.path
let start_seq t = t.start_seq
let next_seq t = t.next_seq
let pending_records t = t.pending_count
let set_injector t fault = t.fault <- fault

let sync_policy_to_string = function
  | Always -> "always"
  | Group n -> Printf.sprintf "group:%d" n
  | Never -> "never"

(* --- encoding ---------------------------------------------------------- *)

let add_word = Word.add

let header_bytes ~start_seq =
  let b = Buffer.create 24 in
  List.iter (add_word b) [ magic; start_seq; checksum_words [| magic; start_seq |] ];
  Buffer.contents b

(* Record kinds as written. *)
let kind_observe = 1
let kind_end_step = 2

(* Words in a record of [kind], length word and checksum included. *)
let record_words kind = if kind = kind_observe then 5 else 6

(* The one record encoder: appends [len | seq | kind | payload |
   checksum] to the pending buffer — the payload is [x] for an observe
   and [x, y] (step, count) for an end-step marker — staging the words
   in [t.words], so nothing is allocated.  The fault injector's two
   write shapes are arguments: only the first [keep] words land (a torn
   write), and word [flip] lands with its low bit flipped (latent
   corruption, the checksum still covering the true word). *)
let encode t ~keep ~flip ~seq ~kind x y =
  let words = record_words kind in
  let off = t.pending_len in
  if off + (8 * words) > Bytes.length t.pending then begin
    let bigger = Bytes.create (max (off + (8 * words)) (2 * Bytes.length t.pending)) in
    Bytes.blit t.pending 0 bigger 0 off;
    t.pending <- bigger
  end;
  let w = t.words and body = words - 1 in
  w.(0) <- body;
  w.(1) <- seq;
  w.(2) <- kind;
  w.(3) <- x;
  w.(4) <- y;
  let h =
    Word.write_sealed t.pending ~off w ~upto:(Int.min keep body) ~flip ~seed:Word.checksum_seed
  in
  (* A torn record stops short of its checksum. *)
  if keep > body then Word.set t.pending (off + (8 * body)) (if flip = body then h lxor 1 else h);
  t.pending_len <- off + (8 * Int.min keep words)

(* --- writing ----------------------------------------------------------- *)

(* A torn append leaves physical garbage at the end of the file.  If the
   writer survives (transient fault, no crash), later flushed records
   must not land *after* that garbage: the recovery reader floors the
   log at the first bad record, so everything past the tear — including
   acknowledged, synced appends — would be silently lost.  The tear is
   therefore healed lazily: the next physical flush first truncates the
   file back to the tear position.  Healing lazily (rather than in the
   torn append itself) preserves crash fidelity — a crash *before* the
   next flush still leaves the torn tail on disk for recovery to floor,
   exactly like a real power cut mid-write. *)
let heal_tear t =
  match t.tear_at with
  | None -> ()
  | Some pos ->
    (* The channel is in append mode, so after the truncation writes
       continue at the new end of file — no seek needed. *)
    Unix.ftruncate (Unix.descr_of_out_channel t.channel) pos;
    t.tear_at <- None

let flush_pending t =
  if t.pending_count > 0 || t.pending_len > 0 then begin
    heal_tear t;
    let flush () =
      let t0 = Metrics.now_s () in
      (* Straight from the buffer: a request's run is kilobytes, and a
         copy that size would be a major-heap allocation per flush. *)
      Out_channel.output t.channel t.pending 0 t.pending_len;
      Out_channel.flush t.channel;
      Metrics.Histogram.observe t.sync_hist (Metrics.now_s () -. t0);
      t.pending_len <- 0;
      t.pending_count <- 0;
      Io_stats.note_wal_sync t.stats
    in
    match Io_stats.tracer t.stats with
    | Some tr -> Trace.with_span tr "wal.sync" (fun _ -> flush ())
    | None -> flush ()
  end

let sync t = flush_pending t

exception Partial of int * exn

(* Append a run of [n] records of [kind], record j carrying payload
   [vs.(j)] (and [y], for an end-step marker), with the sync policy
   applied once, at the end of the run — under [Always] that is one
   flush before the call returns.  The injector is consulted per
   record.  A fault at record j stops the run there: records
   [0 .. j-1] are accepted (and flushed under [Always]), j and the rest
   are not, and [Partial (j, e)] reports it.  Each record is encoded
   straight into the pending buffer, so a run allocates nothing per
   record.

   Transactional per record: the state is exactly "records [0 .. j-1]
   appended" — [next_seq] advanced by j, nothing of record j buffered.
   Without that, a failed append would leave the sequence number past
   the last durable record: a caller that retried would double-append
   under a new sequence number, and one that gave up would leave a gap
   for recovery's sequence check to floor at.  A policy flush that
   raises rolls the whole run back ([Partial (0, e)]), dropping its
   still-buffered bytes; bytes a completed flush wrote are durable and
   stay. *)
let append_run t ~kind vs n y =
  let first = t.next_seq in
  let saved_len = t.pending_len in
  let saved_count = t.pending_count in
  let j = ref 0 in
  let stop =
    try
      while !j < n do
        let seq = first + !j in
        let action = match t.fault with None -> None | Some f -> f seq in
        (match action with
        | None -> encode t ~keep:max_int ~flip:(-1) ~seq ~kind vs.(!j) y
        | Some (Block_device.Corrupt i) ->
          encode t ~keep:max_int ~flip:(i mod record_words kind) ~seq ~kind vs.(!j) y
        | Some Block_device.Fail ->
          raise
            (Block_device.Device_error (Printf.sprintf "injected WAL append fault at seq %d" seq))
        | Some (Block_device.Torn k) ->
          (* A crash mid-append: whatever was buffered — the run's
             accepted prefix included — reaches the file, then only the
             first [k] words of this record do.  The tear's byte offset
             is remembered so a surviving writer's next flush can
             truncate the garbage away (see [heal_tear]). *)
          let words = record_words kind in
          let keep = max 0 (min (words - 1) k) in
          flush_pending t;
          let tear_pos = Int64.to_int (Out_channel.pos t.channel) in
          encode t ~keep ~flip:(-1) ~seq ~kind vs.(!j) y;
          Out_channel.output t.channel t.pending 0 t.pending_len;
          t.pending_len <- 0;
          Out_channel.flush t.channel;
          if t.tear_at = None then t.tear_at <- Some tear_pos;
          raise
            (Block_device.Device_error
               (Printf.sprintf "torn WAL append at seq %d (%d of %d words)" seq keep words)));
        t.pending_count <- t.pending_count + 1;
        incr j
      done;
      None
    with e -> Some e
  in
  t.next_seq <- first + !j;
  if !j > 0 then Io_stats.note_wal_appends t.stats !j;
  (match
     match t.sync_policy with
     | Always -> flush_pending t
     | Group g -> if t.pending_count >= Int.max 1 g then flush_pending t
     | Never -> ()
   with
  | () -> ()
  | exception e ->
    t.next_seq <- first;
    if t.pending_len > saved_len then begin
      t.pending_len <- saved_len;
      t.pending_count <- saved_count
    end;
    raise (Partial (0, e)));
  match stop with None -> () | Some e -> raise (Partial (!j, e))

(* A run is timed when the sequence numbers it appends include a
   multiple of 32. *)
let sampled_run t ~kind vs n y =
  let first = t.next_seq in
  if n > 0 && (first - 1) asr append_sample_shift <> (first + n - 1) asr append_sample_shift
  then begin
    let t0 = Metrics.now_s () in
    append_run t ~kind vs n y;
    Metrics.Histogram.observe t.append_hist (Metrics.now_s () -. t0)
  end
  else append_run t ~kind vs n y

let timed_run t ~kind vs n y =
  match Io_stats.tracer t.stats with
  | Some tr -> Trace.with_span tr "wal.append" (fun _ -> sampled_run t ~kind vs n y)
  | None -> sampled_run t ~kind vs n y

let append_observes t vs = timed_run t ~kind:kind_observe vs (Array.length vs) 0

(* One record is a run of one, its payload staged in [t.one]. *)
let append_one t ~kind x y =
  t.one.(0) <- x;
  match timed_run t ~kind t.one 1 y with
  | () -> t.next_seq - 1
  | exception Partial (_, e) -> raise e

let append_observe t v = ignore (append_one t ~kind:kind_observe v 0)

let append t = function
  | Observe v -> append_one t ~kind:kind_observe v 0
  | End_step { step; count } -> append_one t ~kind:kind_end_step step count

let create ?(sync = Always) ~stats ~path ~start_seq () =
  (* Append mode, like [rotate] and [open_existing]: [heal_tear]'s
     truncation relies on writes landing at the (possibly moved) end of
     file, not at the channel's remembered offset. *)
  let channel =
    Out_channel.open_gen [ Open_binary; Open_creat; Open_trunc; Open_append; Open_wronly ] 0o644
      path
  in
  Out_channel.output_string channel (header_bytes ~start_seq);
  Out_channel.flush channel;
  let append_hist, sync_hist = wal_metrics stats in
  {
    path;
    stats;
    sync_policy = sync;
    channel;
    start_seq;
    next_seq = start_seq;
    pending = Bytes.create 4096;
    pending_len = 0;
    pending_count = 0;
    fault = None;
    tear_at = None;
    one = [| 0 |];
    words = Array.make 5 0;
    append_hist;
    sync_hist;
  }

(* Atomic truncation: the records below [next_seq] are durable elsewhere
   (the warehouse commit that triggers rotation), so a fresh log whose
   header names the next sequence number replaces the old one by rename —
   a crash leaves either the full old log (replay deduplicates by step
   number) or the new empty one. *)
let rotate t =
  let tmp = t.path ^ ".tmp" in
  let oc = Out_channel.open_gen [ Open_binary; Open_creat; Open_trunc; Open_wronly ] 0o644 tmp in
  Out_channel.output_string oc (header_bytes ~start_seq:t.next_seq);
  Out_channel.flush oc;
  Out_channel.close oc;
  Out_channel.close t.channel;
  (* Rename + directory fsync: a power cut after rotation must not roll
     the directory entry back to the old (pre-truncation) log — its
     records are only durable in the warehouse commit now, and replaying
     them would race the sidecar the commit also renamed. *)
  Atomic_file.commit ~tmp t.path;
  t.channel <- Out_channel.open_gen [ Open_binary; Open_append; Open_wronly ] 0o644 t.path;
  t.start_seq <- t.next_seq;
  t.pending_len <- 0;
  t.pending_count <- 0;
  (* The rename replaced the whole file, tear included. *)
  t.tear_at <- None

let close t =
  flush_pending t;
  Out_channel.close t.channel

(* Simulated power cut for the crash harness: unflushed records vanish
   (they never reached the "platter") and the handle is released, so a
   fuzz loop of thousands of crashes leaks no file descriptors. *)
let crash t =
  t.pending_len <- 0;
  t.pending_count <- 0;
  Out_channel.close t.channel

(* --- reading ----------------------------------------------------------- *)

(* The reader decodes every word through [Word] from one reused buffer,
   refilled whenever a record crosses its end; a record is at most
   [max_record_words + 1] words, far below its size. *)
type reader = { ic : In_channel.t; buf : Bytes.t; mutable pos : int; mutable lim : int }

(* Whether [n] bytes past the cursor are buffered, reading more if not;
   false when the file ends first. *)
let available r n =
  r.lim - r.pos >= n
  ||
  let have = r.lim - r.pos in
  Bytes.blit r.buf r.pos r.buf 0 have;
  r.pos <- 0;
  r.lim <- have;
  let rec more () =
    r.lim >= n
    ||
    match In_channel.input r.ic r.buf r.lim (Bytes.length r.buf - r.lim) with
    | 0 -> false
    | k ->
      r.lim <- r.lim + k;
      more ()
  in
  more ()

(* Word [i] past the cursor. *)
let word r i = Word.get r.buf (r.pos + (8 * i))

(* The record at the cursor, [len] words after its length word, all
   buffered: [Error why] if its checksum or kind is wrong, else its
   sequence number and decoded record.  A word no writer produced fails
   like a checksum. *)
let decode r len =
  match
    let h = ref Word.checksum_seed in
    for i = 0 to len - 1 do
      h := Word.mix !h (word r i)
    done;
    word r len = !h
  with
  | false | (exception Word.Invalid) -> Error "record checksum mismatch"
  | true -> (
    let kind = word r 2 in
    let end_step () = Ok (word r 1, End_step { step = word r 3; count = word r 4 }) in
    match kind with
    | 1 when len = 4 -> Ok (word r 1, Observe (word r 3))
    | 2 when len = 5 -> end_step ()
    | 3 when len >= 6 && word r 5 >= 0 && len = 6 + word r 5 -> end_step ()
    | _ -> Error (Printf.sprintf "unknown record kind %d" kind))

(* Folds [f] over the valid records in order; returns the fold, the
   header's start_seq, the next sequence number, the tail status, and
   the byte length of the valid prefix (header included).  A trailing
   partial word reads as the end of the file.  Nothing but the buffer is
   held, whatever the log's length. *)
let read_channel ic f init =
  let r = { ic; buf = Bytes.create 65536; pos = 0; lim = 0 } in
  let header =
    if not (available r 24) then Error "short header"
    else
      match (word r 0, word r 1, word r 2) with
      | m, s, c when m = magic && c = checksum_words [| m; s |] -> Ok s
      | _ | (exception Word.Invalid) -> Error "bad header magic or checksum"
  in
  match header with
  | Error e -> (init, 1, 1, Torn e, 0)
  | Ok start_seq ->
    r.pos <- 24;
    let valid_bytes = ref 24 in
    let rec go expected acc =
      let finish tail = (acc, start_seq, expected, tail, !valid_bytes) in
      if not (available r 8) then finish Clean
      else
        match word r 0 with
        | exception Word.Invalid -> finish (Torn "record checksum mismatch")
        | len when len < 3 || len > max_record_words ->
          finish (Torn (Printf.sprintf "bad record length %d" len))
        | len when not (available r (8 * (len + 1))) -> finish (Torn "truncated record")
        | len -> (
          match decode r len with
          | Error why -> finish (Torn why)
          | Ok (seq, _) when seq <> expected ->
            finish
              (Torn (Printf.sprintf "sequence discontinuity (found %d, expected %d)" seq expected))
          | Ok (seq, record) ->
            r.pos <- r.pos + (8 * (len + 1));
            valid_bytes := !valid_bytes + (8 * (len + 1));
            go (expected + 1) (f acc seq record))
    in
    go start_seq init

let fold_file ~path f init =
  if not (Sys.file_exists path) then (init, 1, 1, Torn "no such file", 0)
  else begin
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic f init)
  end

let fold_path ~path f init =
  let acc, start_seq, _, tail, _ = fold_file ~path f init in
  (acc, start_seq, tail)

(* Reopen an existing log for appending.  A torn tail is physically
   truncated away first — the valid prefix is rewritten to a temp file
   and renamed into place — so the tear can never shadow later appends. *)
let open_existing ?(sync = Always) ~stats ~path f init =
  let acc, start_seq, next_seq, tail, valid_bytes = fold_file ~path f init in
  (match tail with
  | Clean -> ()
  | Torn _ ->
    let prefix =
      if valid_bytes = 0 then header_bytes ~start_seq
      else begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic valid_bytes)
      end
    in
    let tmp = path ^ ".tmp" in
    let oc = Out_channel.open_gen [ Open_binary; Open_creat; Open_trunc; Open_wronly ] 0o644 tmp in
    Out_channel.output_string oc prefix;
    Out_channel.flush oc;
    Out_channel.close oc;
    (* Same durability rule as [rotate]: the truncation commit is only
       real once the parent directory is fsynced. *)
    Atomic_file.commit ~tmp path);
  let channel = Out_channel.open_gen [ Open_binary; Open_append; Open_wronly ] 0o644 path in
  let append_hist, sync_hist = wal_metrics stats in
  let t =
    {
      path;
      stats;
      sync_policy = sync;
      channel;
      start_seq;
      next_seq;
      pending = Bytes.create 4096;
      pending_len = 0;
      pending_count = 0;
      fault = None;
      tear_at = None;
      one = [| 0 |];
      words = Array.make 5 0;
      append_hist;
      sync_hist;
    }
  in
  (t, acc, tail)
