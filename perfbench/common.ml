(* Shared pieces of the benchmark: the clock, order statistics, the
   correctness-check vocabulary, the work directory and the result
   line. *)

let now = Unix.gettimeofday

(* A failed correctness check.  The run fails as a whole and the
   message names the check. *)
exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Check_failed s)) fmt

(* Operations that failed, counted by what went wrong, so a run with
   failures can name them. *)
module Failures = struct
  type t = (string, int) Hashtbl.t

  let create () : t = Hashtbl.create 4
  let add t what = Hashtbl.replace t what (1 + Option.value ~default:0 (Hashtbl.find_opt t what))
  let total t = Hashtbl.fold (fun _ n acc -> acc + n) t 0

  let describe t =
    String.concat ", "
      (List.sort compare (Hashtbl.fold (fun what n acc -> Printf.sprintf "%d %s" n what :: acc) t []))
end

(* --- order statistics --------------------------------------------------- *)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* Nearest-rank percentile of an unsorted sample. *)
let percentile a q =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* A percentile is reported only with at least ten samples beyond it. *)
let tail what q a =
  let need = int_of_float (Float.round (10.0 /. (1.0 -. q))) in
  check (Array.length a >= need) "%s: %d samples, a p%g needs at least %d" what (Array.length a)
    (100.0 *. q) need;
  percentile a q

let ms s = 1000.0 *. s
let us s = 1_000_000.0 *. s

(* Growable sample buffer, one per recording thread. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let concat ts = Array.concat (List.map to_array ts)
end

(* --- files and processes ------------------------------------------------ *)

(* Scratch space inside the checkout; wiped at the start of a run. *)
let work_dir = ".perfbench_work"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.0)

(* User plus system CPU seconds of a process (USER_HZ = 100). *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* Fields 14 and 15 of stat(5); [after] starts at field 3. *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

(* The engine configuration `hsq serve --durable DIR` runs with by
   default (ε = 0.01, κ = 10, 256-element blocks, GK, --wal-sync
   always), for the stores the benchmark opens in-process. *)
let engine_config ?(wal_sync = Hsq_storage.Wal.Always) dir =
  Hsq.Config.make ~kappa:10 ~block_size:256 ~steps_hint:100 ~wal_dir:dir ~wal_sync
    ~checkpoint_every:10_000 (Hsq.Config.Epsilon 0.01)

(* --- the result line ---------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* The latencies of one request class: median and p90 end to end, and
   the p99 for the traced run.  On a shared 2-core VM the p99 of a
   sub-millisecond request follows hypervisor steal from run to run
   (interquartile spread 0.16-0.45 of the median over ten runs), so it
   is reported without a bound. *)
let latency cls a =
  ( [ metric (cls ^ "_p50_ms") "ms" (ms (median a)); metric (cls ^ "_p90_ms") "ms" (ms (tail cls 0.9 a)) ],
    metric ("tail." ^ cls ^ "_p99_ms") "ms" (ms (tail cls 0.99 a)) )

(* A workload's end-to-end list, and what its traced run adds: the
   p99s, and the set-up's ingest rate and observe latencies.  The
   set-up figures come from short CPU-bound phases whose medians jump
   between the host's fast and slow CPU states (interquartile spread up
   to 0.44 of the median over ten runs), so they carry no bound
   either. *)
let workload_metrics ~head ~classes ~rest ~setup:(ingest_rate, observe) =
  let e2e, tails = List.split (List.map (fun (cls, a) -> latency cls a) classes) in
  let _, observe_p99 = latency "observe" observe in
  ( head @ List.concat e2e @ rest,
    tails
    @ [
        metric "setup.ingest_elems_per_s" "1/s" ingest_rate;
        metric "setup.observe_p50_ms" "ms" (ms (median observe));
        metric "setup.observe_p90_ms" "ms" (ms (tail "observe" 0.9 observe));
        observe_p99;
      ] )

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; unit; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " m)
