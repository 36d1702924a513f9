(* The hsq benchmark: one workload per run.

     bench.exe --hsq PATH --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0) runs print the end-to-end metrics; traced runs
   (--trace 1) print the per-layer breakdown.  The last line of
   standard output is the result object.  A failed correctness check or
   a failed operation fails the whole run: it is named on standard
   error and the run exits 1.  See README.md in this directory for the
   workloads and metrics. *)

open Common

(* Set-ups per untraced run, each timed; the reported set-up time is
   their median.  The serve set-ups are short (about a second), so they
   run five times. *)
let serve_setups = 5
let disk_setups = 3

type args = {
  mutable hsq : string;
  mutable workload : string;
  mutable seed : int;
  mutable seconds : int;
  mutable trace : bool;
}

let parse_args () =
  let a = { hsq = ""; workload = ""; seed = 1; seconds = 10; trace = false } in
  Arg.parse
    [
      ("--hsq", Arg.String (fun s -> a.hsq <- s), "PATH the hsq binary");
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME serve-read | accurate-disk");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N input seed");
      ("--seconds", Arg.Int (fun n -> a.seconds <- n), "S timed-window length");
      ("--trace", Arg.Int (fun n -> a.trace <- n <> 0), "0|1 per-layer run");
    ]
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    "bench.exe --hsq PATH --workload NAME --seed N --seconds S --trace 0|1";
  if a.hsq = "" || a.workload = "" then begin
    prerr_endline "bench: --hsq and --workload are required";
    exit 2
  end;
  a

let lines ops = Array.map (fun op -> Hsq_serve.Json.to_string (Inputs.to_json op)) ops
let values ops n = Array.sub (Inputs.values_of ops) 0 n

(* Take [n] from each list, alternating, as one thread would see two
   connections' requests. *)
let interleave n lists =
  let out = ref [] in
  for i = n - 1 downto 0 do
    List.iter (fun a -> if i < Array.length a then out := a.(i) :: !out) (List.rev lists)
  done;
  Array.of_list !out

(* serve-read's per-layer figures of the daemon and the wire in front
   of it. *)
let daemon_layers (r : Serve.readings) (f : Layers.figures) ~lag_p99_ms =
  [
    metric "serve.wire_overhead_us" "us" (r.Serve.quick_rtt_us -. f.Layers.decode_us -. f.Layers.quick_us -. f.Layers.encode_us);
    metric "serve.queue_wait_p50_ms" "ms" r.Serve.queue_wait_p50_ms;
    metric "serve.queue_wait_p99_ms" "ms" r.Serve.queue_wait_p99_ms;
    metric "daemon.cpu_us_per_request" "us" (us r.Serve.cpu_s /. float_of_int r.Serve.window_requests);
    metric "daemon.cpu_util" "ratio" (r.Serve.cpu_s /. r.Serve.window_s);
    metric "process.gc_major_collections" "count" r.Serve.gc_major;
    metric "process.gc_heap_mb" "MB" r.Serve.gc_heap_mb;
    metric "bench.reader_lag_p99_ms" "ms" lag_p99_ms;
  ]

(* The run's set-up, printed on the line before the result. *)
let describe a =
  let shape, loop, wal =
    match a.workload with
    | "serve-read" ->
      ( Serve.read_shape,
        Printf.sprintf "closed loop, %d connections, 80/20 quick/accurate" Serve.read_conns,
        "always" )
    | _ -> (Disk.shape, "in-process closed loop, 1 caller, 200 us per block read", "group:1000")
  in
  Hsq_serve.Json.(
    to_string
      (Obj
         [
           ("workload", Str a.workload);
           ("seed", int a.seed);
           ("seconds", int a.seconds);
           ("trace", Bool a.trace);
           ("visible_cores", int (Domain.recommended_domain_count ()));
           ("loop", Str loop);
           ("dataset", Str shape.Inputs.dataset);
           ("preloaded_elements", int (Inputs.elements shape));
           ("wal_sync", Str wal);
         ]))

let run a =
  let seconds = a.seconds and seed = a.seed and hsq = a.hsq in
  match (a.workload, a.trace) with
  | "serve-read", false ->
    let o = Serve.serve_read ~hsq ~setups:serve_setups ~traced:false (Serve.plan ~seed ~seconds) in
    (o.Serve.attempted, o.Serve.failures, o.Serve.e2e)
  | "accurate-disk", false ->
    let o = Disk.accurate_disk ~setups:disk_setups (Disk.plan ~seed ~seconds) in
    (o.Disk.attempted, o.Disk.failures, o.Disk.e2e)
  | "serve-read", true ->
    let p = Serve.plan ~seed ~seconds in
    let o = Serve.serve_read ~hsq ~setups:1 ~traced:true p in
    let f =
      Layers.measure ~workload:"serve-read" ~read_latency:0.0 ~slow_from:max_int
        ~miss_values:(values p.Serve.preload 200)
        (lines (Array.append p.Serve.preload (interleave 2_500 p.Serve.timed)))
    in
    ( o.Serve.attempted,
      o.Serve.failures,
      f.Layers.metrics @ o.Serve.layers @ daemon_layers o.Serve.daemon f ~lag_p99_ms:o.Serve.lag_p99_ms )
  | "accurate-disk", true ->
    let p = Disk.plan ~seed ~seconds in
    let o = Disk.accurate_disk ~setups:1 p in
    let ops = Inputs.ingest_ops (Hsq_workload.Datasets.by_name ~seed Disk.shape.Inputs.dataset) Disk.shape in
    let queries = Array.sub p.Disk.timed 0 300 in
    let quick = Serve.quick_probe_of (Array.sub p.Disk.timed 0 1_000) |> Array.map (fun q -> Inputs.Query q) in
    let f =
      Layers.measure ~workload:"accurate-disk" ~wal_sync:Disk.wal_sync ~read_latency:Disk.read_latency_s
        ~slow_from:(Array.length ops) ~miss_values:(values ops 200)
        (lines (Array.concat [ ops; queries; quick ]))
    in
    (o.Disk.attempted, o.Disk.failures, f.Layers.metrics @ o.Disk.layers)
  | w, _ ->
    Printf.eprintf "bench: unknown workload %S\n" w;
    exit 2

let () =
  let a = parse_args () in
  (* A daemon that drops a connection must surface as an error reply,
     not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  fresh_dir work_dir;
  Sys.chdir work_dir;
  let finite (attempted, failures, metrics) =
    List.iter
      (fun m -> if not (Float.is_finite m.value) then fail "metric %s: not a finite number" m.name)
      metrics;
    (attempted, failures, metrics)
  in
  print_endline (describe a);
  match finite (run a) with
  | attempted, failures, metrics ->
    let failed = Failures.total failures in
    print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
    if failed > 0 then begin
      Printf.eprintf "check failed: %d of %d operations failed: %s\n%!" failed attempted
        (Failures.describe failures);
      exit 1
    end
  | exception e ->
    let what =
      match e with
      | Check_failed what -> what
      | Hsq_serve.Client.Protocol_error msg -> "protocol: " ^ msg
      | e -> "run aborted: " ^ Printexc.to_string e
    in
    Printf.eprintf "check failed: %s\n%!" what;
    print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
    exit 1
