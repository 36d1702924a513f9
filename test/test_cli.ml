(* CLI-level exit-code contract, driven against the real hsq binary
   (path injected by dune through HSQ_BIN):

   - every store is named by --durable DIR: query, inspect, scrub and
     metrics exit 2 without it or on a missing DIR (which they do not
     create), and the removed --device/--meta/--save-meta and
     --checkpoint-every flags are rejected as unknown options;
   - scrub exits 0 on a clean store, 1 on a corrupt one, 2 on missing
     arguments — so cron jobs can alert on store damage;
   - status exits 0 on a healthy durable store, 1 on a damaged one,
     2 on a missing directory, and takes --durable DIR only;
   - a store records its shards and replicas: every reopening
     subcommand reads a sharded, replicated store with no topology
     flags, a lost shard store opens down (never recreated), a
     disagreeing --shards on a creating subcommand exits 2 and writes
     nothing, and an older store's layout is inferred and recorded;
   - metrics follows the same 0/1/2 convention and emits parseable
     JSON / Prometheus text, flat at one shard and per shard at two;
   - query --trace prints one round span per batch of partition reads,
     whose reads add up to the printed disk accesses;
   - query --heavy prints the same exact hits at one shard and at three;
   - simulate --verify prints pinned answers and bisection steps on the
     four datasets and on a replicated shard group;
   - inspect prints a store's windows and range boundaries, and every
     shard's partition layout on a sharded store;
   - every store-opening subcommand exits 2 on a store written with
     ingest lanes, while a commit marker or a checkpoint file an older
     build left in a single-log store still recovers. *)

let bin =
  match Sys.getenv_opt "HSQ_BIN" with
  | Some p -> p
  | None -> Alcotest.fail "HSQ_BIN not set (run through dune)"

let quote = Filename.quote

let run args =
  let cmd = Printf.sprintf "%s %s >/dev/null 2>&1" (quote bin) args in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "hsq killed by signal %d" s

(* Like [run] but keeping stdout (the metrics/trace tests parse it),
   and stderr too with [~stderr:true]. *)
let run_capture ?(stderr = false) args =
  let out = Filename.temp_file "hsq_cli_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s >%s %s" (quote bin) args (quote out)
      (if stderr then "2>&1" else "2>/dev/null")
  in
  let code =
    match Unix.system cmd with
    | Unix.WEXITED code -> code
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "hsq killed by signal %d" s
  in
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Occurrences of [needle] in [hay] (non-overlapping, for span counting). *)
let count_substring hay needle =
  let nn = String.length needle in
  let rec go i acc =
    if i + nn > String.length hay then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

(* The integers written right after every occurrence of [key] (a span
   attribute such as ["\"reads\":\""]), in order. *)
let ints_after hay key =
  let n = String.length hay and nk = String.length key in
  let rec digits j = if j < n && hay.[j] >= '0' && hay.[j] <= '9' then digits (j + 1) else j in
  let rec go i acc =
    if i + nk > n then List.rev acc
    else if String.sub hay i nk = key then
      let j = digits (i + nk) in
      go j (int_of_string (String.sub hay (i + nk) (j - i - nk)) :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* Total of the "disk accesses: N" counts on the answer lines. *)
let disk_accesses out = List.fold_left ( + ) 0 (ints_after out "disk accesses: ")

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "hsq_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* A small durable store for scrub, inspect and metrics to chew on:
   four archived steps of 800 and an open step of 400 (simulate leaves
   half a batch in the WAL). *)
let build_store dir =
  let store = Filename.concat dir "store" in
  Alcotest.(check int) "durable simulate exits 0" 0
    (run
       (Printf.sprintf "simulate --steps 4 --step-size 800 --block-size 32 --durable %s"
          (quote store)));
  store

let test_scrub_clean () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      Alcotest.(check int) "scrub on a clean store" 0 (run ("scrub --durable " ^ quote store)))

let test_scrub_corrupt_device () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      (* Flip a bit in the middle of the device file: block data or its
         checksum word — scrub must fail either way. *)
      let dev = Filename.concat store "device.blocks" in
      flip_byte dev ((Unix.stat dev).Unix.st_size / 2);
      Alcotest.(check int) "scrub on a corrupt device" 1 (run ("scrub --durable " ^ quote store)))

(* The shard's only store fails to open: the shard is down, and every
   read-only subcommand exits 1 (metrics: see "corrupt sidecar" there). *)
let test_scrub_corrupt_meta () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      flip_byte (Filename.concat store "meta") 3;
      List.iter
        (fun cmd ->
          Alcotest.(check int) (cmd ^ " on a corrupt sidecar") 1
            (run (Printf.sprintf "%s --durable %s" cmd (quote store))))
        [ "scrub"; "query"; "inspect" ])

let test_scrub_missing_args () =
  Alcotest.(check int) "scrub without --durable" 2 (run "scrub")

(* The read-only subcommands never create a store: a typo'd DIR exits 2
   at any K, and the path is still absent afterwards; a DIR that holds
   no store exits 1, and stays empty. *)
let test_missing_store_not_created () =
  with_temp_dir (fun dir ->
      List.iter
        (fun cmd ->
          Alcotest.(check int) (cmd ^ " on an empty directory") 1
            (run (Printf.sprintf "%s --durable %s" cmd (quote dir)));
          Alcotest.(check int) (cmd ^ " leaves it empty") 0 (Array.length (Sys.readdir dir)))
        [ "query"; "inspect"; "scrub"; "metrics"; "status" ];
      let nope = Filename.concat dir "nope" in
      List.iter
        (fun cmd ->
          List.iter
            (fun topo ->
              Alcotest.(check int)
                (Printf.sprintf "%s on a missing store%s" cmd topo)
                2
                (run (Printf.sprintf "%s --durable %s%s" cmd (quote nope) topo));
              Alcotest.(check bool)
                (Printf.sprintf "%s%s leaves the path absent" cmd topo)
                false (Sys.file_exists nope))
            [ "" ])
        [ "query"; "inspect"; "scrub"; "metrics" ])

(* The creating subcommands make the store directory, never its
   ancestors: a --durable DIR under a missing parent exits 2 with one
   line on stderr, and creates nothing. *)
let test_store_parent_missing () =
  with_temp_dir (fun dir ->
      let parent = Filename.concat dir "nodir" in
      let store = quote (Filename.concat parent "x") in
      List.iter
        (fun args ->
          let code, err = run_capture ~stderr:true (args ^ " </dev/null") in
          Alcotest.(check int) (args ^ " exits 2") 2 code;
          Alcotest.(check bool)
            (args ^ ": one-line message")
            true
            (contains err "cannot create store directory" && count_substring err "\n" = 1);
          Alcotest.(check bool) (args ^ " creates nothing") false (Sys.file_exists parent))
        [
          "simulate --steps 2 --step-size 100 --durable " ^ store;
          "stream --durable " ^ store;
          Printf.sprintf "serve --socket %s --durable %s" (quote (Filename.concat dir "s.sock")) store;
        ])

(* A repair scrub's quarantine is committed to the sidecar: a reopened
   store still excludes the damaged partition, and queries over it
   report the quarantine.  The store is big enough (625 blocks a
   partition) that the open's summary probes skip some blocks; one of
   the first few, flipped, is found only by the scrub. *)
let test_scrub_repair_persists () =
  with_temp_dir (fun dir ->
      let base = Filename.concat dir "base" in
      Alcotest.(check int) "simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 4 --step-size 20000 --block-size 32 --durable %s"
              (quote base)));
      let store = Filename.concat dir "store" in
      let copy () =
        if Sys.file_exists store then rm_rf store;
        ignore (Unix.system (Printf.sprintf "cp -r %s %s" (quote base) (quote store)))
      in
      (* 32 elements and a checksum word a block *)
      let quarantined_by_repair blk =
        copy ();
        flip_byte (Filename.concat store "device.blocks") ((blk * 33 * 8) + 40);
        let _, out = run_capture ("scrub --repair --durable " ^ quote store) in
        contains out "; 1 quarantined"
      in
      if not (List.exists quarantined_by_repair [ 1; 2; 3; 4; 5; 6; 7; 8 ]) then
        Alcotest.fail "no flipped block was left for the scrub to find";
      let code, out = run_capture ("scrub --durable " ^ quote store) in
      Alcotest.(check int) "reopened scrub skips the quarantined partition" 0 code;
      Alcotest.(check bool) "reopened store keeps the quarantine" true
        (contains out "1 partitions quarantined");
      let _, out = run_capture ("query -q 0.5 --durable " ^ quote store) in
      Alcotest.(check bool) "queries report it" true (contains out "DEGRADED(quarantined)"))

(* --device, --meta and --save-meta are gone, and so are --shards and
   --replicas on the subcommands that reopen a store (it records its
   own layout) and status's positional DIR: cmdliner rejects each as an
   unknown option or argument (exit 124) before anything runs. *)
let test_removed_flags_rejected () =
  with_temp_dir (fun dir ->
      let f = quote (Filename.concat dir "f") in
      List.iter
        (fun args ->
          Alcotest.(check int) (args ^ " is rejected") 124 (run (Printf.sprintf "%s %s" args f)))
        [
          "simulate --steps 1 --step-size 10 --device";
          "simulate --steps 1 --step-size 10 --save-meta";
          "stream --device";
          "query --device";
          "query --meta";
          "inspect --device";
          "inspect --meta";
          "scrub --device";
          "scrub --meta";
          "metrics --device";
          "metrics --meta";
          "simulate --steps 1 --step-size 10 --checkpoint-every";
          "stream --checkpoint-every";
          "serve --checkpoint-every";
          "query --shards 2 --durable";
          "query --replicas 2 --durable";
          "inspect --shards 2 --durable";
          "inspect --replicas 2 --durable";
          "scrub --shards 2 --durable";
          "scrub --replicas 2 --durable";
          "metrics --shards 2 --durable";
          "metrics --replicas 2 --durable";
          "status --shards 2 --durable";
          "status --replicas 2 --durable";
          "status";
        ];
      Alcotest.(check bool) "nothing written" false (Sys.file_exists (Filename.concat dir "f")))

let test_inspect () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      let code, out = run_capture ("inspect --durable " ^ quote store) in
      Alcotest.(check int) "inspect exits 0" 0 code;
      List.iter
        (fun line ->
          if not (contains out line) then Alcotest.failf "inspect output lacks %S:\n%s" line out)
        [
          "\npartition layout (newest first):\n";
          "answerable windows (steps): 1, 2, 3, 4\n";
          "aligned range boundaries: [1-1], [2-2], [3-3], [4-4]\n";
          "invariants: OK\n";
        ];
      Alcotest.(check int) "inspect without --durable" 2 (run "inspect"))

(* A two-shard store: inspect lays out both shards, labelled, and the
   metrics dump nests them under "shards". *)
let test_two_shards () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Alcotest.(check int) "sharded simulate exits 0" 0
        (run
           (Printf.sprintf
              "simulate --shards 2 --steps 4 --step-size 800 --block-size 32 --durable %s"
              (quote store)));
      let code, out =
        run_capture (Printf.sprintf "inspect --durable %s" (quote store))
      in
      Alcotest.(check int) "inspect exits 0" 0 code;
      List.iter
        (fun line ->
          if not (contains out line) then Alcotest.failf "inspect output lacks %S:\n%s" line out)
        [
          "\nshard 0: partition layout (newest first):\n";
          "\nshard 1: partition layout (newest first):\n";
          "answerable windows (steps): 1, 2, 3, 4\n";
          "shard 0: invariants: OK\n";
          "shard 1: invariants: OK\n";
        ];
      let code, out =
        run_capture (Printf.sprintf "metrics --durable %s --format json" (quote store))
      in
      Alcotest.(check int) "metrics exits 0" 0 code;
      Alcotest.(check bool) "per-shard sections" true (contains out "\"shards\":{\"0\":");
      Alcotest.(check bool) "both shards" true (contains out ",\"1\":{"))

let test_status_healthy_and_damaged () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      let code =
        run
          (Printf.sprintf "simulate --steps 3 --step-size 600 --block-size 32 --durable %s"
             (quote store))
      in
      Alcotest.(check int) "durable simulate exits 0" 0 code;
      Alcotest.(check int) "status on a healthy store" 0 (run ("status --durable " ^ quote store));
      (* Deleting the device file under a committed sidecar is damage
         recovery cannot paper over. *)
      Sys.remove (Filename.concat store "device.blocks");
      Alcotest.(check int) "status on a damaged store" 1 (run ("status --durable " ^ quote store));
      Array.iter (fun f -> Sys.remove (Filename.concat store f)) (Sys.readdir store);
      Sys.rmdir store)

let test_status_missing_dir () =
  List.iter
    (fun topo ->
      Alcotest.(check int)
        (Printf.sprintf "status on a missing directory%s" topo)
        2
        (run ("status --durable /nonexistent/hsq-store" ^ topo)))
    [ "" ];
  (* A root that exists but holds no shard stores is damage, not usage. *)
  with_temp_dir (fun dir ->
      Alcotest.(check int) "status on a root missing its shard stores" 1
        (run (Printf.sprintf "status --durable %s" (quote dir))))

(* Replicated health contract: a damaged replica whose sibling is
   intact keeps every answer at full precision, so status exits 0 with
   a warning; only a shard with NO intact replica exits 1.  scrub
   --repair converges the damaged replica back from its sibling. *)
let test_status_replicated_contract () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      let topo = Printf.sprintf "--durable %s" (quote store) in
      Alcotest.(check int) "replicated simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 3 --step-size 600 --block-size 32 --shards 2 --replicas 2 %s" topo));
      Alcotest.(check int) "status on a healthy replicated store" 0
        (run (Printf.sprintf "status --durable %s --health" (quote store)));
      (* One replica store dies; its sibling keeps full precision:
         degraded-but-full-precision exits 0 and says WARNING. *)
      rm_rf (Filename.concat store "shard-0/replica-1");
      let code, out =
        run_capture (Printf.sprintf "status --durable %s" (quote store))
      in
      Alcotest.(check int) "one dead replica still exits 0" 0 code;
      Alcotest.(check bool) "and is flagged as a warning" true (contains out "WARNING");
      Alcotest.(check bool) "replica matrix shows the damage" true (contains out "r1=BAD");
      (* scrub --repair rebuilds it from the healthy sibling. *)
      Alcotest.(check int) "scrub --repair converges the replica" 0
        (run (Printf.sprintf "scrub --repair %s" topo));
      let code, out =
        run_capture (Printf.sprintf "status --durable %s" (quote store))
      in
      Alcotest.(check int) "repaired store exits 0" 0 code;
      Alcotest.(check bool) "warning gone after repair" false (contains out "WARNING");
      (* Losing EVERY replica of a shard degrades answers: exit 1. *)
      rm_rf (Filename.concat store "shard-0");
      Alcotest.(check int) "whole replica set lost exits 1" 1
        (run (Printf.sprintf "status --durable %s" (quote store)));
      rm_rf store)

(* --- the store records its layout ------------------------------------- *)

(* Every file under [root] with its bytes, sorted by path. *)
let rec snapshot root =
  List.concat_map
    (fun name ->
      let p = Filename.concat root name in
      if Sys.is_directory p then snapshot p
      else [ (p, In_channel.with_open_bin p In_channel.input_all) ])
    (List.sort compare (Array.to_list (Sys.readdir root)))

(* A three-shard store of 22,500 elements (four steps of 5000 and an
   open step of 2500) loses shard 2's directory: status exits 1, query
   answers DEGRADED(shard_down) and exits 1 without recreating the
   shard, and status still exits 1. *)
let test_lost_shard_store () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "st3" in
      Alcotest.(check int) "sharded simulate exits 0" 0
        (run (Printf.sprintf "simulate --shards 3 --steps 4 --step-size 5000 --durable %s" (quote store)));
      let lost = Filename.concat store "shard-2" in
      rm_rf lost;
      Alcotest.(check int) "status on the lost shard" 1 (run ("status --durable " ^ quote store));
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query exits 1" 1 code;
      Alcotest.(check bool) "the answer is degraded" true (contains out "[DEGRADED(shard_down)");
      Alcotest.(check bool) "the footprint names the down shard" true (contains out "(DOWN: 2)");
      Alcotest.(check bool) "shard 2 not recreated" false (Sys.file_exists lost);
      Alcotest.(check int) "status still exits 1" 1 (run ("status --durable " ^ quote store)))

(* A three-shard, two-replica store is read at its own layout by every
   reopening subcommand, with no topology flags: the query answers as
   they did when the flags were required, and each subcommand sees all
   six replica stores. *)
let test_reopen_reads_layout () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "st" in
      Alcotest.(check int) "replicated simulate exits 0" 0
        (run
           (Printf.sprintf
              "simulate --shards 3 --replicas 2 --steps 4 --step-size 2000 --block-size 32 \
               --durable %s"
              (quote store)));
      let q = quote store in
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5,0.99" q) in
      Alcotest.(check int) "query exits 0" 0 code;
      List.iter
        (fun line ->
          if not (contains out line) then Alcotest.failf "query output lacks %S:\n%s" line out)
        [
          "N=9000 (historical 8000 + stream 1000), 4 time steps, 3 shards x 2 replicas, 12 \
           partitions over 1 levels\n";
          "phi=0.5    value=100310898 ";
          "phi=0.99   value=123145623 ";
        ];
      List.iter
        (fun (args, lines) ->
          let code, out = run_capture (Printf.sprintf "%s --durable %s" args q) in
          Alcotest.(check int) (args ^ " exits 0") 0 code;
          List.iter
            (fun line ->
              if not (contains out line) then Alcotest.failf "%s output lacks %S:\n%s" args line out)
            lines)
        [
          ( "inspect",
            [ "\nshard 2 replica 0: partition layout (newest first):\n"; "shard 2 replica 0: invariants: OK\n" ]
          );
          ("scrub", [ "anti-entropy [shard 2]: 2 replicas consistent\n"; "scrub: OK\n" ]);
          ( "metrics --format json",
            [ "\"shards\":{\"0\":{\"down\":false,\"replicas\":{\"0\":"; ",\"2\":{\"down\":false," ] );
          ("status", [ "status: 6/6 stores OK, 3/3 shards with an intact replica\n" ]);
        ])

(* The creating subcommands keep --shards/--replicas for a new store; on
   an existing one a value that disagrees with its layout exits 2 and
   writes nothing, while an agreeing one is accepted. *)
let test_conflicting_layout_refused () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "st3" in
      Alcotest.(check int) "sharded simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --shards 3 --steps 2 --step-size 600 --block-size 32 --durable %s"
              (quote store)));
      let flat = build_store dir in
      let before = snapshot dir in
      let sock = quote (Filename.concat dir "s.sock") in
      (* A serve that took the store would never exit: the timeout
         turns that into a failure instead of a hang. *)
      let run_bounded args =
        match
          Unix.system (Printf.sprintf "timeout 20 %s %s </dev/null >/dev/null 2>&1" (quote bin) args)
        with
        | Unix.WEXITED code -> code
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Alcotest.failf "hsq killed by signal %d" s
      in
      List.iter
        (fun args -> Alcotest.(check int) (args ^ " exits 2") 2 (run_bounded args))
        [
          Printf.sprintf "simulate --shards 2 --steps 1 --step-size 100 --durable %s" (quote store);
          Printf.sprintf "simulate --replicas 2 --steps 1 --step-size 100 --durable %s" (quote store);
          Printf.sprintf "stream --shards 2 --durable %s" (quote store);
          Printf.sprintf "simulate --shards 3 --steps 1 --step-size 100 --durable %s" (quote flat);
          Printf.sprintf "serve --socket %s --shards 2 --durable %s" sock (quote store);
        ];
      Alcotest.(check bool) "every store file unchanged" true (snapshot dir = before);
      Alcotest.(check int) "an agreeing --shards is accepted" 0
        (run
           (Printf.sprintf "simulate --shards 3 --steps 1 --step-size 300 --block-size 32 --durable %s"
              (quote store))))

(* A root an older build created has no layout file: status infers the
   layout from the shard directories and writes nothing, and the next
   recovering open records it again. *)
let test_layout_inferred_then_recorded () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "st3" in
      Alcotest.(check int) "sharded simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --shards 3 --steps 2 --step-size 600 --block-size 32 --durable %s"
              (quote store)));
      let layout = Filename.concat store "layout" in
      let recorded = In_channel.with_open_bin layout In_channel.input_all in
      Sys.remove layout;
      let code, out = run_capture ("status --durable " ^ quote store) in
      Alcotest.(check int) "status exits 0" 0 code;
      Alcotest.(check bool) "status reads three shards" true (contains out "status: 3/3 stores OK");
      Alcotest.(check bool) "status writes nothing" false (Sys.file_exists layout);
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query exits 0" 0 code;
      Alcotest.(check bool) "query reads three shards" true (contains out ", 3 shards, ");
      Alcotest.(check bool) "the open records the layout" true (Sys.file_exists layout);
      Alcotest.(check string) "as it was written" recorded
        (In_channel.with_open_bin layout In_channel.input_all))

(* The answer lines of a query's stdout. *)
let phi_lines out =
  List.filter
    (fun l -> String.length l > 4 && String.sub l 0 4 = "phi=")
    (String.split_on_char '\n' out)

(* A one-shard durable store with no open step: 4000 integers archived
   as four full steps, so the WAL holds no stream elements. *)
let build_durable_store dir =
  let store = Filename.concat dir "store" in
  let input = Filename.concat dir "input.txt" in
  let oc = open_out input in
  for i = 1 to 4000 do
    Printf.fprintf oc "%d\n" ((i * 7919) mod 100_003)
  done;
  close_out oc;
  Alcotest.(check int) "durable stream exits 0" 0
    (run
       (Printf.sprintf "stream --step-every 1000 --block-size 32 --durable %s < %s" (quote store)
          (quote input)));
  store

(* At one shard, --durable DIR reaches the store a durable run left. *)
let test_query_durable_one_shard () =
  with_temp_dir (fun dir ->
      let store = build_durable_store dir in
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.1,0.5,0.99" (quote store)) in
      Alcotest.(check int) "query --durable exits 0" 0 code;
      Alcotest.(check int) "three answers" 3 (List.length (phi_lines out));
      rm_rf store;
      (* A store with an open step (simulate leaves half a batch in the
         WAL) answers over history and stream. *)
      Alcotest.(check int) "durable simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 4 --step-size 800 --block-size 32 --durable %s"
              (quote store)));
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query --durable after simulate exits 0" 0 code;
      Alcotest.(check bool) "open step counted" true (contains out "+ stream 400)");
      Alcotest.(check int) "one answer" 1 (List.length (phi_lines out));
      rm_rf store)

(* Answer identity of the accurate path: [simulate --verify] over the
   four datasets, and over a 3-shard, 2-replica group, prints these
   (phi, value, bisection steps).  Disk accesses are left out on
   purpose: a probe-path change may cut them, but never move an answer
   or a step.  Only a change of the candidate rule moves these. *)
let simulate_answers =
  [
    ("-d normal", [ ("0.5", 99987879, 1); ("0.95", 116467811, 1); ("0.99", 123309579, 1) ]);
    ("-d uniform", [ ("0.5", 552193589, 7); ("0.95", 955668935, 1); ("0.99", 991223227, 1) ]);
    ("-d wikipedia", [ ("0.5", 6310, 6); ("0.95", 105578, 5); ("0.99", 658613, 7) ]);
    ("-d network", [ ("0.5", 340021, 10); ("0.95", 8418893, 4); ("0.99", 14468201, 1) ]);
    ( "-d network --shards 3 --replicas 2",
      [ ("0.5", 340022, 5); ("0.95", 8427096, 1); ("0.99", 14469652, 7) ] );
  ]

let test_simulate_answers_golden () =
  List.iter
    (fun (args, want) ->
      let code, out =
        run_capture (Printf.sprintf "simulate --steps 12 --step-size 10000 --verify %s" args)
      in
      Alcotest.(check int) (args ^ ": simulate exits 0") 0 code;
      let got =
        List.filter_map
          (fun line ->
            try
              Scanf.sscanf line "phi=%s value=%d (disk accesses: %_d, bisection steps: %d)"
                (fun phi v steps -> Some (phi, v, steps))
            with Scanf.Scan_failure _ | End_of_file -> None)
          (String.split_on_char '\n' out)
      in
      Alcotest.(check (list (triple string int int)))
        (args ^ ": (phi, value, bisection steps)")
        want got)
    simulate_answers

(* query --heavy answers from history at every K: a stepped store where
   every seventh of 30000 values is 42 (4285 of them) prints the same
   exact hit at one shard and at three. An open step is refused. *)
let test_query_heavy_every_k () =
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "input.txt" in
      let oc = open_out input in
      for i = 1 to 30_000 do
        Printf.fprintf oc "%d\n" (if i mod 7 = 0 then 42 else i)
      done;
      close_out oc;
      List.iter
        (fun shards ->
          let store = Filename.concat dir (Printf.sprintf "store-%d" shards) in
          Alcotest.(check int) "durable stream exits 0" 0
            (run
               (Printf.sprintf "stream --step-every 10000 --shards %d --durable %s < %s" shards
                  (quote store) (quote input)));
          let code, out =
            run_capture ~stderr:true
              (Printf.sprintf "query --durable %s --heavy 0.01" (quote store))
          in
          Alcotest.(check int) (Printf.sprintf "query --heavy at K=%d exits 0" shards) 0 code;
          Alcotest.(check bool)
            (Printf.sprintf "42 is the hit at K=%d" shards)
            true
            (contains out "\n  42           count in [4285, 4285]\n");
          rm_rf store)
        [ 1; 3 ];
      let store = Filename.concat dir "open" in
      Alcotest.(check int) "durable simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 4 --step-size 800 --block-size 32 --durable %s"
              (quote store)));
      let code, out =
        run_capture ~stderr:true (Printf.sprintf "query --durable %s --heavy 0.01" (quote store))
      in
      Alcotest.(check int) "query --heavy on an open step exits 0" 0 code;
      Alcotest.(check bool) "open step refused" true
        (contains out "warning: --heavy ignored on a store with an open step");
      rm_rf store)

let test_metrics_missing_args () =
  Alcotest.(check int) "metrics without --durable" 2 (run "metrics")

let test_metrics_corrupt_meta () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      (* The shard's only store fails to open: the shard is down, and
         metrics exits 1 as query does. *)
      flip_byte (Filename.concat store "meta") 3;
      Alcotest.(check int) "metrics on a corrupt sidecar" 1
        (run ("metrics --durable " ^ quote store)))

let test_metrics_json () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      let code, out = run_capture (Printf.sprintf "metrics --durable %s --format json" (quote store)) in
      Alcotest.(check int) "metrics exits 0" 0 code;
      let body = String.trim out in
      Alcotest.(check bool) "one JSON object" true
        (String.length body > 2 && body.[0] = '{' && body.[String.length body - 1] = '}');
      Alcotest.(check bool) "I/O counters exported" true (contains body "\"hsq_io_reads_total\":");
      (* The default --quantiles were exercised before the dump, so the
         query-path metrics carry observations. *)
      Alcotest.(check bool) "query counter exported" true
        (contains body "\"hsq_query_accurate_total\":3");
      Alcotest.(check bool) "latency histogram exported" true
        (contains body "\"hsq_query_accurate_seconds\":{\"count\":3"))

let test_metrics_prometheus () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      let code, out = run_capture ("metrics --durable " ^ quote store) in
      Alcotest.(check int) "metrics exits 0" 0 code;
      Alcotest.(check bool) "TYPE comment lines" true
        (contains out "# TYPE hsq_io_reads_total counter");
      Alcotest.(check bool) "histogram exposition" true
        (contains out "hsq_query_accurate_seconds_bucket{le=\"+Inf\"} 3");
      Alcotest.(check bool) "histogram count line" true
        (contains out "hsq_query_accurate_seconds_count 3");
      (* --no-exercise leaves the query path untouched. *)
      let _, cold =
        run_capture (Printf.sprintf "metrics --durable %s --no-exercise" (quote store))
      in
      Alcotest.(check bool) "no-exercise leaves query counters at 0" true
        (contains cold "hsq_query_accurate_total 0"))

let test_query_trace_spans () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      (* build_store archives 4 steps with kappa's default of 10: four
         level-0 partitions, no merge. Each probe round reads one block
         for each of up to four partition searches. *)
      let code, out =
        run_capture
          (Printf.sprintf "query --durable %s -q 0.5 --trace" (quote store))
      in
      Alcotest.(check int) "query --trace exits 0" 0 code;
      Alcotest.(check bool) "trace header printed" true (contains out "trace:");
      Alcotest.(check bool) "accurate root span" true
        (contains out "\"name\":\"query.accurate\"");
      Alcotest.(check bool) "bisection child spans" true (contains out "\"name\":\"bisect\"");
      let probes = ints_after out "\"probes\":\"" in
      Alcotest.(check int) "probes and reads on every round"
        (count_substring out "\"name\":\"round\"") (List.length probes);
      Alcotest.(check bool) "a query that reads has rounds" true
        (probes <> [] || disk_accesses out = 0);
      Alcotest.(check bool) "a round serves 1..4 partitions" true
        (List.for_all (fun p -> p >= 1 && p <= 4) probes);
      Alcotest.(check int) "round reads sum to the disk accesses" (disk_accesses out)
        (List.fold_left ( + ) 0 (ints_after out "\"reads\":\""));
      (* Without the flag no trace block is printed. *)
      let _, plain =
        run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store))
      in
      Alcotest.(check bool) "no trace without --trace" false (contains plain "trace:"))

(* The same span tree through a two-shard group: one root per answer,
   and each round batches the partition reads of both shards. *)
let test_query_trace_sharded () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Alcotest.(check int) "sharded simulate exits 0" 0
        (run
           (Printf.sprintf
              "simulate --shards 2 --steps 4 --step-size 800 --block-size 32 --durable %s"
              (quote store)));
      let code, out =
        run_capture
          (Printf.sprintf "query --durable %s -q 0.5,0.9 --trace" (quote store))
      in
      Alcotest.(check int) "query --trace exits 0" 0 code;
      Alcotest.(check bool) "trace header printed" true (contains out "trace:");
      Alcotest.(check int) "one accurate root per answer" 2
        (count_substring out "\"name\":\"query.accurate\"");
      let iters = count_substring out "\"name\":\"bisect\"" in
      Alcotest.(check bool) "bisection child spans" true (iters > 0);
      (* Live partitions, summed over both shards by the footprint line. *)
      let partitions =
        let line = List.find (fun l -> contains l "partitions over") (String.split_on_char '\n' out) in
        let words = String.split_on_char ' ' line in
        let rec before = function
          | n :: "partitions" :: _ -> int_of_string n
          | _ :: rest -> before rest
          | [] -> Alcotest.fail "no partition count"
        in
        before words
      in
      Alcotest.(check bool) "both shards hold partitions" true (partitions > 4);
      let probes = ints_after out "\"probes\":\"" in
      Alcotest.(check bool) "a round serves 1..partitions searches" true
        (List.for_all (fun p -> p >= 1 && p <= partitions) probes);
      Alcotest.(check int) "round reads sum to the disk accesses" (disk_accesses out)
        (List.fold_left ( + ) 0 (ints_after out "\"reads\":\""));
      rm_rf store)

(* --- stores written with ingest lanes ------------------------------------ *)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Every subcommand that opens a store refuses one holding a lane log
   (wal-<d>.log) with exit 2, naming the file. *)
let test_lane_store_exit_2 () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      write_file (Filename.concat store "wal-2.log") "";
      let q = quote store in
      List.iter
        (fun (what, args) -> Alcotest.(check int) (what ^ " exits 2") 2 (run args))
        [
          ("simulate", Printf.sprintf "simulate --steps 1 --step-size 100 --durable %s" q);
          ("stream", Printf.sprintf "stream --durable %s < /dev/null" q);
          ("query", Printf.sprintf "query --durable %s -q 0.5" q);
          ("scrub", Printf.sprintf "scrub --durable %s" q);
          ("status", Printf.sprintf "status --durable %s" q);
          ( "serve",
            Printf.sprintf "serve --socket %s --durable %s"
              (quote (Filename.concat dir "hsq.sock"))
              q );
        ];
      let cmd = Printf.sprintf "%s query --durable %s -q 0.5 2>&1 >/dev/null" (quote bin) q in
      let ic = Unix.open_process_in cmd in
      let err = In_channel.input_all ic in
      ignore (Unix.close_process_in ic);
      Alcotest.(check bool) "error names the lane log" true (contains err "wal-2.log");
      rm_rf store)

(* A version-2 (lane-cut) checkpoint reads as absent: the open step is
   replayed in full from the WAL. *)
let test_v2_checkpoint_replays () =
  with_temp_dir (fun dir ->
      let store = build_store dir in
      let body =
        "hsq-ckpt 2\nseq 400\nsteps_done 4\nlanes_len 1\nlanes 0\nbatch_len 1\nbatch 5\ngk_len 1\ngk 0\n"
      in
      write_file (Filename.concat store "checkpoint")
        (Printf.sprintf "%schecksum %x\n" body (Hsq.Meta.checksum body));
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query exits 0" 0 code;
      Alcotest.(check bool) "open step replayed" true (contains out "+ stream 400)");
      rm_rf store)

(* A checkpoint file left by an older build that took sketch
   checkpoints, here one whose image is tagged 2 (the KLL sketch of
   still older builds), is refused: status reports nothing from it, and
   the next open deletes it unread and replays the whole WAL. *)
let test_status_tag2_checkpoint () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Alcotest.(check int) "durable simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 4 --step-size 800 --block-size 32 --durable %s"
              (quote store)));
      let path = Filename.concat store "checkpoint" in
      let body = "hsq-ckpt 3\nseq 400\nsteps_done 3\ngk_len 6\ngk 2 0 0 0 0 0\n" in
      write_file path (Printf.sprintf "%schecksum %x\n" body (Hsq.Meta.checksum body));
      let code, out = run_capture ("status --durable " ^ quote store) in
      Alcotest.(check int) "status exits 0" 0 code;
      Alcotest.(check bool) "no coverage claimed" false (contains out "checkpoint");
      let code, err = run_capture ~stderr:true (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query exits 0" 0 code;
      Alcotest.(check bool) "whole WAL replayed" true (contains err "replayed 400 WAL records");
      Alcotest.(check bool) "checkpoint not resumed" false (contains err "sketch checkpoint");
      Alcotest.(check bool) "checkpoint deleted" false (Sys.file_exists path))

(* status names its store with --durable DIR like every subcommand (the
   positional DIR is gone: see "removed flags rejected"); naming none is
   a usage error. *)
let test_status_durable_flag () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Alcotest.(check int) "durable simulate exits 0" 0
        (run
           (Printf.sprintf "simulate --steps 2 --step-size 600 --block-size 32 --durable %s"
              (quote store)));
      let code, flag = run_capture ("status --durable " ^ quote store) in
      Alcotest.(check int) "status --durable exits 0" 0 code;
      Alcotest.(check bool) "reports the store" true (contains flag "status: OK");
      Alcotest.(check int) "no store" 2 (run "status");
      Alcotest.(check int) "missing store" 2 (run "status --durable /nonexistent/hsq-store"))

(* The lane commit marker (WAL record kind 3) replays as End_step. *)
let test_lane_marker_replays () =
  with_temp_dir (fun dir ->
      let store = Filename.concat dir "store" in
      Sys.mkdir store 0o755;
      (* The on-file format of wal.ml: 8-byte big-endian words, a
         [magic; start_seq; checksum] header, then per record
         [len; seq; kind; payload...; checksum]. *)
      let mix h v =
        let h = (h lxor v) * 0x2545F4914F6CDD1D in
        h lxor (h lsr 29)
      in
      let checksum = List.fold_left mix 0x106689D45497FDB5 in
      let magic = 0x48535157414C3031 in
      let buf = Buffer.create 1024 in
      let words = List.iter (fun w -> Buffer.add_int64_be buf (Int64.of_int w)) in
      words [ magic; 1; checksum [ magic; 1 ] ];
      let records =
        List.init 30 (fun i -> (1, [ i * 7 ])) @ [ (3, [ 1; 30; 2; 0; 0 ]) ]
        @ List.init 12 (fun i -> (1, [ i * 11 ]))
      in
      List.iteri
        (fun i (kind, payload) ->
          let body = (i + 1) :: kind :: payload in
          let prefix = (List.length body + 1) :: body in
          words (prefix @ [ checksum prefix ]))
        records;
      write_file (Filename.concat store "wal.log") (Buffer.contents buf);
      let code, out = run_capture (Printf.sprintf "query --durable %s -q 0.5" (quote store)) in
      Alcotest.(check int) "query exits 0" 0 code;
      Alcotest.(check bool) "one step archived, twelve open" true
        (contains out "(historical 30 + stream 12)");
      rm_rf store)

let () =
  Alcotest.run "cli"
    [
      ( "scrub exit codes",
        [
          Alcotest.test_case "clean store" `Quick test_scrub_clean;
          Alcotest.test_case "corrupt device" `Quick test_scrub_corrupt_device;
          Alcotest.test_case "corrupt sidecar" `Quick test_scrub_corrupt_meta;
          Alcotest.test_case "missing args" `Quick test_scrub_missing_args;
        ] );
      ( "query",
        [
          Alcotest.test_case "one-shard durable store" `Quick test_query_durable_one_shard;
          Alcotest.test_case "--heavy at every K" `Quick test_query_heavy_every_k;
        ] );
      ( "store handle",
        [
          Alcotest.test_case "missing store not created" `Quick test_missing_store_not_created;
          Alcotest.test_case "store under a missing parent" `Quick test_store_parent_missing;
          Alcotest.test_case "repair quarantine survives a reopen" `Quick
            test_scrub_repair_persists;
          Alcotest.test_case "removed flags rejected" `Quick test_removed_flags_rejected;
          Alcotest.test_case "two shards: inspect and metrics" `Quick test_two_shards;
        ] );
      ( "layout",
        [
          Alcotest.test_case "lost shard store opens down" `Quick test_lost_shard_store;
          Alcotest.test_case "reopen reads the layout" `Quick test_reopen_reads_layout;
          Alcotest.test_case "conflicting layout refused" `Quick test_conflicting_layout_refused;
          Alcotest.test_case "layout inferred, then recorded" `Quick
            test_layout_inferred_then_recorded;
        ] );
      ("inspect", [ Alcotest.test_case "durable store" `Quick test_inspect ]);
      ( "simulate",
        [ Alcotest.test_case "answers and steps golden" `Quick test_simulate_answers_golden ] );
      ( "status exit codes",
        [
          Alcotest.test_case "healthy vs damaged" `Quick test_status_healthy_and_damaged;
          Alcotest.test_case "missing directory" `Quick test_status_missing_dir;
          Alcotest.test_case "replicated: warning vs degraded" `Quick
            test_status_replicated_contract;
          Alcotest.test_case "status refuses a tag-2 checkpoint" `Quick
            test_status_tag2_checkpoint;
          Alcotest.test_case "status --durable DIR" `Quick test_status_durable_flag;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "missing args" `Quick test_metrics_missing_args;
          Alcotest.test_case "corrupt sidecar" `Quick test_metrics_corrupt_meta;
          Alcotest.test_case "json export" `Quick test_metrics_json;
          Alcotest.test_case "prometheus export" `Quick test_metrics_prometheus;
        ] );
      ( "trace",
        [
          Alcotest.test_case "query --trace span tree" `Quick test_query_trace_spans;
          Alcotest.test_case "query --trace on a sharded store" `Quick test_query_trace_sharded;
        ] );
      ( "lane stores",
        [
          Alcotest.test_case "every subcommand exits 2" `Quick test_lane_store_exit_2;
          Alcotest.test_case "v2 checkpoint replays the WAL" `Quick test_v2_checkpoint_replays;
          Alcotest.test_case "lane marker replays as End_step" `Quick test_lane_marker_replays;
        ] );
    ]
