(* Request-scoped group commit.

   An observe request reaches each replica's WAL as one append call
   (Wal.append_observes), flushed once under [Always].  These tests pin
   what the batching must keep:
   - the bytes: a log written in runs is byte-identical to one written
     record by record;
   - the ack rule under faults: a Fail or Torn at any record of a batch
     acknowledges exactly the durable prefix, at K in {1, 3} and R in
     {1, 2}; recovery keeps every acked value and nothing past what was
     sent, and a replica that failed its sub-batch rejoins through a
     hint log holding exactly the records its own log lacks, so no
     record is replayed twice. *)

module E = Hsq.Engine
module G = Hsq_shard.Shard_group
module W = Hsq_storage.Wal

(* Every valid record of a log with its sequence number, in order. *)
let read_path ~path =
  let rev, start_seq, tail = W.fold_path ~path (fun acc seq r -> (seq, r) :: acc) [] in
  (List.rev rev, start_seq, tail)
module BD = Hsq_storage.Block_device

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "hsq_gc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let fresh_wal dir name =
  W.create ~stats:(Hsq_storage.Io_stats.create ()) ~path:(Filename.concat dir name) ~start_seq:1 ()

let observes path =
  let records, _, _ = read_path ~path in
  List.length (List.filter (function _, W.Observe _ -> true | _ -> false) records)

(* --- format ------------------------------------------------------------ *)

let values =
  Array.init 300 (function 0 -> min_int | 1 -> max_int | i -> (i * 7919) - 1_000_000)

let test_runs_match_records () =
  with_temp_dir (fun dir ->
      let runs = fresh_wal dir "runs.wal" and single = fresh_wal dir "single.wal" in
      W.append_observes runs (Array.sub values 0 1);
      W.append_observes runs (Array.sub values 1 199);
      ignore (W.append runs (W.End_step { step = 1; count = 200 }));
      W.append_observes runs [||];
      W.append_observes runs (Array.sub values 200 100);
      Array.iteri
        (fun i v ->
          ignore (W.append single (W.Observe v));
          if i = 199 then ignore (W.append single (W.End_step { step = 1; count = 200 })))
        values;
      W.close runs;
      W.close single;
      let path = Filename.concat dir in
      Alcotest.(check bool) "runs and single records write the same bytes" true
        (read_file (path "runs.wal") = read_file (path "single.wal"));
      let records, _, tail = read_path ~path:(path "runs.wal") in
      Alcotest.(check int) "every record reads back" 301 (List.length records);
      Alcotest.(check bool) "clean tail" true (tail = W.Clean))

(* The same at the engine: one observe_batch and per-element observes
   leave byte-identical logs. *)
let test_engine_batch_matches_observe () =
  with_temp_dir (fun dir ->
      let open_store name =
        fst
          (E.open_or_recover
             (Hsq.Config.make ~wal_dir:(Filename.concat dir name) (Hsq.Config.Epsilon 0.05)))
      in
      let a = open_store "a" and b = open_store "b" in
      E.observe_batch a values;
      Array.iter (E.observe b) values;
      Alcotest.(check int) "same size" (E.total_size b) (E.total_size a);
      E.close a;
      E.close b;
      Alcotest.(check bool) "same log bytes" true
        (read_file (Filename.concat dir "a/wal.log")
        = read_file (Filename.concat dir "b/wal.log")))

(* A run stopped at record 3: exactly the first three are on file and
   acknowledged; a later run lands contiguously after them (a torn
   tail is healed first). *)
let test_run_fault_prefix fault () =
  with_temp_dir (fun dir ->
      let wal = fresh_wal dir "w.wal" in
      let path = Filename.concat dir "w.wal" in
      W.set_injector wal (Some (fun seq -> if seq = 4 then Some fault else None));
      (match W.append_observes wal [| 10; 11; 12; 13; 14; 15 |] with
      | () -> Alcotest.fail "expected Partial"
      | exception W.Partial (j, BD.Device_error _) ->
        Alcotest.(check int) "stopped at record 3" 3 j);
      Alcotest.(check int) "next_seq past the prefix" 4 (W.next_seq wal);
      Alcotest.(check int) "prefix on file" 3 (observes path);
      W.set_injector wal None;
      W.append_observes wal [| 13; 14 |];
      let records, _, tail = read_path ~path in
      Alcotest.(check (list int)) "contiguous after the fault" [ 1; 2; 3; 4; 5 ]
        (List.map fst records);
      Alcotest.(check bool) "clean tail" true (tail = W.Clean);
      W.close wal)

(* --- fault sweep --------------------------------------------------------- *)

type victims = One | All (* the first replica of the shard, or every one *)

let preload = Array.init 30 (fun i -> 100 + (i * 37))
let request = Array.init 8 (fun i -> 50_000 + (i * 7919))
let more = Array.init 6 (fun i -> 90_000 + (i * 131))

let config ~k ~r root =
  Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:k ~replicas:r ~wal_dir:root
    ~wal_sync:W.Always ~checkpoint_every:0 (Hsq.Config.Epsilon 0.05)

let count p a = Array.fold_left (fun n v -> if p v then n + 1 else n) 0 a

let counti p a =
  let n = ref 0 in
  Array.iteri (fun j v -> if p j v then incr n) a;
  !n

let run_case ~k ~r ~fault ~victims ~p () =
  with_temp_dir (fun root ->
      let cfg = config ~k ~r root in
      let g, _ = G.open_or_recover cfg in
      let on i v = G.route g v = i in
      G.observe_batch g preload;
      let s = G.route g request.(p) in
      let q = counti (fun j v -> j < p && on s v) request in
      let victims = match victims with One -> [ 0 ] | All -> List.init r Fun.id in
      List.iter
        (fun j ->
          let e = Option.get (G.replica_engine g ~shard:s ~replica:j) in
          let at = (Option.get (E.durability_status e)).E.wal_next_seq + q in
          E.set_wal_injector e (Some (fun seq -> if seq = at then Some fault else None)))
        victims;
      let n = Array.length request in
      let applied =
        match G.observe_batch g request with () -> n | exception W.Partial (a, _) -> a
      in
      let every_replica = List.length victims = r in
      Alcotest.(check int) "applied is the durable prefix" (if every_replica then p else n) applied;
      (* What each shard must hold: a shard applied before [s] takes
         all its values, [s] and those after it only values before the
         fault — unless a sibling acked the whole request. *)
      let sent i =
        counti (fun j v -> on i v && ((not every_replica) || i < s || j < p)) request
      in
      let own i = count (on i) preload + sent i in
      for i = 0 to k - 1 do
        Alcotest.(check int) (Printf.sprintf "shard %d counts what it holds" i) (own i)
          (G.shard_elements g i)
      done;
      (* Each victim's own log holds the shard's elements before the
         fault, torn tail floored. *)
      List.iter
        (fun j ->
          let dir = G.store_dir ~root ~shards:k ~replicas:r ~shard:s ~replica:j in
          let wal = Filename.concat dir "wal.log" in
          Alcotest.(check int) "victim's log stops at the fault" (count (on s) preload + q)
            (observes wal))
        victims;
      (* With a live sibling the victim is down; later traffic is
         hinted to it too. *)
      let more_sent = r > 1 && not every_replica in
      if more_sent then G.observe_batch g more;
      let later i = if more_sent then count (on i) more else 0 in
      if more_sent then
        Alcotest.(check (option int)) "hints = what the victim's log lacks"
          (Some (sent s - q + later s))
          (G.hints_pending g ~shard:s ~replica:0);
      if r > 1 then begin
        List.iter
          (fun j ->
            match G.rejoin_replica g ~shard:s ~replica:j with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "rejoin of replica %d failed: %s" j msg)
          victims;
        for j = 0 to r - 1 do
          let e = Option.get (G.replica_engine g ~shard:s ~replica:j) in
          Alcotest.(check int) "every record once on each replica" (own s + later s)
            (E.total_size e)
        done;
        List.iter
          (fun (er : G.entropy_report) ->
            Alcotest.(check int) "both replicas digested" r (List.length er.G.digests);
            if er.G.flagged <> [] then
              Alcotest.failf "shard %d diverged after rejoin" er.G.entropy_shard)
          (G.anti_entropy g)
      end;
      G.crash g;
      let g, _ = G.open_or_recover cfg in
      for i = 0 to k - 1 do
        Alcotest.(check int)
          (Printf.sprintf "shard %d recovers what it was sent" i)
          (own i + later i) (G.shard_elements g i)
      done;
      let recovered =
        G.total_size g - Array.length preload - if more_sent then Array.length more else 0
      in
      if recovered < applied || recovered > n then
        Alcotest.failf "recovered %d of the request: acked %d, sent %d" recovered applied n;
      G.close g)

let sweep ~k ~r =
  let n = Array.length request in
  let victims = if r = 1 then [ One ] else [ One; All ] in
  List.concat_map
    (fun (fault, name) ->
      List.map
        (fun v ->
          Alcotest.test_case
            (Printf.sprintf "K=%d R=%d %s%s at every record" k r name
               (match v with One -> "" | All -> " on every replica"))
            `Quick
            (fun () ->
              for p = 0 to n - 1 do
                run_case ~k ~r ~fault ~victims:v ~p ()
              done))
        victims)
    [ (BD.Fail, "Fail"); (BD.Torn 2, "Torn") ]

let () =
  Alcotest.run "group_commit"
    [
      ( "format",
        [
          Alcotest.test_case "runs write the bytes of single records" `Quick
            test_runs_match_records;
          Alcotest.test_case "engine batch writes the log of observes" `Quick
            test_engine_batch_matches_observe;
          Alcotest.test_case "Fail mid-run keeps the prefix" `Quick (test_run_fault_prefix BD.Fail);
          Alcotest.test_case "Torn mid-run keeps the prefix" `Quick
            (test_run_fault_prefix (BD.Torn 2));
        ] );
      ( "fault sweep",
        List.concat_map (fun (k, r) -> sweep ~k ~r) [ (1, 1); (3, 1); (1, 2); (3, 2) ] );
    ]
