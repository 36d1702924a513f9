(* The one ingest path (DESIGN.md §15): every observe appends to the
   WAL (the acknowledgement), then to the engine's buffer; a full
   buffer of 512, and a step end, hand the buffered elements off to the
   sketch and the step spool in one sorted merge.  Reads merge the
   buffer into a copy of the sketch.

   The contract under test:

   - volatile equivalence: reads at random points change neither the counts nor the archive; counts are exact after
     every batch and every answer lies within its self-reported bound
     against an exact oracle;
   - durable crash-recover: a kill mid-buffer, exactly at a 512-element
     hand-off, beside the files an older build left mid-checkpoint, or
     between the End_step sync and the sidecar write loses no acknowledged element, and every answer
     after the reopen lies within its bound;
   - read-your-writes: every acked observe is visible to the next
     quick, accurate and stats answer, on the engine and over the wire.

   HSQ_INGEST_SEEDS scales the fuzz seed count (default 6; nightly CI
   raises it). *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device
module Oracle = Hsq_workload.Oracle

let seeds =
  match Sys.getenv_opt "HSQ_INGEST_SEEDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 6)
  | None -> 6

let handoff = 512

let with_store f =
  let dir = Filename.temp_file "hsq_ingest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* The honesty check: the exact count, and quick and accurate answers
   inside the engine's own bounds, against the exact population. *)
let check_engine ~what eng oracle =
  let n = Oracle.count oracle in
  Alcotest.(check int) (what ^ ": exact count") n (E.total_size eng);
  List.iter
    (fun phi ->
      let rank = max 1 (min n (int_of_float (ceil (phi *. float_of_int n)))) in
      let v, bound = E.quick_with_bound eng ~rank in
      let err = Oracle.rank_error oracle ~rank ~value:v in
      if float_of_int err > bound then
        Alcotest.failf "%s: quick phi=%g rank=%d err=%d > bound=%.1f" what phi rank err bound;
      let v, report = E.accurate eng ~rank in
      let err = Oracle.rank_error oracle ~rank ~value:v in
      if float_of_int err > report.E.rank_error_bound then
        Alcotest.failf "%s: accurate phi=%g rank=%d err=%d > bound=%.1f" what phi rank err
          report.E.rank_error_bound)
    [ 0.05; 0.5; 0.95; 1.0 ]

(* --- volatile equivalence ------------------------------------------------ *)

(* Two engines take the same stream; [probed] is also read at random
   points, so its buffer hands off short runs, while [plain] only hands
   off full buffers and step cuts.  Counts and archives agree exactly,
   and both answer within their bounds. *)
let fuzz_volatile seed () =
  let rng = Random.State.make [| seed; 0xF0 |] in
  let config = Hsq.Config.make ~kappa:3 (Hsq.Config.Epsilon 0.02) in
  let probed = E.create config and plain = E.create config in
  let oracle = Oracle.create () in
  for step = 1 to 4 do
    let n = 1 + Random.State.int rng 3_000 in
    for _ = 1 to n do
      let v = Random.State.int rng 1_000_000 in
      E.observe probed v;
      E.observe plain v;
      Oracle.add oracle v;
      if Random.State.int rng 200 = 0 then begin
        Alcotest.(check int) "count after a read" (Oracle.count oracle) (E.total_size probed);
        ignore (E.quick probed ~rank:(1 + Random.State.int rng (Oracle.count oracle)))
      end
    done;
    let what = Printf.sprintf "seed %d step %d" seed step in
    check_engine ~what:(what ^ " probed") probed oracle;
    check_engine ~what:(what ^ " plain") plain oracle;
    if step < 4 then begin
      ignore (E.end_time_step probed);
      ignore (E.end_time_step plain);
      Alcotest.(check bool) (what ^ ": identical archives") true
        (Hsq_hist.Level_index.describe (E.hist probed)
        = Hsq_hist.Level_index.describe (E.hist plain))
    end
  done

(* --- durable crash-recover ------------------------------------------------ *)

type kill = Mid_buffer | At_handoff | Mid_checkpoint | Before_sidecar

let kill_label = function
  | Mid_buffer -> "mid-buffer"
  | At_handoff -> "at a hand-off"
  | Mid_checkpoint -> "mid-checkpoint"
  | Before_sidecar -> "between End_step sync and sidecar"

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* One seeded lifecycle over one store: every kill kind twice, in a
   seeded order, each after a random run of observes and step cuts.
   Each phase reopens the store (the old checkpoint interval each kill
   drew, which Config.make still accepts and ignores), kills the engine, and checks the reopened
   store against the oracle of every acknowledged element. *)
let fuzz_durable seed () =
  with_store (fun dir ->
      let rng = Random.State.make [| seed; 0xD0 |] in
      let config ~checkpoint_every =
        Hsq.Config.make ~kappa:3 ~checkpoint_every ~wal_dir:dir (Hsq.Config.Epsilon 0.02)
      in
      let oracle = Oracle.create () in
      let kills = [| Mid_buffer; At_handoff; Mid_checkpoint; Before_sidecar |] in
      let order = Array.append kills kills in
      for i = Array.length order - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      let ckpt_path = Filename.concat dir "checkpoint" in
      Array.iteri
        (fun phase kill ->
          (* The buffer holds exactly the observes past the last
             multiple of 512. *)
          let checkpoint_every =
            match kill with
            | Mid_buffer | At_handoff -> handoff * Random.State.int rng 3
            | Mid_checkpoint | Before_sidecar -> 64 * (1 + Random.State.int rng 8)
          in
          let eng, _ = E.open_or_recover (config ~checkpoint_every) in
          let observe v =
            E.observe eng v;
            Oracle.add oracle v
          in
          let observe_n n =
            for _ = 1 to n do
              observe (Random.State.int rng 1_000_000)
            done
          in
          (* A warm-up of observes and cuts, ending in a read: every
             kill below starts from an empty buffer. *)
          for _ = 1 to Random.State.int rng 3 do
            observe_n (1 + Random.State.int rng 1_500);
            ignore (E.end_time_step eng)
          done;
          ignore (E.total_size eng);
          (match kill with
          | Mid_buffer ->
            observe_n ((handoff * Random.State.int rng 3) + 1 + Random.State.int rng (handoff - 1))
          | At_handoff -> observe_n (handoff * (1 + Random.State.int rng 3))
          | Mid_checkpoint ->
            (* What an older build, which took sketch checkpoints, left
               when killed while writing one: the previous checkpoint
               beside a torn temp file.  The reopen reads neither. *)
            observe_n checkpoint_every;
            E.crash eng;
            let body = Printf.sprintf "hsq-ckpt 3\nseq %d\nsteps_done 0\ngk_len 1\ngk 1\n" checkpoint_every in
            write_file ckpt_path (Printf.sprintf "%schecksum %x\n" body (Hsq.Meta.checksum body));
            write_file (ckpt_path ^ ".tmp") (String.sub body 0 (String.length body / 2))
          | Before_sidecar -> (
            observe_n (1 + Random.State.int rng 1_500);
            (* The marker is synced; the archive's first block write
               fails, so the sidecar is never written. *)
            BD.set_injector (E.device eng)
              (Some (fun op ~attempt:_ _ -> if op = BD.Write then Some BD.Fail else None));
            match E.end_time_step eng with
            | _ -> Alcotest.failf "seed %d: the archive survived a failing device" seed
            | exception BD.Device_error _ -> ()));
          E.crash eng;
          let what = Printf.sprintf "seed %d phase %d (%s)" seed phase (kill_label kill) in
          let recovered, report = E.open_or_recover (config ~checkpoint_every) in
          if kill = Before_sidecar then
            Alcotest.(check int) (what ^ ": the step is re-archived") 1 report.E.steps_reingested;
          check_engine ~what recovered oracle;
          E.close recovered)
        order)

(* --- read-your-writes ------------------------------------------------------ *)

(* Every acked observe, one at a time across several hand-offs, is seen
   by the next count, quick and accurate answer of a durable engine. *)
let test_engine_read_your_writes () =
  with_store (fun dir ->
      let eng, _ =
        E.open_or_recover
          (Hsq.Config.make ~kappa:3 ~checkpoint_every:300 ~wal_dir:dir (Hsq.Config.Epsilon 0.02))
      in
      let rng = Random.State.make [| 0x5EE |] in
      let oracle = Oracle.create () in
      for i = 1 to (2 * handoff) + 100 do
        let v = Random.State.int rng 100_000 in
        E.observe eng v;
        Oracle.add oracle v;
        Alcotest.(check int) "stream size" i (E.stream_size eng);
        let top, bound = E.quick_with_bound eng ~rank:i in
        if float_of_int (Oracle.rank_error oracle ~rank:i ~value:top) > bound then
          Alcotest.failf "quick after %d acks outside its bound" i;
        if i mod 37 = 0 then begin
          let v, report = E.accurate eng ~rank:i in
          if float_of_int (Oracle.rank_error oracle ~rank:i ~value:v) > report.E.rank_error_bound
          then Alcotest.failf "accurate after %d acks outside its bound" i
        end
      done;
      E.close eng)

(* The same over the wire: after each acked observe batch, whatever its
   size against the hand-off, [stats] counts every acked element and
   quick and accurate resolve phi 1.0 against that count. *)
let test_daemon_read_your_writes () =
  with_store (fun dir ->
      let g = Hsq_shard.Shard_group.create (Hsq.Config.make ~kappa:3 (Hsq.Config.Epsilon 0.02)) in
      let listen = Hsq_serve.Server.Unix_sock (Filename.concat dir "hsq.sock") in
      let srv = Hsq_serve.Server.create (Hsq_serve.Server.default_config listen) g in
      Hsq_serve.Server.start srv;
      Fun.protect
        ~finally:(fun () -> Hsq_serve.Server.stop srv)
        (fun () ->
          let module C = Hsq_serve.Client in
          let module J = Hsq_serve.Json in
          let c = C.connect listen in
          let rng = Random.State.make [| 0xD43 |] in
          let oracle = Oracle.create () in
          let acked = ref 0 in
          List.iter
            (fun size ->
              let batch = Array.init size (fun _ -> Random.State.int rng 100_000) in
              acked := !acked + C.observe c batch;
              Array.iter (Oracle.add oracle) batch;
              let what = Printf.sprintf "after %d acks" !acked in
              Alcotest.(check (option int)) (what ^ ": stats") (Some !acked)
                (J.get_int (C.stats c) "n");
              List.iter
                (fun (verb, resp) ->
                  Alcotest.(check (option int)) (what ^ ": " ^ verb ^ " rank") (Some !acked)
                    (J.get_int resp "rank");
                  let bound = Option.value ~default:0.0 (C.bound_of resp) in
                  let err = Oracle.rank_error oracle ~rank:!acked ~value:(C.value_of resp) in
                  if float_of_int err > bound then
                    Alcotest.failf "%s: %s err %d > bound %.1f" what verb err bound)
                [ ("quick", C.quick c (`Phi 1.0)); ("accurate", C.accurate c (`Phi 1.0)) ])
            [ 1; 7; handoff - 8; 1; handoff; handoff + 3; 200 ];
          C.close c))

let () =
  let fuzz name f =
    List.init seeds (fun s -> Alcotest.test_case (Printf.sprintf "seed %d" s) `Slow (f s))
    |> fun cases -> (name, cases)
  in
  Alcotest.run "ingest"
    [
      ( "read-your-writes",
        [
          Alcotest.test_case "engine" `Quick test_engine_read_your_writes;
          Alcotest.test_case "daemon" `Quick test_daemon_read_your_writes;
        ] );
      fuzz "volatile equivalence" fuzz_volatile;
      fuzz "durable crash-recover" fuzz_durable;
    ]
