(* The serve daemon under test: protocol units, a live in-process
   server, closed-loop load at K=1, 2 and 4 and K=2 x R=2, overload
   floods, and two chaos scenarios — device faults injected under
   concurrent client traffic, and kill -9 / restart of the real binary
   mid-ingest (zero acknowledged-observation loss).

   The oracle strategy mirrors test_chaos: every answered query must
   sit within its self-reported rank-error bound of an exact oracle.
   Quiesced phases check that bound exactly; the kill/restart scenario
   exploits that observes are sent in increasing order (1, 2, 3, ...),
   so whatever WAL prefix survives is exactly {1..n} and the oracle
   stays exact over the recovered store.

   HSQ_SERVE_SOAK_SECS=N adds a soak suite that loops the chaos
   scenarios and a 16-connection ingest-heavy load for N seconds (the
   nightly job sets it). *)

module E = Hsq.Engine
module BD = Hsq_storage.Block_device
module Server = Hsq_serve.Server
module Client = Hsq_serve.Client
module Json = Hsq_serve.Json
module Protocol = Hsq_serve.Protocol

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let with_temp_dir f =
  let dir = Filename.temp_file "hsq_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- Json ------------------------------------------------------------- *)

let roundtrip s = Result.map Json.to_string (Json.of_string s)

let test_json_roundtrip () =
  let check input expect =
    Alcotest.(check (result string string)) input (Ok expect) (roundtrip input)
  in
  check {|{"a":1,"b":[true,null,-2.5],"c":"x"}|} {|{"a":1,"b":[true,null,-2.5],"c":"x"}|};
  check {| [ 1 , 2 ] |} {|[1,2]|};
  check {|"tab\tnl\nquote\""|} {|"tab\tnl\nquote\""|};
  check {|"Aé"|} "\"A\xc3\xa9\"";
  (* surrogate pair -> 4-byte UTF-8 *)
  check {|"😀"|} "\"\xf0\x9f\x98\x80\"";
  check {|1e3|} {|1000|}

let test_json_errors () =
  let bad input =
    match Json.of_string input with
    | Ok j -> Alcotest.failf "parsed %S as %s" input (Json.to_string j)
    | Error _ -> ()
  in
  bad "{";
  bad {|{"a":}|};
  bad {|"unterminated|};
  bad "nul";
  bad {|{"a":1} trailing|};
  bad "\"ctrl\x01char\""

(* The float-only codec integers went through before Json had an [Int]
   case, kept as the oracle: every integer was [Num (float_of_int n)],
   rendered with "%.0f" below 9e15 and "%.12g" above, and every number
   literal went through [float_of_string]. *)
module Float_json = struct
  let escape_into buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let add_num buf f =
    if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 9.0e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)

  let rec render buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int n -> add_num buf (float_of_int n)
    | Json.Num f -> add_num buf f
    | Json.Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
    | Json.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          render buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    render buf v;
    Buffer.contents buf

  (* A document that is one number literal: its first character must
     be '-' or a digit, the number token is the longest run of
     [0-9.eE+-] after an optional '-', nothing may follow it, and the
     token goes through [float_of_string]. *)
  let number s =
    let n = String.length s in
    let pos = ref 0 in
    if n = 0 || not (match s.[0] with '-' | '0' .. '9' -> true | _ -> false) then None
    else begin
      if s.[0] = '-' then incr pos;
      while
        !pos < n
        && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
      do
        incr pos
      done;
      if !pos <> n then None else float_of_string_opt s
    end
end

(* Random trees whose integers lie in the float-exact range +-2^53, and
   whose floats cover fractions, integral values, -0, huge and tiny
   magnitudes and the non-finite values rendered as null. *)
let random_tree rng =
  let int_in_2_53 () =
    let bits = Random.State.int rng 54 in
    let m = if bits = 0 then 0 else Random.State.full_int rng (1 lsl bits) in
    if Random.State.bool rng then m else -m
  in
  let float () =
    match Random.State.int rng 9 with
    | 0 -> Random.State.float rng 2.0 -. 1.0
    | 1 -> float_of_int (int_in_2_53 ())
    | 2 -> -0.0
    | 3 -> Random.State.float rng 1e20 *. if Random.State.bool rng then 1.0 else -1.0
    | 4 -> Random.State.float rng 1e-6
    | 5 ->
      List.nth
        [ Float.nan; Float.infinity; Float.neg_infinity; 9e15; -9e15; 0.5 ]
        (Random.State.int rng 6)
    | 6 -> float_of_int (Random.State.int rng 1000) /. 8.0
    | _ -> Random.State.float rng 1e6
  in
  let str () =
    String.init (Random.State.int rng 6) (fun _ ->
        List.nth [ 'a'; 'z'; '"'; '\\'; '\n'; '\t'; '\001'; ' '; '\xc3' ] (Random.State.int rng 9))
  in
  let rec go depth =
    match Random.State.int rng (if depth = 0 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rng)
    | 2 -> Json.int (int_in_2_53 ())
    | 3 -> Json.Num (float ())
    | 4 -> Json.Str (str ())
    | 5 -> Json.List (List.init (Random.State.int rng 5) (fun _ -> go (depth - 1)))
    | _ -> Json.Obj (List.init (Random.State.int rng 4) (fun _ -> (str (), go (depth - 1))))
  in
  go 4

let test_json_render_matches_float_codec () =
  let rng = Random.State.make [| 0x15 |] in
  for _ = 1 to 3_000 do
    let tree = random_tree rng in
    let expected = Float_json.to_string tree in
    Alcotest.(check string) "same bytes" expected (Json.to_string tree);
    Alcotest.(check string) "to_line" (expected ^ "\n") (Json.to_line tree);
    (* and the parser reads that rendering back to the same bytes *)
    Alcotest.(check (result string string)) "re-parse" (Ok expected) (roundtrip expected)
  done

let test_json_number_literals () =
  List.iter
    (fun lit ->
      let old = Float_json.number lit in
      let now = Result.to_option (Json.of_string lit) in
      Alcotest.(check (option (float 0.0))) lit old (Option.bind now Json.as_float);
      (* inside a document the literal reads the same *)
      let doc = Printf.sprintf {|{"v":[%s]}|} lit in
      let inner =
        match Json.of_string doc with
        | Ok j -> (
          match Json.get_list j "v" with Some [ v ] -> Json.as_float v | _ -> None)
        | Error _ -> None
      in
      Alcotest.(check (option (float 0.0))) doc old inner)
    [
      "-0"; "007"; "1e3"; "1.0"; "9007199254740993"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-"; "+1"; "1."; ".5";
    ];
  (* integers that fit are exact; the float range rule of as_int holds *)
  let int_of lit = Option.bind (Result.to_option (Json.of_string lit)) Json.as_int in
  Alcotest.(check (option int)) "2^53 + 1" (Some 9007199254740993) (int_of "9007199254740993");
  Alcotest.(check (option int)) "max_int" (Some max_int) (int_of "4611686018427387903");
  Alcotest.(check (option int)) "min_int" (Some min_int) (int_of "-4611686018427387904");
  Alcotest.(check (option int)) "max_int + 1 is a float" None (int_of "4611686018427387904");
  Alcotest.(check (option int)) "1e3" (Some 1000) (int_of "1e3");
  Alcotest.(check (option int)) "1.5" None (int_of "1.5");
  Alcotest.(check string) "max_int renders exactly" "4611686018427387903"
    (Json.to_string (Json.int max_int));
  Alcotest.(check string) "min_int renders exactly" "-4611686018427387904"
    (Json.to_string (Json.int min_int));
  (* a parse error names its offset from the start of the parsed range *)
  let b = Bytes.of_string {|xx{"a":}yy|} in
  Alcotest.(check (result string string)) "of_bytes error offset"
    (Json.of_string {|{"a":}|} |> Result.map Json.to_string)
    (Json.of_bytes b ~pos:2 ~len:6 |> Result.map Json.to_string)

(* --- Protocol --------------------------------------------------------- *)

let parse_req s =
  match Json.of_string s with
  | Error e -> Error ("json: " ^ e)
  | Ok j -> Protocol.parse j

let test_protocol_parse () =
  (match parse_req {|{"op":"quick","rank":7}|} with
  | Ok (Protocol.Quick { target = Protocol.Rank 7; window = None }) -> ()
  | other -> Alcotest.failf "quick parse: %s" (match other with Error e -> e | Ok _ -> "wrong shape"));
  (match parse_req {|{"op":"accurate","phi":0.5,"window":4,"deadline_ms":50}|} with
  | Ok
      (Protocol.Accurate
        { target = Protocol.Phi 0.5; window = Some 4; deadline_ms = Some 50.0 }) ->
    ()
  | _ -> Alcotest.fail "accurate parse");
  (match parse_req {|{"op":"observe","value":3}|} with
  | Ok (Protocol.Observe [| 3 |]) -> ()
  | _ -> Alcotest.fail "observe single");
  (match parse_req {|{"op":"quick","phi":1.5}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "phi 1.5 must be rejected");
  (match parse_req {|{"op":"frobnicate"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must be rejected");
  (* a value that is present but not an integer is named as such *)
  Alcotest.(check (result reject string))
    "fractional observe value" (Error "value must be an integer")
    (parse_req {|{"op":"observe","value":1.5}|} |> Result.map ignore);
  Alcotest.(check (result reject string))
    "observe values not a list" (Error "values must be a list of integers")
    (parse_req {|{"op":"observe","values":7}|} |> Result.map ignore)

(* --- in-process server helpers ---------------------------------------- *)

module G = Hsq_shard.Shard_group

(* The one engine of a K=1, R=1 group. *)
let engine g = Option.get (G.engine g 0)

(* K=1 group preloaded with [steps] archived batches plus a live stream
   tail, all tracked in an exact oracle. *)
let preloaded_group ?(config = Hsq.Config.make (Hsq.Config.Epsilon 0.02)) ~seed ~steps
    ~per_step ~stream () =
  let rng = Hsq_util.Xoshiro.create (0xCAFE + seed) in
  let g = G.create config in
  let eng = engine g in
  let oracle = Hsq_workload.Oracle.create () in
  for _ = 1 to steps do
    let b = Array.init per_step (fun _ -> Hsq_util.Xoshiro.int rng 1_000_000) in
    Hsq_workload.Oracle.add_batch oracle b;
    ignore (E.ingest_batch eng b)
  done;
  for _ = 1 to stream do
    let v = Hsq_util.Xoshiro.int rng 1_000_000 in
    E.observe eng v;
    Hsq_workload.Oracle.add oracle v
  done;
  (g, oracle)

let with_server ?(mutate_config = Fun.id) g f =
  with_temp_dir (fun dir ->
      let listen = Server.Unix_sock (Filename.concat dir "hsq.sock") in
      let srv = Server.create (mutate_config (Server.default_config listen)) g in
      Server.start srv;
      Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv listen))

let check_bounded ~what oracle resp =
  if not (Client.is_ok resp) then
    Alcotest.failf "%s: unexpected error %s" what (Json.to_string resp);
  let rank =
    match Json.get_int resp "rank" with
    | Some r -> r
    | None -> Alcotest.failf "%s: no rank in %s" what (Json.to_string resp)
  in
  let v = Client.value_of resp in
  let bound = Option.value ~default:0.0 (Client.bound_of resp) in
  let err = Hsq_workload.Oracle.rank_error oracle ~rank ~value:v in
  if float_of_int err > bound then
    Alcotest.failf "%s: rank %d err %d > reported bound %.1f (%s)" what rank err bound
      (Json.to_string resp)

(* One metric from the daemon's flat [metrics] dump. *)
let wire_metric c name =
  match Json.member (Client.metrics c) "metrics" with
  | Some reg -> Json.member reg name
  | None -> Alcotest.fail "metrics response has no registry"

let test_basics () =
  let g, oracle = preloaded_group ~seed:1 ~steps:4 ~per_step:2_000 ~stream:500 () in
  with_server g (fun srv listen ->
      let c = Client.connect listen in
      Client.ping c;
      let stats = Client.stats c in
      Alcotest.(check (option int)) "stats n" (Some 8_500) (Json.get_int stats "n");
      let n = 8_500 in
      (* quiesced: every quick and accurate answer within its bound *)
      List.iter
        (fun phi ->
          let rank = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
          check_bounded ~what:"quick" oracle (Client.quick c (`Rank rank));
          check_bounded ~what:"accurate" oracle (Client.accurate c (`Rank rank)))
        [ 0.05; 0.5; 0.95 ];
      (* degradation report comes through the wire *)
      let acc = Client.accurate c (`Phi 0.5) in
      Alcotest.(check (option string)) "undegraded" (Some "none") (Json.get_str acc "degradation");
      (* windowed: an answerable window works, a misaligned one reports
         the alignable sizes *)
      let windows =
        match Json.member stats "windows" with
        | Some (Json.List l) -> List.filter_map Json.as_int l
        | _ -> []
      in
      Alcotest.(check bool) "some window answerable" true (windows <> []);
      let w = List.hd windows in
      let wr = Client.quick ~window:w c (`Phi 0.5) in
      Alcotest.(check bool) ("window " ^ string_of_int w) true (Client.is_ok wr);
      let bad = Client.quick ~window:9_999 c (`Phi 0.5) in
      Alcotest.(check (option string))
        "misaligned window error" (Some "window_not_aligned") (Client.error_kind bad);
      (match Json.member bad "windows" with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "misaligned window response must list alignable sizes");
      (* ingest through the wire is acknowledged and queryable *)
      let applied = Client.observe c (Array.init 100 (fun i -> i * 3)) in
      Alcotest.(check int) "observe applied" 100 applied;
      Array.iter (fun v -> Hsq_workload.Oracle.add oracle v) (Array.init 100 (fun i -> i * 3));
      Client.end_step c;
      check_bounded ~what:"post-ingest accurate" oracle (Client.accurate c (`Phi 0.5));
      (* a garbage line is answered with a parse error and the
         connection keeps working *)
      let garbage = Client.request c (Json.Str "not a request") in
      Alcotest.(check (option string)) "bad shape" (Some "bad_request") (Client.error_kind garbage);
      Client.ping c;
      (* metrics verb, both formats *)
      let m = Client.metrics c in
      (match Json.member m "metrics" with
      | Some reg ->
        Alcotest.(check bool)
          "serve counters exported" true
          (Json.get_int reg "hsq_serve_requests_ok_total" <> None);
        Alcotest.(check bool)
          "process gauges exported" true
          (Json.member reg "hsq_uptime_seconds" <> None)
      | None -> Alcotest.fail "metrics response has no registry");
      let prom =
        Client.request c (Json.Obj [ ("op", Json.Str "metrics"); ("format", Json.Str "prometheus") ])
      in
      (match Json.get_str prom "body" with
      | Some body ->
        Alcotest.(check bool)
          "prometheus body" true
          (contains body "hsq_serve_queue_depth")
      | None -> Alcotest.fail "prometheus metrics response has no body");
      (* health verb agrees with the healthy engine *)
      Alcotest.(check (option bool)) "healthy" (Some true) (Json.get_bool (Client.health c) "healthy");
      (* drain: acknowledged, then the daemon exits and the engine
         closes; new connections are refused *)
      Client.drain c;
      Server.wait srv;
      Alcotest.(check bool) "engine closed after drain" true (E.is_closed (engine g));
      (match Client.connect ~retries:2 ~retry_delay_s:0.01 listen with
      | c2 ->
        Client.close c2;
        Alcotest.fail "connect after drain must fail"
      | exception _ -> ());
      Client.close c)

(* A client that connects and sends nothing is cut by the read timeout;
   the daemon keeps serving others. *)
let test_slow_client () =
  let g, _ = preloaded_group ~seed:2 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server
    ~mutate_config:(fun c -> { c with Server.read_timeout_s = 0.2 })
    g
    (fun _srv listen ->
      let path = match listen with Server.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* wait for the cut: the server closes its side, so read sees EOF *)
      let buf = Bytes.create 64 in
      (match Unix.select [ fd ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "stalled connection was not cut within 5s"
      | _ ->
        let n = Unix.read fd buf 0 64 in
        Alcotest.(check int) "EOF on the stalled connection" 0 n);
      Unix.close fd;
      (* the daemon still serves, and the cut surfaced in its metrics *)
      let c = Client.connect listen in
      Client.ping c;
      Alcotest.(check bool)
        "timeout surfaced in metrics" true
        (match Option.bind (wire_metric c "hsq_serve_conn_timeouts_total") Json.as_int with
        | Some n -> n >= 1
        | None -> false);
      Client.close c)

(* Raw-socket helpers for the line-scanner cases: write exact byte
   strings, read replies until [n] lines or EOF. *)
let raw_connect listen =
  let path = match listen with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Reply lines until [n] arrived or the server closed; the flag says
   whether EOF was seen. *)
let raw_read_lines ?(n = max_int) fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let lines () = String.split_on_char '\n' (Buffer.contents buf) in
  let rec go () =
    if List.length (lines ()) - 1 >= n then false
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> true
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
  in
  let eof = go () in
  (List.filter (fun l -> l <> "") (lines ()), eof)

(* A line above max_line_bytes is refused even when its newline arrives
   in the same read that crosses the cap. *)
let test_line_cap_with_newline () =
  let g, _ = preloaded_group ~seed:3 ~steps:1 ~per_step:200 ~stream:10 () in
  with_server
    ~mutate_config:(fun c -> { c with Server.max_line_bytes = 64 })
    g
    (fun _srv listen ->
      let fd = raw_connect listen in
      let ping = {|{"op":"ping"}|} in
      raw_send fd (ping ^ String.make 200 ' ' ^ "\n");
      let lines, eof = raw_read_lines fd in
      Unix.close fd;
      (match lines with
      | [ l ] ->
        let r = Result.get_ok (Json.of_string l) in
        Alcotest.(check (option string)) "parse error" (Some Protocol.e_parse) (Client.error_kind r);
        Alcotest.(check (option string))
          "detail" (Some "line too long")
          (Option.bind (Json.member r "detail") Json.as_str)
      | _ -> Alcotest.failf "expected one reply, got [%s]" (String.concat "; " lines));
      Alcotest.(check bool) "connection closed" true eof;
      (* A line at the cap is still served. *)
      let fd = raw_connect listen in
      raw_send fd (ping ^ String.make (64 - String.length ping) ' ' ^ "\n");
      let lines, _ = raw_read_lines ~n:1 fd in
      Unix.close fd;
      Alcotest.(check bool) "line at the cap answered" true
        (match lines with [ l ] -> contains l "pong" | _ -> false))

(* Pipelined lines in one write, and one line split across three
   writes, are all answered in order. *)
let test_pipelined_and_split_lines () =
  let g, _ = preloaded_group ~seed:4 ~steps:2 ~per_step:500 ~stream:50 () in
  with_server g (fun _srv listen ->
      let fd = raw_connect listen in
      let phis = [ 0.1; 0.25; 0.5; 0.75; 0.9 ] in
      let quick phi = Printf.sprintf {|{"op":"quick","phi":%g}|} phi in
      raw_send fd (String.concat "" (List.map (fun p -> quick p ^ "\n") phis) ^ {|{"op":"ping"}|} ^ "\n");
      let split = quick 0.33 ^ "\n" in
      let third = String.length split / 3 in
      raw_send fd (String.sub split 0 third);
      Unix.sleepf 0.05;
      raw_send fd (String.sub split third third);
      Unix.sleepf 0.05;
      raw_send fd (String.sub split (2 * third) (String.length split - (2 * third)));
      let lines, _ = raw_read_lines ~n:7 fd in
      Unix.close fd;
      let replies = List.map (fun l -> Result.get_ok (Json.of_string l)) lines in
      Alcotest.(check int) "every line answered" 7 (List.length replies);
      let values = List.map (fun r -> if Client.is_ok r then Json.member r "value" else None) replies in
      let expect_quick i phi =
        let c = Client.connect listen in
        let r = Client.quick c (`Phi phi) in
        Client.close c;
        Alcotest.(check (option string))
          (Printf.sprintf "reply %d answers phi %g" i phi)
          (Option.map Json.to_string (Json.member r "value"))
          (Option.map Json.to_string (List.nth values i))
      in
      List.iteri expect_quick phis;
      Alcotest.(check bool) "ping answered in order" true (contains (List.nth lines 5) "pong");
      expect_quick 6 0.33)

(* A request that spends its whole class budget waiting in the queue is
   answered `timeout`, not silently executed late. *)
let test_queue_deadline () =
  let g, _ = preloaded_group ~seed:3 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server
    ~mutate_config:(fun c ->
      { c with Server.budgets = { c.Server.budgets with Server.quick_ms = 100.0 } })
    g
    (fun srv listen ->
      let blocker = Thread.create (fun () -> Server.submit_fn srv (fun _ -> Thread.delay 0.5)) () in
      Thread.delay 0.1 (* let the job occupy the engine *);
      let c = Client.connect listen in
      let r = Client.quick c (`Phi 0.5) in
      Alcotest.(check (option string)) "aged out in queue" (Some "timeout") (Client.error_kind r);
      Thread.join blocker;
      (* with the engine idle again the same request succeeds *)
      Alcotest.(check bool) "after the stall" true (Client.is_ok (Client.quick c (`Phi 0.5)));
      Client.close c)

(* Flood a tiny admission queue with 2x-capacity concurrent requests:
   every request is answered, the excess is shed explicitly with a
   positive retry-after hint, and the queue never grows past its cap. *)
let test_flood () =
  let g, _ = preloaded_group ~seed:4 ~steps:2 ~per_step:1_000 ~stream:200 () in
  let capacity = 4 in
  with_server
    ~mutate_config:(fun c ->
      {
        c with
        Server.queue_depth = capacity;
        budgets = { c.Server.budgets with Server.quick_ms = 10_000.0 };
      })
    g
    (fun srv listen ->
      let blocker = Thread.create (fun () -> Server.submit_fn srv (fun _ -> Thread.delay 1.5)) () in
      Thread.delay 0.1;
      let nreq = 2 * capacity in
      let responses = Array.make nreq None in
      let threads =
        Array.init nreq (fun i ->
            Thread.create
              (fun () ->
                let c = Client.connect listen in
                responses.(i) <- Some (Client.quick c (`Phi 0.5));
                Client.close c)
              ())
      in
      Array.iter Thread.join threads;
      Thread.join blocker;
      let ok = ref 0 and shed = ref 0 in
      Array.iteri
        (fun i r ->
          match r with
          | None -> Alcotest.failf "request %d never answered" i
          | Some r ->
            if Client.is_ok r then incr ok
            else begin
              Alcotest.(check (option string))
                "sheds are explicit overloads" (Some "overloaded") (Client.error_kind r);
              (match Client.retry_after_ms r with
              | Some ms when ms > 0.0 -> ()
              | _ -> Alcotest.failf "shed without a positive retry-after: %s" (Json.to_string r));
              incr shed
            end)
        responses;
      Alcotest.(check int) "all answered" nreq (!ok + !shed);
      Alcotest.(check bool) "admitted up to capacity" true (!ok >= capacity);
      Alcotest.(check bool) "the excess was shed" true (!shed >= 1);
      let c = Client.connect listen in
      (match Option.bind (wire_metric c "hsq_serve_queue_peak") Json.as_float with
      | Some peak -> Alcotest.(check bool) "peak <= capacity" true (peak <= float_of_int capacity)
      | None -> Alcotest.fail "no queue peak gauge");
      (match Option.bind (wire_metric c "hsq_serve_requests_shed_total") Json.as_int with
      | Some n -> Alcotest.(check int) "shed counter agrees" !shed n
      | None -> Alcotest.fail "no shed counter");
      Client.close c)

(* Regression: a client connecting while the drain is in progress must
   be told [shutting_down] and disconnected — never left hanging in the
   accept backlog, never reset without an answer.  (The listener used
   to stay silent between the drain request and the final close,
   stranding mid-drain connectors.) *)
let test_drain_race () =
  let g, _ = preloaded_group ~seed:6 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server g (fun srv listen ->
      (* occupy the engine so the drain has admitted work to
         wait for — that's the window the race lives in *)
      let blocker =
        Thread.create (fun () -> Server.submit_fn srv (fun _ -> Thread.delay 1.0)) ()
      in
      Thread.delay 0.1;
      Server.request_stop srv;
      Thread.delay 0.1 (* the drain is now blocked on the job above *);
      let path = match listen with Server.Unix_sock p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.7;
      let buf = Bytes.create 1024 in
      (match Unix.read fd buf 0 1024 with
      | 0 -> Alcotest.fail "mid-drain connection closed without an answer"
      | n -> (
        let line = String.trim (Bytes.sub_string buf 0 n) in
        match Json.of_string line with
        | Error e -> Alcotest.failf "mid-drain refusal is not JSON (%s): %s" e line
        | Ok r ->
          Alcotest.(check (option string))
            "mid-drain connect refused cleanly" (Some "shutting_down") (Client.error_kind r))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "mid-drain connection hung with no refusal");
      Unix.close fd;
      Thread.join blocker;
      Server.wait srv;
      Alcotest.(check bool) "engine closed after drain" true (E.is_closed (engine g));
      (* after the drain completes the socket is gone: connects fail
         outright rather than being refused politely *)
      match Client.connect ~retries:2 ~retry_delay_s:0.01 listen with
      | c2 ->
        Client.close c2;
        Alcotest.fail "connect after full drain must fail"
      | exception _ -> ())

(* A client that pipelines quicks and never reads its replies cannot
   stall the others: once its socket buffers fill, a second connection's
   quicks are still answered promptly, and the stalled connection is cut
   by the write timeout and counted. *)
let test_stalled_reader () =
  let g, _ = preloaded_group ~seed:12 ~steps:2 ~per_step:500 ~stream:100 () in
  let write_timeout_s = 0.3 in
  with_server
    ~mutate_config:(fun c -> { c with Server.write_timeout_s })
    g
    (fun _srv listen ->
      let a = raw_connect listen in
      Unix.set_nonblock a;
      let batch = String.concat "" (List.init 512 (fun _ -> {|{"op":"quick","phi":0.5}|} ^ "\n")) in
      let blocked = Atomic.make false in
      let last_progress = Atomic.make 0.0 and closed_at = Atomic.make 0.0 in
      let flood () =
        let give_up = Unix.gettimeofday () +. 20.0 in
        let rec go off =
          if Unix.gettimeofday () < give_up then
            match Unix.write_substring a batch off (String.length batch - off) with
            | n ->
              Atomic.set last_progress (Unix.gettimeofday ());
              go ((off + n) mod String.length batch)
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Atomic.set blocked true;
              Thread.delay 0.005;
              go off
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              Atomic.set closed_at (Unix.gettimeofday ())
        in
        go 0
      in
      let flooder = Thread.create flood () in
      while not (Atomic.get blocked || Atomic.get closed_at > 0.0) do
        Thread.delay 0.005
      done;
      let b = Client.connect listen in
      for i = 1 to 10 do
        let t0 = Unix.gettimeofday () in
        let r = Client.quick b (`Phi 0.5) in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "quick %d answered" i) true (Client.is_ok r);
        if dt > 0.1 then Alcotest.failf "quick %d took %.3fs beside a stalled reader" i dt;
        Thread.delay 0.02
      done;
      Thread.join flooder;
      Unix.close a;
      let cut = Atomic.get closed_at in
      if cut = 0.0 then Alcotest.fail "the stalled reader was never cut";
      let after = cut -. Atomic.get last_progress in
      if after > write_timeout_s +. 0.7 then
        Alcotest.failf "stalled reader cut %.3fs after its last write" after;
      Alcotest.(check bool)
        "write cut surfaced in metrics" true
        (match Option.bind (wire_metric b "hsq_serve_conn_timeouts_total") Json.as_int with
        | Some n -> n >= 1
        | None -> false);
      Client.close b)

(* While a job holds the engine, a ping on another connection is
   answered at once; on a third connection, a quick pipelined ahead of a
   ping waits for the job, and both replies come back in order. *)
let test_lent_engine_order () =
  let g, _ = preloaded_group ~seed:13 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server
    ~mutate_config:(fun c ->
      { c with Server.budgets = { c.Server.budgets with Server.quick_ms = 10_000.0 } })
    g
    (fun srv listen ->
      let job_end = Atomic.make 0.0 in
      let blocker =
        Thread.create
          (fun () ->
            Server.submit_fn srv (fun _ ->
                Thread.delay 0.5;
                Atomic.set job_end (Unix.gettimeofday ())))
          ()
      in
      Thread.delay 0.1;
      let c = Client.connect listen in
      let t0 = Unix.gettimeofday () in
      Client.ping c;
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0.1 then Alcotest.failf "ping took %.3fs while a job held the engine" dt;
      Alcotest.(check bool) "the job still held the engine" true (Atomic.get job_end = 0.0);
      let fd = raw_connect listen in
      raw_send fd ({|{"op":"quick","phi":0.5}|} ^ "\n" ^ {|{"op":"ping"}|} ^ "\n");
      let first, _ = raw_read_lines ~n:1 fd in
      let first_at = Unix.gettimeofday () in
      let lines = if List.length first >= 2 then first else first @ fst (raw_read_lines ~n:1 fd) in
      Unix.close fd;
      Thread.join blocker;
      let ended = Atomic.get job_end in
      Alcotest.(check bool)
        "replies came after the job ended" true
        (ended > 0.0 && first_at >= ended);
      (match lines with
      | [ q; p ] ->
        Alcotest.(check bool) "the quick answered first" true (contains q "\"value\"");
        Alcotest.(check bool) "then the ping" true (contains p "pong")
      | _ -> Alcotest.failf "expected two replies, got [%s]" (String.concat "; " lines));
      Client.close c)

(* A connection whose descriptor select cannot take (at or above
   FD_SETSIZE) is refused with an explicit overloaded reply, and the
   daemon goes on serving.  Needs a descriptor limit above FD_SETSIZE;
   below it there is nothing to check. *)
let test_fd_setsize_refused () =
  let g, _ = preloaded_group ~seed:14 ~steps:1 ~per_step:200 ~stream:10 () in
  with_server g (fun _srv listen ->
      let fd_num fd : int = Obj.magic fd in
      let held = ref [] in
      (try
         while match !held with fd :: _ -> fd_num fd < 1030 | [] -> true do
           held := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !held
         done
       with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close !held)
        (fun () ->
          match !held with
          | fd :: _ when fd_num fd >= 1030 -> (
            (* every lower descriptor is held, so the daemon's accept
               lands past FD_SETSIZE *)
            let s = raw_connect listen in
            let lines, _ = raw_read_lines ~n:1 s in
            Unix.close s;
            match lines with
            | [ l ] ->
              Alcotest.(check (option string))
                "refused as overloaded" (Some Protocol.e_overloaded)
                (Client.error_kind (Result.get_ok (Json.of_string l)))
            | _ -> Alcotest.failf "expected one reply, got [%s]" (String.concat "; " lines))
          | _ -> ());
      let c = Client.connect listen in
      Client.ping c;
      Client.close c)

(* --- sharded backend over the wire -------------------------------------- *)

let test_sharded_server () =
  let config =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:3 (Hsq.Config.Epsilon 0.05)
  in
  let g = G.create config in
  let oracle = Hsq_workload.Oracle.create () in
  with_temp_dir (fun dir ->
      let listen = Server.Unix_sock (Filename.concat dir "hsq.sock") in
      let srv = Server.create (Server.default_config listen) g in
      Server.start srv;
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = Client.connect listen in
          let rng = Hsq_util.Xoshiro.create 0x51AB in
          for _ = 1 to 3 do
            let batch = Array.init 400 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
            let applied = Client.observe c batch in
            Alcotest.(check int) "all applied" (Array.length batch) applied;
            Array.iter (Hsq_workload.Oracle.add oracle) batch;
            Client.end_step c
          done;
          let stats = Client.stats c in
          Alcotest.(check (option int)) "stats: shard count" (Some 3) (Json.get_int stats "shards");
          Alcotest.(check (option int)) "stats: n" (Some 1_200) (Json.get_int stats "n");
          check_bounded ~what:"group quick" oracle (Client.quick c (`Phi 0.5));
          check_bounded ~what:"group accurate" oracle (Client.accurate c (`Phi 0.9));
          (* a window over the last step answers on a group too *)
          Alcotest.(check bool)
            "windowed query answered" true
            (Client.is_ok (Client.quick ~window:1 c (`Phi 0.5)));
          (* kill a shard in a job, under the live server:
             fused answers keep flowing, degraded and honest *)
          Server.submit_fn srv (fun g -> G.mark_down g 1 ~reason:"chaos");
          let r = Client.quick c (`Phi 0.5) in
          Alcotest.(check bool) "degraded quick still answers" true (Client.is_ok r);
          Alcotest.(check (option string))
            "degradation on the wire" (Some "shard_down") (Json.get_str r "degradation");
          let acc = Client.accurate c (`Phi 0.5) in
          Alcotest.(check bool) "degraded accurate still answers" true (Client.is_ok acc);
          let h = Client.health c in
          Alcotest.(check (option bool)) "rollup unhealthy" (Some false)
            (Json.get_bool h "healthy");
          (* a shard-labelled metrics dump *)
          (match
             Client.request c
               (Json.Obj [ ("op", Json.Str "metrics"); ("format", Json.Str "prometheus") ])
             |> fun m -> Json.get_str m "body"
           with
          | Some body ->
            Alcotest.(check bool) "per-shard labels" true (contains body "shard=\"0\"")
          | None -> Alcotest.fail "no prometheus body from the sharded server");
          Client.close c))

(* Replicated smoke (the CI PR gate): a K=2, R=2 durable group behind
   the live server loses one replica mid-traffic.  Answers must stay
   fully UNDEGRADED — the sibling serves at full precision — while the
   health rollup distinguishes the two tiers: full_precision stays
   true (exit 0 contract) and healthy flips false (warning tier).
   Rejoin drains the hints and restores the warning-free state. *)
let test_replicated_server () =
  let oracle = Hsq_workload.Oracle.create () in
  with_temp_dir (fun dir ->
      let config =
        Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:2 ~replicas:2
          ~wal_dir:(Filename.concat dir "store") (Hsq.Config.Epsilon 0.05)
      in
      let g, recoveries = G.open_or_recover config in
      List.iter
        (fun { G.shard; replica; outcome } ->
          if Result.is_error outcome then
            Alcotest.failf "shard %d replica %d dirty on fresh open" shard replica)
        recoveries;
      let listen = Server.Unix_sock (Filename.concat dir "hsq.sock") in
      let srv = Server.create (Server.default_config listen) g in
      Server.start srv;
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = Client.connect listen in
          let rng = Hsq_util.Xoshiro.create 0x7E11 in
          for _ = 1 to 3 do
            let batch = Array.init 400 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
            let applied = Client.observe c batch in
            Alcotest.(check int) "all applied" (Array.length batch) applied;
            Array.iter (Hsq_workload.Oracle.add oracle) batch;
            Client.end_step c
          done;
          let stats = Client.stats c in
          Alcotest.(check (option int)) "stats: shards" (Some 2) (Json.get_int stats "shards");
          Alcotest.(check (option int)) "stats: replicas" (Some 2)
            (Json.get_int stats "replicas");
          check_bounded ~what:"replicated quick" oracle (Client.quick c (`Phi 0.5));
          (* kill one replica of shard 0 under the live server *)
          Server.submit_fn srv (fun g ->
              G.mark_replica_down g ~shard:0 ~replica:1 ~reason:"chaos: replica killed");
          (* ingest keeps acking through the survivor (hints buffer for
             the dead replica) and answers stay fully undegraded *)
          let batch = Array.init 300 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
          let applied = Client.observe c batch in
          Alcotest.(check int) "all applied with a replica down" (Array.length batch) applied;
          Array.iter (Hsq_workload.Oracle.add oracle) batch;
          let r = Client.quick c (`Phi 0.5) in
          Alcotest.(check bool) "failover quick answers" true (Client.is_ok r);
          Alcotest.(check (option string))
            "failover quick undegraded" (Some "none") (Json.get_str r "degradation");
          check_bounded ~what:"failover quick" oracle r;
          let acc = Client.accurate c (`Phi 0.9) in
          Alcotest.(check (option string))
            "failover accurate undegraded" (Some "none") (Json.get_str acc "degradation");
          check_bounded ~what:"failover accurate" oracle acc;
          (* two-tier health rollup on the wire *)
          let h = Client.health c in
          Alcotest.(check (option bool)) "full precision with a sibling serving" (Some true)
            (Json.get_bool h "full_precision");
          Alcotest.(check (option bool)) "but not warning-free" (Some false)
            (Json.get_bool h "healthy");
          (* replica-labelled metrics *)
          (match
             Client.request c
               (Json.Obj [ ("op", Json.Str "metrics"); ("format", Json.Str "prometheus") ])
             |> fun m -> Json.get_str m "body"
           with
          | Some body ->
            Alcotest.(check bool) "per-replica labels" true
              (contains body "shard=\"0\",replica=\"0\"")
          | None -> Alcotest.fail "no prometheus body from the replicated server");
          (* rejoin drains the hints; the rollup is warning-free again *)
          Server.submit_fn srv (fun g ->
              match G.rejoin_replica g ~shard:0 ~replica:1 with
              | Ok _ -> ()
              | Error msg -> Alcotest.failf "rejoin failed: %s" msg);
          let h = Client.health c in
          Alcotest.(check (option bool)) "healthy after rejoin" (Some true)
            (Json.get_bool h "healthy");
          Client.close c))

(* --- one serve surface ----------------------------------------------------- *)

let field r key = match Json.member r key with Some j -> Json.to_string j | None -> "<absent>"
let num f = Json.to_string (Json.Num f)
let int n = Json.to_string (Json.int n)

(* [count] ranks spread over [1, n]. *)
let spread ~count n = List.init count (fun i -> 1 + (i * (n - 1) / (count - 1)))

let same ~what r expected =
  List.iter
    (fun (key, v) -> Alcotest.(check string) (Printf.sprintf "%s: %s" what key) v (field r key))
    expected

(* A K=1, R=1 served group answers as a lone engine fed the same steps:
   every field a single-engine daemon sent for quick and accurate
   (value, rank, bound, io, iterations, degradation) and for stats,
   rendered the same, over 60 ranks and one aligned window; the
   engine's query counters move as the twin's. *)
let test_k1_matches_engine () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let sketch = "gk" in
  let twin = E.create config in
  with_server (G.create config) (fun _ listen ->
      let c = Client.connect listen in
      let rng = Hsq_util.Xoshiro.create 0x5EED in
      let feed () =
        let b = Array.init 700 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
        Alcotest.(check int) "applied" 700 (Client.observe c b);
        Array.iter (E.observe twin) b
      in
      for _ = 1 to 6 do
        feed ();
        Client.end_step c;
        ignore (E.end_time_step twin)
      done;
      feed ();
      let fields v ~bound ~label ~iterations ~io =
        [
          ("value", int v);
          ("bound", num bound);
          ("degradation", Json.to_string (Json.Str label));
          ("iterations", int iterations);
          ("io", int (Hsq_storage.Io_stats.total io));
        ]
      in
      let accurate_fields (v, rep) =
        fields v ~bound:rep.E.rank_error_bound ~label:(E.degradation_label rep.E.degradation)
          ~iterations:rep.E.iterations ~io:rep.E.io
      in
      let group_fields (v, rep) =
        fields v ~bound:rep.G.rank_error_bound ~label:(G.degradation_label rep.G.degradation)
          ~iterations:rep.G.iterations ~io:rep.G.io
      in
      (* Windows are answered by a group: the twin's own, wrapped. *)
      let gtwin = G.of_engine twin in
      List.iter
        (fun rank ->
          let what = Printf.sprintf "%s rank %d" sketch rank in
          let v, bound = E.quick_with_bound twin ~rank in
          same ~what:("quick " ^ what) (Client.quick c (`Rank rank))
            [ ("value", int v); ("rank", int rank); ("bound", num bound) ];
          same ~what:("accurate " ^ what) (Client.accurate c (`Rank rank))
            (("rank", int rank) :: accurate_fields (E.accurate twin ~rank)))
        (spread ~count:60 (E.total_size twin));
      same ~what:(sketch ^ " stats") (Client.stats c)
        [
          ("n", int (E.total_size twin));
          ("hist", int (E.hist_size twin));
          ("stream", int (E.stream_size twin));
          ("steps", int (E.time_steps twin));
          ("epsilon", num (E.epsilon twin));
          ("sketch", Json.to_string (Json.Str "gk"));
          ("memory_words", int (E.memory_words twin));
          ("windows", Json.to_string (Json.List (List.map Json.int (G.window_sizes gtwin))));
          ("durable", "false");
        ];
      let w = List.nth (G.window_sizes gtwin) 1 in
      let n = Result.get_ok (G.window_total gtwin ~window:w) in
      List.iter
        (fun rank ->
          let what = Printf.sprintf "%s window %d rank %d" sketch w rank in
          let v, _, _ = Result.get_ok (G.quick_window gtwin ~window:w ~rank) in
          same ~what:("quick " ^ what) (Client.quick ~window:w c (`Rank rank))
            [ ("value", int v); ("rank", int rank); ("window", int w) ];
          same ~what:("accurate " ^ what) (Client.accurate ~window:w c (`Rank rank))
            (("rank", int rank) :: ("window", int w)
            :: group_fields (Result.get_ok (G.accurate_window gtwin ~window:w ~rank))))
        (spread ~count:10 n);
      (* the wire queries move the engine's query metrics as the
         twin's own queries moved its *)
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" sketch name)
            (int (Option.get (Hsq_obs.Metrics.counter_value (E.metrics twin) name)))
            (match wire_metric c name with Some j -> Json.to_string j | None -> "<absent>"))
        [
          "hsq_query_accurate_total";
          "hsq_query_degraded_total";
          "hsq_query_summary_cache_hits_total";
          "hsq_query_summary_cache_misses_total";
        ];
      (* Every wire quick counts, windows included, and every 64th is
         timed. *)
      let quicks =
        List.length (spread ~count:60 (E.total_size twin)) + List.length (spread ~count:10 n)
      in
      Alcotest.(check string) "hsq_query_quick_total is the quicks sent" (int quicks)
        (match wire_metric c "hsq_query_quick_total" with
        | Some j -> Json.to_string j
        | None -> "<absent>");
      Alcotest.(check (option int)) "hsq_query_quick_seconds samples" (Some (quicks / 64))
        (Option.bind (wire_metric c "hsq_query_quick_seconds") (fun h -> Json.get_int h "count"));
      Client.close c);
  E.close twin

(* Integers beyond 2^53 cross the wire exactly, both ways: a K=1 store
   fed over the wire with values near min_int and max_int (most above
   4e18 in magnitude) answers every quick and accurate query with the
   value its engine twin returns, and that value lies within the
   reported bound of an exact oracle. *)
let test_extreme_values_exact () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let twin = E.create config in
  let oracle = Hsq_workload.Oracle.create () in
  with_server (G.create config) (fun _ listen ->
      let c = Client.connect listen in
      let rng = Hsq_util.Xoshiro.create 0xB16 in
      let value () =
        let off = Hsq_util.Xoshiro.int rng 1_000_000_000_000 in
        match Hsq_util.Xoshiro.int rng 5 with
        | 0 -> max_int - off
        | 1 -> min_int + off
        | 2 -> 4_000_000_000_000_000_000 + off
        | 3 -> -4_000_000_000_000_000_000 - off
        | _ -> (if Hsq_util.Xoshiro.int rng 2 = 0 then max_int else min_int)
      in
      let feed n =
        let b = Array.init n (fun _ -> value ()) in
        Alcotest.(check int) "applied" n (Client.observe c b);
        Array.iter (E.observe twin) b;
        Hsq_workload.Oracle.add_batch oracle b
      in
      for _ = 1 to 4 do
        feed 600;
        Client.end_step c;
        ignore (E.end_time_step twin)
      done;
      feed 300;
      let n = E.total_size twin in
      let top = ref min_int in
      List.iter
        (fun rank ->
          let quick = Client.quick c (`Rank rank) in
          let v, _ = E.quick_with_bound twin ~rank in
          Alcotest.(check int) (Printf.sprintf "quick rank %d" rank) v (Client.value_of quick);
          check_bounded ~what:"quick" oracle quick;
          let accurate = Client.accurate c (`Rank rank) in
          let v, _ = E.accurate twin ~rank in
          Alcotest.(check int) (Printf.sprintf "accurate rank %d" rank) v (Client.value_of accurate);
          check_bounded ~what:"accurate" oracle accurate;
          top := max !top v)
        (spread ~count:40 n);
      if !top < 4_000_000_000_000_000_000 then
        Alcotest.failf "no answer reached 4e18 (largest %d)" !top;
      Client.close c);
  E.close twin

(* Windows at K=3 over the wire: every aligned window answers within
   its reported bound against an oracle of that window's steps plus the
   stream; a misaligned one answers window_not_aligned with the sizes
   every shard shares; and once shards have skipped different steps,
   windows are refused rather than mixing periods. *)
let test_group_windows () =
  let g = G.create (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards:3 (Hsq.Config.Epsilon 0.05)) in
  with_server g (fun _ listen ->
      let c = Client.connect listen in
      let rng = Hsq_util.Xoshiro.create 0x3A1D in
      let draw count = Array.init count (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
      let steps = List.init 7 (fun _ -> draw 600) in
      List.iter
        (fun b ->
          ignore (Client.observe c b);
          Client.end_step c)
        steps;
      let stream = draw 300 in
      ignore (Client.observe c stream);
      let windows () =
        match Json.get_list (Client.stats c) "windows" with
        | Some l -> List.filter_map Json.as_int l
        | None -> Alcotest.fail "stats has no windows"
      in
      let sizes = windows () in
      Alcotest.(check bool) "several windows answerable" true (List.length sizes >= 2);
      List.iter
        (fun w ->
          let oracle = Hsq_workload.Oracle.create () in
          List.iteri (fun i b -> if i >= 7 - w then Hsq_workload.Oracle.add_batch oracle b) steps;
          Hsq_workload.Oracle.add_batch oracle stream;
          List.iter
            (fun phi ->
              let what = Printf.sprintf "window %d phi %g" w phi in
              check_bounded ~what:("quick " ^ what) oracle (Client.quick ~window:w c (`Phi phi));
              check_bounded ~what:("accurate " ^ what) oracle
                (Client.accurate ~window:w c (`Phi phi)))
            [ 0.01; 0.25; 0.5; 0.75; 1.0 ])
        sizes;
      let misaligned = List.find (fun w -> not (List.mem w sizes)) (List.init 8 (fun w -> w + 1)) in
      let refused = Client.quick ~window:misaligned c (`Phi 0.5) in
      Alcotest.(check (option string))
        "misaligned window" (Some "window_not_aligned") (Client.error_kind refused);
      Alcotest.(check string)
        "refusal lists the shared sizes"
        (Json.to_string (Json.List (List.map Json.int sizes)))
        (field refused "windows");
      (* Archive the stream, then a step reaching shard 0 only and one
         reaching shards 1 and 2 only: every shard has archived the same
         number of steps, but not of the same periods, so windows are
         refused until a step reaches every shard, and then cover only
         that step. *)
      Client.end_step c;
      let only keep =
        Array.of_list (List.filter (fun v -> keep (G.route g v)) (Array.to_list (draw 300)))
      in
      List.iter
        (fun b ->
          ignore (Client.observe c b);
          Client.end_step c)
        [ only (( = ) 0); only (( <> ) 0) ];
      Alcotest.(check (list int)) "no window once shards skipped different steps" [] (windows ());
      List.iter
        (fun r ->
          Alcotest.(check (option string))
            "skewed steps refuse windows" (Some "window_not_aligned") (Client.error_kind r);
          Alcotest.(check string) "no shared size" "[]" (field r "windows"))
        [ Client.quick ~window:1 c (`Phi 0.5); Client.accurate ~window:1 c (`Phi 0.5) ];
      let last = draw 600 and tail = draw 200 in
      ignore (Client.observe c last);
      Client.end_step c;
      ignore (Client.observe c tail);
      Alcotest.(check (list int)) "a step reaching every shard answers alone" [ 1 ] (windows ());
      let oracle = Hsq_workload.Oracle.create () in
      List.iter (Hsq_workload.Oracle.add_batch oracle) [ last; tail ];
      List.iter
        (fun phi ->
          let what = Printf.sprintf "window 1 after the skips, phi %g" phi in
          check_bounded ~what:("quick " ^ what) oracle (Client.quick ~window:1 c (`Phi phi));
          check_bounded ~what:("accurate " ^ what) oracle (Client.accurate ~window:1 c (`Phi phi)))
        [ 0.01; 0.5; 1.0 ];
      let past = Client.quick ~window:2 c (`Phi 0.5) in
      Alcotest.(check (option string))
        "a window reaching past the skips" (Some "window_not_aligned") (Client.error_kind past);
      Alcotest.(check string) "refusal offers the one step" "[1]" (field past "windows");
      Client.close c)

(* The K=1 metrics dump stays one flat object: the engine's and the
   daemon's own metrics side by side at top level, no name twice. *)
let test_k1_metrics_flat () =
  let g, _ = preloaded_group ~seed:7 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server g (fun _ listen ->
      let c = Client.connect listen in
      ignore (Client.accurate c (`Phi 0.5));
      let top = [ "hsq_io_writes_total"; "hsq_serve_queue_wait_seconds"; "hsq_serve_requests_ok_total" ] in
      let no_repeats what names =
        Alcotest.(check int) (what ^ ": no name twice") (List.length names)
          (List.length (List.sort_uniq String.compare names))
      in
      (match Json.member (Client.metrics c) "metrics" with
      | Some (Json.Obj fields) ->
        let names = List.map fst fields in
        List.iter
          (fun name ->
            if not (List.mem name names) then Alcotest.failf "json dump: %s not at top level" name)
          top;
        no_repeats "json dump" names
      | _ -> Alcotest.fail "json dump is not one object");
      let body =
        Client.request c (Json.Obj [ ("op", Json.Str "metrics"); ("format", Json.Str "prometheus") ])
        |> fun r -> Option.value ~default:"" (Json.get_str r "body")
      in
      let types =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "#"; "TYPE"; name; _ ] -> Some name
            | _ -> None)
          (String.split_on_char '\n' body)
      in
      List.iter
        (fun name ->
          if not (List.mem name types) then Alcotest.failf "prometheus dump: %s missing" name)
        top;
      no_repeats "prometheus dump" types;
      if contains body "shard=" then Alcotest.fail "K=1 prometheus dump carries shard labels";
      Client.close c)

(* Request-scoped group commit: under [always] an observe request is
   one WAL flush, whatever its size — five requests of 200 values are
   five flushes, not a thousand. *)
let test_observe_one_sync_per_request () =
  with_temp_dir (fun dir ->
      let config =
        Hsq.Config.make ~wal_dir:(Filename.concat dir "store") ~wal_sync:Hsq_storage.Wal.Always
          (Hsq.Config.Epsilon 0.02)
      in
      let g, _ = G.open_or_recover config in
      with_server g (fun _ listen ->
          let c = Client.connect listen in
          let syncs () =
            match Option.bind (wire_metric c "hsq_wal_syncs_total") Json.as_int with
            | Some n -> n
            | None -> Alcotest.fail "no hsq_wal_syncs_total in the metrics dump"
          in
          let before = syncs () in
          for i = 0 to 4 do
            Alcotest.(check int) "whole request applied" 200
              (Client.observe c (Array.init 200 (fun j -> (i * 200) + j)))
          done;
          Alcotest.(check int) "one flush per observe request" 5 (syncs () - before);
          Client.close c))

(* A merge cascade that hits a device fault defers, and the end_step
   reply says so at K=1 as at K=2 (the route of test_durable's
   close-during-deferred-merge: fill level 0, then fail reads). *)
let test_end_step_deferred_merge () =
  List.iter
    (fun shards ->
      let g = G.create (Hsq.Config.make ~kappa:3 ~block_size:32 ~shards (Hsq.Config.Epsilon 0.05)) in
      with_server g (fun srv listen ->
          let c = Client.connect listen in
          let step s =
            ignore (Client.observe c (Array.init 200 (fun i -> (s * 200) + i)));
            Client.request c (Json.Obj [ ("op", Json.Str "end_step") ])
          in
          let faults on =
            Server.submit_fn srv (fun g ->
                List.iter
                  (fun (_, e) ->
                    BD.set_injector (E.device e)
                      (if on then Some (fun op ~attempt:_ _ -> if op = BD.Read then Some BD.Fail else None)
                       else None))
                  (G.engines g))
          in
          for s = 0 to 2 do
            let r = step s in
            Alcotest.(check bool) "step acknowledged" true (Client.is_ok r);
            Alcotest.(check string) "no deferral before the fault" "<absent>" (field r "deferred_merge")
          done;
          faults true;
          let r = step 3 in
          faults false;
          Alcotest.(check bool) "deferred step still acknowledged" true (Client.is_ok r);
          if Json.get_str r "deferred_merge" = None then
            Alcotest.failf "K=%d: no deferred_merge in %s" shards (Json.to_string r);
          Alcotest.(check string)
            (Printf.sprintf "K=%d: every shard deferred" shards)
            (Json.to_string (Json.List (List.init shards Json.int)))
            (field r "deferred_shards");
          Client.close c))
    [ 1; 2 ]

(* --- chaos: device faults under live client traffic -------------------- *)

let chaos_coin ~seed ~salt addr pct =
  let h = (addr * 2654435761) lxor (seed * 40503) lxor (salt * 8191) in
  (h land 0x3fffffff) mod 100 < pct

let run_device_chaos ~seed () =
  let config =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 (Hsq.Config.Epsilon 0.05)
  in
  let g, oracle = preloaded_group ~config ~seed ~steps:5 ~per_step:600 ~stream:200 () in
  with_server g (fun srv listen ->
      let n = G.total_size g in
      let ranks =
        List.map (fun phi -> max 1 (int_of_float (ceil (phi *. float_of_int n)))) [ 0.1; 0.5; 0.9 ]
      in
      let sweep ~what =
        (* concurrent clients; the engine itself still serializes *)
        let threads =
          List.map
            (fun rank ->
              Thread.create
                (fun () ->
                  let c = Client.connect listen in
                  for _ = 1 to 5 do
                    check_bounded ~what oracle (Client.quick c (`Rank rank));
                    check_bounded ~what oracle (Client.accurate c ~deadline_ms:2_000.0 (`Rank rank))
                  done;
                  Client.close c)
                ())
            ranks
        in
        List.iter Thread.join threads
      in
      sweep ~what:"healthy";
      (* inject persistent block faults in a job — the same
         serialized path queries use, so the flip cannot race them *)
      Server.submit_fn srv (fun g ->
          BD.set_injector (E.device (engine g))
            (Some
               (fun op ~attempt:_ addr ->
                 if op = BD.Read && chaos_coin ~seed ~salt:2 addr 15 then
                   if chaos_coin ~seed ~salt:3 addr 50 then Some BD.Fail
                   else Some (BD.Corrupt (addr land 7))
                 else None)));
      sweep ~what:"faulted";
      (* heal: clear the injector and repair-scrub, again serialized *)
      Server.submit_fn srv (fun g ->
          BD.set_injector (E.device (engine g)) None;
          let rep = Hsq.Engine.scrub ~repair:true (engine g) in
          if rep.Hsq.Engine.still_quarantined <> 0 then
            Alcotest.failf "seed %d: %d partitions quarantined after repair scrub" seed
              rep.Hsq.Engine.still_quarantined);
      sweep ~what:"healed";
      let c = Client.connect listen in
      Alcotest.(check (option bool))
        "healthy after heal" (Some true)
        (Json.get_bool (Client.health c) "healthy");
      let final = Client.accurate c (`Phi 0.5) in
      Alcotest.(check (option string))
        "undegraded after heal" (Some "none") (Json.get_str final "degradation");
      Client.close c)

(* --- inline quick answers ------------------------------------------------ *)

(* Zero staleness: after every acked observe batch on connection A, the
   next two full-store quicks on connection B resolve phi 1.0 against the
   acked total and answer within their bounds.  Accurates and step cuts
   are interleaved. *)
let test_inline_freshness () =
  let config = Hsq.Config.make ~kappa:3 ~block_size:32 (Hsq.Config.Epsilon 0.05) in
  let oracle = Hsq_workload.Oracle.create () in
  with_server (G.create config) (fun _ listen ->
      let a = Client.connect listen and b = Client.connect listen in
      let rng = Hsq_util.Xoshiro.create (0xF2E5 + 1) in
      let acked = ref 0 in
      for round = 1 to 40 do
        let batch = Array.init 60 (fun _ -> Hsq_util.Xoshiro.int rng 100_000) in
        acked := !acked + Client.observe a batch;
        Hsq_workload.Oracle.add_batch oracle batch;
        for _ = 1 to 2 do
          let what = Printf.sprintf "round %d quick" round in
          let r = Client.quick b (`Phi 1.0) in
          Alcotest.(check (option int)) (what ^ " sees every acked element") (Some !acked)
            (Json.get_int r "rank");
          check_bounded ~what oracle r
        done;
        if round mod 3 = 0 then
          check_bounded ~what:(Printf.sprintf "round %d accurate" round) oracle
            (Client.accurate b (`Phi 0.5));
        if round mod 10 = 0 then Client.end_step a
      done;
      Client.close a;
      Client.close b)

(* After an accurate quarantines a partition, the next wire quick
   answers exactly as a fresh [G.quick_with_bound] in a job, quarantine
   and all. *)
let test_inline_after_quarantine () =
  let config =
    Hsq.Config.make ~kappa:3 ~block_size:32 ~quarantine_after:2 (Hsq.Config.Epsilon 0.05)
  in
  let g, _ = preloaded_group ~config ~seed:9 ~steps:5 ~per_step:600 ~stream:200 () in
  with_server g (fun srv listen ->
      let c = Client.connect listen in
      Server.submit_fn srv (fun g ->
          BD.set_injector (E.device (engine g))
            (Some
               (fun op ~attempt:_ addr ->
                 if op = BD.Read && chaos_coin ~seed:9 ~salt:2 addr 30 then Some BD.Fail else None)));
      (* quicks past the injector job *)
      for _ = 1 to 2 do
        Alcotest.(check (option string))
          "undegraded before the accurates" (Some "none")
          (Json.get_str (Client.quick c (`Phi 0.5)) "degradation")
      done;
      let rec quarantine tries =
        if tries = 0 then Alcotest.fail "no accurate quarantined a partition";
        let phi = 0.05 +. (0.9 *. float_of_int (tries mod 10) /. 10.0) in
        let r = Client.accurate c (`Phi phi) in
        if Json.get_str r "degradation" <> Some "quarantined" then quarantine (tries - 1)
      in
      quarantine 60;
      let r = Client.quick c (`Phi 0.5) in
      let rank = Option.get (Json.get_int r "rank") in
      let expected = ref None in
      Server.submit_fn srv (fun g -> expected := Some (G.quick_with_bound g ~rank));
      let v, bound, degradation = Option.get !expected in
      Alcotest.(check string) "fresh answer is quarantined" "quarantined"
        (G.degradation_label degradation);
      same ~what:"quick after quarantine" r
        [
          ("value", int v);
          ("bound", num bound);
          ("degradation", Json.to_string (Json.Str (G.degradation_label degradation)));
        ];
      Client.close c)

(* Once the drain has begun, a quick on a connection opened before it
   is refused with shutting_down. *)
let test_inline_drain () =
  let g, _ = preloaded_group ~seed:10 ~steps:2 ~per_step:500 ~stream:100 () in
  with_server g (fun srv listen ->
      let c = Client.connect listen in
      for _ = 1 to 2 do
        Alcotest.(check bool) "quick before the drain" true (Client.is_ok (Client.quick c (`Phi 0.5)))
      done;
      let blocker = Thread.create (fun () -> Server.submit_fn srv (fun _ -> Thread.delay 0.5)) () in
      Thread.delay 0.1;
      Server.request_stop srv;
      Thread.delay 0.1 (* the drain has begun and waits on the job *);
      Alcotest.(check (option string))
        "quick mid-drain" (Some "shutting_down")
        (Client.error_kind (Client.quick c (`Phi 0.5)));
      Thread.join blocker;
      Server.wait srv;
      Client.close c)

(* Every full-store quick goes through the admission queue, and every
   answer counts as a served, timed request. *)
let test_inline_split () =
  let g, oracle = preloaded_group ~seed:11 ~steps:4 ~per_step:800 ~stream:300 () in
  with_server g (fun _ listen ->
      let c = Client.connect listen in
      let quicks = ref 0 and accurates = ref 0 and observes = ref 0 in
      for i = 1 to 120 do
        let phi = float_of_int (i mod 19 + 1) /. 20.0 in
        check_bounded ~what:"split quick" oracle (Client.quick c (`Phi phi));
        incr quicks;
        if i mod 7 = 0 then begin
          check_bounded ~what:"split accurate" oracle (Client.accurate c (`Phi phi));
          incr accurates
        end;
        if i mod 40 = 0 then begin
          let b = Array.init 20 (fun j -> (i * 1000) + j) in
          ignore (Client.observe c b);
          Hsq_workload.Oracle.add_batch oracle b;
          incr observes
        end
      done;
      let m = Client.metrics c in
      let reg = Option.get (Json.member m "metrics") in
      let get name = Option.value ~default:(-1) (Json.get_int reg name) in
      (* admitted: the quicks, accurates, observes, and this metrics request *)
      Alcotest.(check int) "admitted = quicks + accurates + observes + 1"
        (!quicks + !accurates + !observes + 1)
        (get "hsq_serve_requests_admitted_total");
      Alcotest.(check int) "every answer counted ok" (!quicks + !accurates + !observes)
        (get "hsq_serve_requests_ok_total");
      Alcotest.(check (option int))
        "every answer timed" (Some (!quicks + !accurates + !observes))
        (Option.bind (Json.member reg "hsq_serve_request_seconds") (fun h -> Json.get_int h "count"));
      Client.close c)

(* --- chaos: kill -9 the real daemon mid-ingest, restart, verify -------- *)

let bin () =
  match Sys.getenv_opt "HSQ_BIN" with
  | Some p -> p
  | None -> Alcotest.fail "HSQ_BIN not set (run through dune)"

let spawn_daemon ~sock ~store =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let bin = bin () in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--socket"; sock; "--durable"; store; "--wal-sync"; "always" |]
      Unix.stdin null null
  in
  Unix.close null;
  pid

let run_kill_restart ~seed () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "hsq.sock" in
      let store = Filename.concat dir "store" in
      let pid = spawn_daemon ~sock ~store in
      let listen = Server.Unix_sock sock in
      (* Ingest increasing values 1,2,3,... in batches; track how many
         were acknowledged.  A worker thread keeps the load flowing
         while the main thread pulls the trigger. *)
      let acked = ref 0 and sent = ref 0 in
      let stop = Atomic.make false in
      let worker =
        Thread.create
          (fun () ->
            let c = Client.connect listen in
            (try
               let batch = 64 in
               while not (Atomic.get stop) do
                 let base = !sent in
                 let values = Array.init batch (fun i -> base + i + 1) in
                 sent := base + batch;
                 let r =
                   Client.request c
                     (Json.Obj
                        [
                          ("op", Json.Str "observe");
                          ( "values",
                            Json.List (Array.to_list (Array.map Json.int values)) );
                        ])
                 in
                 (match Json.get_int r "applied" with
                 | Some a -> acked := !acked + a
                 | None -> ());
                 if !sent mod (batch * 16) = 0 && Client.is_ok r then
                   ignore (Client.request c (Json.Obj [ ("op", Json.Str "end_step") ]))
               done
             with Client.Protocol_error _ | Unix.Unix_error _ -> ());
            Client.close c)
          ()
      in
      (* let some load through, then kill without ceremony *)
      Thread.delay (0.3 +. (0.05 *. float_of_int (seed mod 4)));
      Unix.kill pid Sys.sigkill;
      Atomic.set stop true;
      Thread.join worker;
      ignore (Unix.waitpid [] pid);
      Alcotest.(check bool) "some load was acknowledged" true (!acked > 0);
      (* restart over the same store: recovery must preserve every
         acknowledged observation (wal-sync=always) *)
      let pid2 = spawn_daemon ~sock ~store in
      let c = Client.connect ~retries:100 listen in
      let stats = Client.stats c in
      let n =
        match Json.get_int stats "n" with
        | Some n -> n
        | None -> Alcotest.fail "no n in stats"
      in
      if n < !acked then
        Alcotest.failf "seed %d: lost acknowledged observations: acked %d, recovered %d" seed
          !acked n;
      if n > !sent then
        Alcotest.failf "seed %d: recovered %d > sent %d" seed n !sent;
      (* values were 1..sent in order, so the recovered multiset is
         exactly {1..n} and the oracle is exact *)
      List.iter
        (fun phi ->
          let rank = max 1 (int_of_float (ceil (phi *. float_of_int n))) in
          let r = Client.accurate c (`Rank rank) in
          if not (Client.is_ok r) then
            Alcotest.failf "post-restart accurate failed: %s" (Json.to_string r);
          let v = Client.value_of r in
          let bound = Option.value ~default:0.0 (Client.bound_of r) in
          let err = abs (v - rank) in
          if float_of_int err > bound then
            Alcotest.failf "seed %d: post-restart rank %d got %d, err %d > bound %.1f" seed rank
              v err bound)
        [ 0.1; 0.5; 0.9 ];
      (* clean drain this time *)
      Client.drain c;
      Client.close c;
      match Unix.waitpid [] pid2 with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED code -> Alcotest.failf "drained daemon exited %d" code
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "drained daemon killed by %d" s)

(* A daemon whose descriptor table fills keeps serving: under
   [ulimit -n 16], more idle connections than it has descriptors left
   stay in the listen backlog (accept fails with EMFILE) rather than
   draining it.  Once they close, a new client's ping is answered, and
   a drain still exits 0. *)
let test_full_descriptor_table () =
  with_temp_dir (fun dir ->
      let sock = Filename.concat dir "hsq.sock" in
      let store = Filename.concat dir "store" in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Unix.create_process "/bin/sh"
          [|
            "sh"; "-c"; "ulimit -n 16 && exec \"$0\" serve --socket \"$1\" --durable \"$2\"";
            bin (); sock; store;
          |]
          Unix.stdin null null
      in
      Unix.close null;
      let listen = Server.Unix_sock sock in
      let running () = fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 in
      let c = Client.connect ~retries:100 listen in
      Client.ping c;
      let idle = List.init 24 (fun _ -> Client.connect listen) in
      Thread.delay 0.3;
      let fds = Printf.sprintf "/proc/%d/fd" pid in
      if Sys.file_exists fds then
        Alcotest.(check bool) "the descriptor table is full" true
          (Array.length (Sys.readdir fds) >= 16);
      Alcotest.(check bool) "running with the table full" true (running ());
      List.iter Client.close idle;
      Thread.delay 0.3;
      let fresh = Client.connect listen in
      Client.ping fresh;
      Alcotest.(check bool) "running after the connections closed" true (running ());
      Client.close fresh;
      Client.drain c;
      Client.close c;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED code -> Alcotest.failf "drained daemon exited %d" code
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Alcotest.failf "drained daemon killed by %d" s)

(* --- closed-loop load ------------------------------------------------------- *)

(* Closed-loop clients against an in-process daemon over a K x R group
   preloaded with four archived steps and an open stream: each
   connection issues one request, waits for the reply and repeats until
   the clock runs out, drawing quick, accurate and 64-value observe
   requests from a seeded [quick_pct]/[accurate_pct]/rest mix.  An
   [overloaded] shed honours the daemon's retry-after hint, and a
   [timeout] or a [shutting_down] are expected answers under load;
   anything else that is not ok is a client-visible error.  With
   [kill_replica], one replica of shard 0 is killed through [submit_fn]
   halfway through the run and a probe quick must still answer fully
   undegraded, while the clients keep going through the blip.  The run
   must answer something, show no client-visible error, and drain to a
   closed group. *)
let closed_loop_load ?(conns = 4) ?(secs = 1.0) ?(shards = 1) ?(replicas = 1)
    ?(kill_replica = false) ~mix:(quick_pct, accurate_pct) () =
  let what =
    Printf.sprintf "K=%d R=%d, %d conns, %d/%d/%d mix" shards replicas conns quick_pct
      accurate_pct
      (100 - quick_pct - accurate_pct)
  in
  let g = G.create (Hsq.Config.make ~shards ~replicas (Hsq.Config.Epsilon 0.01)) in
  let rng = Random.State.make [| 42; 7 |] in
  for _ = 1 to 4 do
    for _ = 1 to 20_000 do
      G.observe g (Random.State.int rng 1_000_000)
    done;
    ignore (G.end_time_step g)
  done;
  for _ = 1 to 5_000 do
    G.observe g (Random.State.int rng 1_000_000)
  done;
  let ok = Atomic.make 0 and errors = Atomic.make 0 and first_error = Atomic.make None in
  let client_error msg =
    Atomic.incr errors;
    ignore (Atomic.compare_and_set first_error None (Some msg))
  in
  let worker listen ~seed ~deadline =
    let rng = Random.State.make [| seed |] in
    let phi () = `Phi (0.01 +. Random.State.float rng 0.98) in
    let c = Client.connect listen in
    let record r =
      if Client.is_ok r then Atomic.incr ok
      else
        match Client.error_kind r with
        | Some "overloaded" ->
          Option.iter (fun ms -> Thread.delay (ms /. 1000.0)) (Client.retry_after_ms r)
        | Some ("timeout" | "shutting_down") -> ()
        | _ -> client_error (Json.to_string r)
    in
    (try
       while Unix.gettimeofday () < deadline do
         let pick = Random.State.int rng 100 in
         record
           (if pick < quick_pct then Client.quick c (phi ())
            else if pick < quick_pct + accurate_pct then
              Client.accurate c ~deadline_ms:500.0 (phi ())
            else
              Client.request c
                (Json.Obj
                   [
                     ("op", Json.Str "observe");
                     ( "values",
                       Json.List (List.init 64 (fun _ -> Json.int (Random.State.int rng 1_000_000)))
                     );
                   ]))
       done
     with Client.Protocol_error msg -> client_error ("protocol error: " ^ msg));
    Client.close c
  in
  let probe =
    with_server g (fun srv listen ->
        let deadline = Unix.gettimeofday () +. secs in
        let workers =
          List.init conns (fun i ->
              Thread.create (fun () -> worker listen ~seed:(42 + (31 * i)) ~deadline) ())
        in
        let probe =
          if not kill_replica then None
          else begin
            Thread.delay (secs /. 2.0);
            Server.submit_fn srv (fun g ->
                G.mark_replica_down g ~shard:0 ~replica:(replicas - 1)
                  ~reason:"closed-loop load: replica killed");
            let c = Client.connect listen in
            let r = Client.quick c (`Phi 0.5) in
            Client.close c;
            Some r
          end
        in
        List.iter Thread.join workers;
        Server.stop srv;
        probe)
  in
  Option.iter
    (fun r ->
      Alcotest.(check (option string))
        (what ^ ": probe quick after the kill is undegraded")
        (Some "none") (Json.get_str r "degradation"))
    probe;
  Alcotest.(check bool) (what ^ ": drain closed the group") true (G.is_closed g);
  (match Atomic.get first_error with
  | Some msg -> Alcotest.failf "%s: %d client-visible errors, first: %s" what (Atomic.get errors) msg
  | None -> ());
  Alcotest.(check bool) (what ^ ": requests answered") true (Atomic.get ok > 0)

let test_closed_loop_load () =
  closed_loop_load ~mix:(70, 20) ();
  closed_loop_load ~shards:2 ~mix:(20, 10) ();
  closed_loop_load ~shards:4 ~mix:(70, 20) ();
  closed_loop_load ~shards:2 ~replicas:2 ~kill_replica:true ~mix:(70, 20) ()

(* --- soak (nightly: HSQ_SERVE_SOAK_SECS) ------------------------------- *)

let soak_secs =
  match Sys.getenv_opt "HSQ_SERVE_SOAK_SECS" with
  | Some s -> ( try max 0 (int_of_string (String.trim s)) with _ -> 0)
  | None -> 0

let run_soak () =
  let deadline = Unix.gettimeofday () +. float_of_int soak_secs in
  let round = ref 0 in
  while Unix.gettimeofday () < deadline do
    incr round;
    run_device_chaos ~seed:(100 + !round) ();
    run_kill_restart ~seed:(200 + !round) ();
    closed_loop_load ~conns:16 ~secs:10.0 ~shards:2 ~mix:(20, 10) ();
    Printf.printf "soak: round %d done (%.0fs left)\n%!" !round
      (Float.max 0.0 (deadline -. Unix.gettimeofday ()))
  done

let () =
  let quick_cases =
    [
      ( "wire format",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json errors" `Quick test_json_errors;
          Alcotest.test_case "json render = float codec below 2^53" `Quick
            test_json_render_matches_float_codec;
          Alcotest.test_case "json number literals" `Quick test_json_number_literals;
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "basics: query, ingest, metrics, health, drain" `Quick test_basics;
          Alcotest.test_case "stalled client is cut" `Quick test_slow_client;
          Alcotest.test_case "over-long line refused with its newline" `Quick
            test_line_cap_with_newline;
          Alcotest.test_case "pipelined and split lines answered in order" `Quick
            test_pipelined_and_split_lines;
          Alcotest.test_case "queue-aged request times out" `Quick test_queue_deadline;
          Alcotest.test_case "2x-capacity flood sheds explicitly" `Quick test_flood;
          Alcotest.test_case "mid-drain connect gets shutting_down" `Quick test_drain_race;
          Alcotest.test_case "a reader that stalls is cut, others served" `Quick
            test_stalled_reader;
          Alcotest.test_case "a lent engine keeps ping live and replies ordered" `Quick
            test_lent_engine_order;
          Alcotest.test_case "descriptor past FD_SETSIZE refused" `Quick test_fd_setsize_refused;
          Alcotest.test_case "sharded backend over the wire" `Quick test_sharded_server;
          Alcotest.test_case "replicated failover over the wire" `Quick test_replicated_server;
          Alcotest.test_case "closed-loop load" `Quick test_closed_loop_load;
        ] );
      ( "one surface",
        [
          Alcotest.test_case "K=1 answers as the engine" `Quick test_k1_matches_engine;
          Alcotest.test_case "integers past 2^53 exact over the wire" `Quick
            test_extreme_values_exact;
          Alcotest.test_case "windows at K=3" `Quick test_group_windows;
          Alcotest.test_case "K=1 metrics dump is flat" `Quick test_k1_metrics_flat;
          Alcotest.test_case "one WAL flush per observe request" `Quick
            test_observe_one_sync_per_request;
          Alcotest.test_case "end_step reports deferred merges" `Quick
            test_end_step_deferred_merge;
        ] );
      ( "inline",
        [
          Alcotest.test_case "every acked write is seen" `Quick test_inline_freshness;
          Alcotest.test_case "a quarantine invalidates the snapshot" `Quick
            test_inline_after_quarantine;
          Alcotest.test_case "none once the drain began" `Quick test_inline_drain;
          Alcotest.test_case "inline plus queued is the quicks sent" `Quick test_inline_split;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "device faults under live traffic" `Quick (run_device_chaos ~seed:11);
          Alcotest.test_case "kill -9 and restart, zero acked loss" `Quick
            (run_kill_restart ~seed:1);
          Alcotest.test_case "a full descriptor table does not drain" `Quick
            test_full_descriptor_table;
        ] );
    ]
  in
  let soak_cases =
    if soak_secs > 0 then
      [ ("soak", [ Alcotest.test_case (Printf.sprintf "%ds" soak_secs) `Slow run_soak ]) ]
    else []
  in
  Alcotest.run "serve" (quick_cases @ soak_cases)
