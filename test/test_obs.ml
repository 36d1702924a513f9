(* Observability layer: the metrics registry, the trace-span collector,
   and Io_stats' torn-read-freedom guarantee.

   The concurrency tests hammer one shared counter/histogram from
   several spawned domains and demand *exact* sums — the
   registry's contract is lossless accounting, not sampling. The
   boundary tests pin the closed-open [lo, hi) bucket convention: an
   observation equal to a boundary lands in the higher bucket. *)

module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace
module Io_stats = Hsq_storage.Io_stats

(* --- counters and gauges ------------------------------------------------ *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "t_total" in
  Metrics.Counter.inc c;
  Metrics.Counter.inc ~by:41 c;
  Alcotest.(check int) "inc accumulates" 42 (Metrics.Counter.value c);
  (* Registration is idempotent by name: same object comes back. *)
  let c' = Metrics.counter reg "t_total" in
  Metrics.Counter.inc c';
  Alcotest.(check int) "same counter behind the name" 43 (Metrics.Counter.value c);
  Alcotest.(check (option int)) "counter_value" (Some 43) (Metrics.counter_value reg "t_total");
  Alcotest.(check (option int)) "counter_value on absent name" None
    (Metrics.counter_value reg "nope");
  Metrics.Counter.set c 0;
  Alcotest.(check int) "set rewinds (reset path)" 0 (Metrics.Counter.value c);
  (* Same name, different type: a naming bug, fails loudly. *)
  Alcotest.check_raises "type mismatch rejected"
    (Invalid_argument "Metrics: \"t_total\" already registered as a counter") (fun () ->
      ignore (Metrics.gauge reg "t_total"))

let test_gauge_basics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "t_gauge" in
  Metrics.Gauge.set g 2.5;
  Metrics.Gauge.add g 1.0;
  Alcotest.(check (float 1e-9)) "set+add" 3.5 (Metrics.Gauge.value g);
  let cell = ref 7 in
  Metrics.counter_fn reg "t_pull_total" (fun () -> !cell);
  Metrics.gauge_fn reg "t_pull_gauge" (fun () -> float_of_int !cell /. 2.0);
  Alcotest.(check (option int)) "counter_fn reads through" (Some 7)
    (Metrics.counter_value reg "t_pull_total");
  cell := 9;
  Alcotest.(check (option int)) "counter_fn is pull-based" (Some 9)
    (Metrics.counter_value reg "t_pull_total")

(* --- histogram bucket semantics ----------------------------------------- *)

(* bounds = [1; 2; 4] → buckets (-inf,1) [1,2) [2,4) [4,+inf). *)
let small_hist reg = Metrics.histogram ~start:1.0 ~factor:2.0 ~buckets:3 reg "t_hist"

let test_histogram_boundaries () =
  let reg = Metrics.create () in
  let h = small_hist reg in
  let idx = Metrics.Histogram.bucket_index h in
  Alcotest.(check int) "below first bound" 0 (idx 0.5);
  Alcotest.(check int) "equal to a boundary -> higher bucket" 1 (idx 1.0);
  Alcotest.(check int) "interior" 1 (idx 1.5);
  Alcotest.(check int) "boundary 2.0 -> higher bucket" 2 (idx 2.0);
  Alcotest.(check int) "just under a boundary" 2 (idx 3.999);
  Alcotest.(check int) "last boundary -> overflow bucket" 3 (idx 4.0);
  Alcotest.(check int) "far overflow" 3 (idx 1e9);
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.999; 4.0; 1e9 ];
  Alcotest.(check int) "count = observations" 7 (Metrics.Histogram.count h);
  let buckets = Metrics.Histogram.buckets h in
  Alcotest.(check int) "bounds+1 buckets" 4 (Array.length buckets);
  let counts = Array.map (fun (_, _, n) -> n) buckets in
  Alcotest.(check (array int)) "per-bucket placement" [| 1; 2; 2; 2 |] counts;
  let lo0, _, _ = buckets.(0) and _, hi3, _ = buckets.(3) in
  Alcotest.(check bool) "first lo is -inf" true (lo0 = neg_infinity);
  Alcotest.(check bool) "last hi is +inf" true (hi3 = infinity)

(* --- exact accounting under domains ------------------------------------- *)

(* Run [f i] for every [i] in [0, n) on [lanes] spawned domains, lane
   [d] taking indices d, d + lanes, ... *)
let on_domains ?(lanes = 4) ~n f =
  List.init lanes (fun d ->
      Domain.spawn (fun () ->
          let i = ref d in
          while !i < n do
            f !i;
            i := !i + lanes
          done))
  |> List.iter Domain.join

let test_concurrent_exactness () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "t_conc_total" in
  let h = Metrics.histogram ~start:1.0 ~factor:2.0 ~buckets:8 reg "t_conc_hist" in
  let items = 8 and per_item = 5_000 in
  on_domains ~n:items (fun i ->
      for k = 1 to per_item do
        Metrics.Counter.inc c;
        (* Everything lands in bucket [1,2): placement contention too. *)
        Metrics.Histogram.observe h (1.0 +. (float_of_int ((i + k) mod 7) /. 8.0))
      done);
  let expect = items * per_item in
  Alcotest.(check int) "counter sums exactly" expect (Metrics.Counter.value c);
  Alcotest.(check int) "histogram count sums exactly" expect (Metrics.Histogram.count h);
  let bucket_total = Array.fold_left (fun a (_, _, n) -> a + n) 0 (Metrics.Histogram.buckets h) in
  Alcotest.(check int) "bucket counts sum to total" expect bucket_total

(* --- exporter stability -------------------------------------------------- *)

let test_exporters_stable_and_sorted () =
  let reg = Metrics.create () in
  (* Register deliberately out of name order. *)
  ignore (Metrics.counter ~help:"zeta" reg "t_z_total");
  let h = Metrics.histogram ~start:1.0 ~factor:2.0 ~buckets:2 reg "t_m_hist" in
  let g = Metrics.gauge reg "t_a_gauge" in
  Metrics.Gauge.set g 1.25;
  Metrics.Histogram.observe h 1.5;
  Metrics.counter_fn reg "t_k_total" (fun () -> 3);
  Alcotest.(check (list string)) "names sorted"
    [ "t_a_gauge"; "t_k_total"; "t_m_hist"; "t_z_total" ]
    (Metrics.names reg);
  let j1 = Metrics.to_json reg and p1 = Metrics.to_prometheus reg in
  let j2 = Metrics.to_json reg and p2 = Metrics.to_prometheus reg in
  Alcotest.(check string) "json export is reproducible" j1 j2;
  Alcotest.(check string) "prometheus export is reproducible" p1 p2;
  let contains hay needle =
    match Str.search_forward (Str.regexp_string needle) hay 0 with
    | _ -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "json leads with the first name" true
    (String.length j1 > 12 && String.sub j1 0 12 = "{\"t_a_gauge\"");
  (* Spot-check the cumulative histogram lines, +Inf last. *)
  Alcotest.(check bool) "prometheus cumulative +Inf bucket" true
    (contains p1 "t_m_hist_bucket{le=\"+Inf\"} 1");
  Alcotest.(check bool) "prometheus histogram count line" true (contains p1 "t_m_hist_count 1")

(* --- traces -------------------------------------------------------------- *)

let test_trace_nesting () =
  let tr = Trace.create () in
  let result =
    Trace.with_span tr ~attrs:[ ("rank", "7") ] "query.accurate" (fun root ->
        Trace.with_span tr "bisect" (fun b -> Trace.add_attr tr b "iter" "1");
        Trace.with_span tr "bisect" (fun b ->
            Trace.add_attr tr b "iter" "2";
            Trace.add_attr tr b "iter" "2b" (* last write wins *));
        Trace.add_attr tr root "iterations" "2";
        42)
  in
  Alcotest.(check int) "with_span returns the body's value" 42 result;
  match Trace.roots tr with
  | [ root ] ->
    Alcotest.(check string) "root name" "query.accurate" (Trace.name root);
    Alcotest.(check (option string)) "ctor attr" (Some "7") (Trace.attr root "rank");
    Alcotest.(check (option string)) "late attr" (Some "2") (Trace.attr root "iterations");
    Alcotest.(check bool) "closed span has duration" true (Trace.duration_s root > 0.0);
    let kids = Trace.children root in
    Alcotest.(check int) "two iteration children" 2 (List.length kids);
    Alcotest.(check (list string)) "children in order" [ "bisect"; "bisect" ]
      (List.map Trace.name kids);
    Alcotest.(check (option string)) "duplicate attr: last write wins" (Some "2b")
      (Trace.attr (List.nth kids 1) "iter");
    Alcotest.(check int) "find_all sees the subtree" 2 (List.length (Trace.find_all root "bisect"))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_children_from_domains () =
  let tr = Trace.create () in
  let n = 32 in
  Trace.with_span tr "query.accurate" (fun root ->
      on_domains ~n (fun i ->
          Trace.with_child tr ~parent:root "probe" (fun p ->
              Trace.add_attr tr p "partition" (string_of_int i))));
  match Trace.roots tr with
  | [ root ] ->
    Alcotest.(check int) "every domain's child attached" n (List.length (Trace.children root));
    let parts =
      List.filter_map (fun s -> Trace.attr s "partition") (Trace.children root)
      |> List.map int_of_string |> List.sort_uniq compare
    in
    Alcotest.(check int) "all partitions distinct" n (List.length parts)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_cap_and_clear () =
  let tr = Trace.create ~max_spans:2 () in
  for i = 1 to 5 do
    Trace.with_span tr (Printf.sprintf "span%d" i) (fun _ -> ())
  done;
  Alcotest.(check int) "cap keeps the first max_spans" 2 (List.length (Trace.roots tr));
  Alcotest.(check int) "overflow counted as dropped" 3 (Trace.dropped tr);
  Trace.clear tr;
  Alcotest.(check int) "clear empties the roots" 0 (List.length (Trace.roots tr));
  (* After clear the budget is back. *)
  Trace.with_span tr "fresh" (fun _ -> ());
  Alcotest.(check (list string)) "recording resumes" [ "fresh" ]
    (List.map Trace.name (Trace.roots tr))

(* --- accurate-query span trees -------------------------------------------- *)

(* A traced accurate query, from a lone engine or a K=3 shard group,
   carries [rounds] on its [query.accurate] root: the number of [round]
   spans under it, whose [reads] still sum to the query's physical
   reads.  Every [round] span carries [guided], its reads whose block
   interpolation chose, never more than its probes, which equal its
   reads; some rounds of the sweep are guided.  Every [bisect] span
   carries [open], the searches still unsettled when its step was
   decided; some steps of the sweep decide with searches open, so the
   rounds stop reading early.  Every [bisect] span also carries its
   candidate [z], inside its bracket [u, v], and the [rule] that chose
   it; the sweep takes both the secant and the midpoint. *)
let test_accurate_rounds_attr () =
  let int_attr span key =
    match Trace.attr span key with
    | Some v -> int_of_string v
    | None -> Alcotest.failf "%s span without %s" (Trace.name span) key
  in
  let cut_short = ref 0 and reads = ref 0 and guided = ref 0 and rules = ref [] in
  let check_query ctx root ~io =
    reads := !reads + io;
    let rounds = Trace.find_all root "round" in
    Alcotest.(check int) (ctx ^ ": rounds attr = round spans") (List.length rounds)
      (int_attr root "rounds");
    Alcotest.(check int) (ctx ^ ": round reads = io.reads") io
      (List.fold_left (fun acc sp -> acc + int_attr sp "reads") 0 rounds);
    List.iter
      (fun sp ->
        let g = int_attr sp "guided" in
        guided := !guided + g;
        if not (g <= int_attr sp "probes" && int_attr sp "probes" = int_attr sp "reads") then
          Alcotest.failf "%s: round with %d guided, %d reads, %d probes" ctx g (int_attr sp "reads")
            (int_attr sp "probes"))
      rounds;
    List.iter
      (fun sp ->
        if int_attr sp "open" > 0 then incr cut_short;
        let z = int_attr sp "z" in
        if z < int_attr sp "u" || z > int_attr sp "v" then
          Alcotest.failf "%s: candidate %d outside [%d, %d]" ctx z (int_attr sp "u") (int_attr sp "v");
        match Trace.attr sp "rule" with
        | Some ("secant" | "midpoint" as rule) -> rules := rule :: !rules
        | _ -> Alcotest.failf "%s: bisect span without a rule" ctx)
      (Trace.find_all root "bisect")
  in
  let config ~shards = Hsq.Config.make ~kappa:3 ~block_size:32 ~shards (Hsq.Config.Epsilon 0.02) in
  let feed ~observe ~end_step =
    let rng = Hsq_util.Xoshiro.create 41 in
    for _ = 1 to 9 do
      for _ = 1 to 1_500 do
        observe (Hsq_util.Xoshiro.int rng 1_000_000)
      done;
      end_step ()
    done;
    for _ = 1 to 600 do
      observe (Hsq_util.Xoshiro.int rng 1_000_000)
    done
  in
  let phis = [ 0.05; 0.25; 0.5; 0.75; 0.95 ] in
  let eng = Hsq.Engine.create (config ~shards:1) in
  feed ~observe:(Hsq.Engine.observe eng) ~end_step:(fun () -> ignore (Hsq.Engine.end_time_step eng));
  Hsq.Engine.set_tracer eng (Some (Trace.create ()));
  List.iter
    (fun phi ->
      let _, rep = Hsq.Engine.quantile eng phi in
      check_query (Printf.sprintf "engine phi=%g" phi) (Option.get rep.Hsq.Engine.span)
        ~io:rep.Hsq.Engine.io.Io_stats.reads)
    phis;
  Hsq.Engine.close eng;
  let module G = Hsq_shard.Shard_group in
  let g = G.create (config ~shards:3) in
  feed ~observe:(G.observe g) ~end_step:(fun () -> ignore (G.end_time_step g));
  let tr = Trace.create () in
  G.set_tracer g (Some tr);
  List.iter
    (fun phi ->
      Trace.clear tr;
      let _, rep = G.quantile g phi in
      match Trace.roots tr with
      | [ root ] -> check_query (Printf.sprintf "K=3 phi=%g" phi) root ~io:rep.G.io.Io_stats.reads
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))
    phis;
  G.close g;
  Alcotest.(check bool) "the queries read the disk" true (!reads > 0);
  Alcotest.(check bool) "some reads were guided" true (!guided > 0);
  Alcotest.(check bool) "some steps decided with searches open" true (!cut_short > 0);
  Alcotest.(check bool) "some candidates were secants" true (List.mem "secant" !rules);
  Alcotest.(check bool) "some candidates were midpoints" true (List.mem "midpoint" !rules)

(* --- Io_stats: registry integration and torn-read-freedom ---------------- *)

let test_io_stats_registry () =
  let reg = Metrics.create () in
  let a = Io_stats.create ~registry:reg () in
  Io_stats.note_read a 0;
  Io_stats.note_read a 1 (* sequential *);
  Io_stats.note_read a 10 (* random *);
  Io_stats.note_write a 11;
  Alcotest.(check (option int)) "reads exported by name" (Some 3)
    (Metrics.counter_value reg "hsq_io_reads_total");
  (* addr 0 (first read: random), addr 1 (sequential), addr 10 (random) *)
  Alcotest.(check (option int)) "seq/rand split exported" (Some 2)
    (Metrics.counter_value reg "hsq_io_rand_reads_total");
  (* A second stats object on the same registry shares the counters:
     aggregate accounting, as documented. *)
  let b = Io_stats.create ~registry:reg () in
  Io_stats.note_write b 0;
  Alcotest.(check int) "shared registry aggregates" 2 (Io_stats.snapshot a).Io_stats.writes;
  Io_stats.reset a;
  Alcotest.(check (option int)) "reset zeroes the exported counter" (Some 0)
    (Metrics.counter_value reg "hsq_io_reads_total")

let test_io_stats_torn_read_freedom () =
  let stats = Io_stats.create () in
  let writers = 3 and per_writer = 30_000 in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  (* A reader domain snapshots as fast as it can while the writers note
     reads; every snapshot must satisfy reads = seq + rand. *)
  let reader =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          let s = Io_stats.snapshot stats in
          if s.Io_stats.reads <> s.Io_stats.seq_reads + s.Io_stats.rand_reads then
            Atomic.incr torn;
          incr n
        done;
        !n)
  in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to per_writer do
              Io_stats.note_read stats ((w * per_writer) + i)
            done))
  in
  List.iter Domain.join doms;
  Atomic.set stop true;
  let snapshots_taken = Domain.join reader in
  Alcotest.(check int) "no torn snapshot observed" 0 (Atomic.get torn);
  Alcotest.(check bool) "reader actually raced the writers" true (snapshots_taken > 0);
  let s = Io_stats.snapshot stats in
  Alcotest.(check int) "total reads exact" (writers * per_writer) s.Io_stats.reads;
  Alcotest.(check int) "split still consistent at rest" s.Io_stats.reads
    (s.Io_stats.seq_reads + s.Io_stats.rand_reads)

(* Process-level pull gauges: present, live, and idempotent to
   re-register from multiple entry points. *)
let test_process_gauges () =
  let reg = Metrics.create () in
  Hsq_obs.Process.register reg;
  Hsq_obs.Process.register reg;
  (* second registration must not raise or duplicate *)
  Alcotest.(check (option (float 0.0))) "build info is the constant 1" (Some 1.0)
    (Metrics.gauge_value reg "hsq_build_info");
  (match Metrics.gauge_value reg "hsq_uptime_seconds" with
  | Some up -> Alcotest.(check bool) "uptime non-negative" true (up >= 0.0)
  | None -> Alcotest.fail "no uptime gauge");
  (match Metrics.gauge_value reg "hsq_gc_heap_words" with
  | Some w -> Alcotest.(check bool) "heap words positive" true (w > 0.0)
  | None -> Alcotest.fail "no heap gauge");
  (* live, not sampled-at-registration: allocate and expect growth *)
  (match Metrics.gauge_value reg "hsq_gc_major_words" with
  | None -> Alcotest.fail "no major-words gauge"
  | Some before ->
    let junk = Array.init 200_000 (fun i -> string_of_int i) in
    Gc.minor ();
    ignore (Sys.opaque_identity junk);
    (match Metrics.gauge_value reg "hsq_gc_major_words" with
    | Some after -> Alcotest.(check bool) "major words advanced" true (after > before)
    | None -> Alcotest.fail "gauge vanished"));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (List.mem name (Metrics.names reg)))
    [ "hsq_uptime_seconds"; "hsq_build_info"; "hsq_gc_minor_collections" ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge + pull metrics" `Quick test_gauge_basics;
          Alcotest.test_case "histogram closed-open buckets" `Quick test_histogram_boundaries;
          Alcotest.test_case "exact sums under domains" `Quick test_concurrent_exactness;
          Alcotest.test_case "process gauges" `Quick test_process_gauges;
          Alcotest.test_case "exporters stable and sorted" `Quick
            test_exporters_stable_and_sorted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and attrs" `Quick test_trace_nesting;
          Alcotest.test_case "children from other domains" `Quick
            test_trace_children_from_domains;
          Alcotest.test_case "max_spans cap and clear" `Quick test_trace_cap_and_clear;
          Alcotest.test_case "accurate rounds attr" `Quick test_accurate_rounds_attr;
        ] );
      ( "io_stats",
        [
          Alcotest.test_case "registry-backed counters" `Quick test_io_stats_registry;
          Alcotest.test_case "torn-read-freedom under domains" `Quick
            test_io_stats_torn_read_freedom;
        ] );
    ]
