(* Thread-safe metrics registry (see the mli for the contract).

   Concurrency design, cheapest mechanism per type:
   - counters are a single [int Atomic.t] (fetch_and_add);
   - gauges are a [float Atomic.t] updated by CAS (sets are rare —
     per-batch, not per-element — so boxing a float per set is fine);
   - histograms take a per-histogram mutex: one observation updates
     a bucket, the count, the sum, and min/max together, and the lock
     is what makes "total count = observations" exact under domains;
   - the registry itself locks only registration and listing, never a
     metric update, so hot paths touch no shared registry state. *)

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let add c by = ignore (Atomic.fetch_and_add c by)
  let inc ?(by = 1) c = add c by
  let value = Atomic.get
  let set = Atomic.set
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let set g v = Atomic.set g v
  let value = Atomic.get

  let rec add g d =
    let cur = Atomic.get g in
    if not (Atomic.compare_and_set g cur (cur +. d)) then add g d
end

module Histogram = struct
  (* [bounds] are the log-spaced boundaries b_0 < b_1 < ...; bucket i
     holds observations in [b_(i-1), b_i) (closed-open), bucket 0 is
     (-inf, b_0) and the last bucket [b_(k-1), +inf) — so there are
     [Array.length bounds + 1] buckets. *)
  type t = {
    bounds : float array;
    counts : int array;
    mutable total : int;
    sum : float array; (* one cell, so [observe] adds to it unboxed *)
    lock : Mutex.t;
  }

  let make ~start ~factor ~buckets =
    if not (start > 0.0) then invalid_arg "Metrics.histogram: start must be > 0";
    if not (factor > 1.0) then invalid_arg "Metrics.histogram: factor must be > 1";
    if buckets < 1 then invalid_arg "Metrics.histogram: need at least one boundary";
    let bounds = Array.init buckets (fun i -> start *. (factor ** float_of_int i)) in
    { bounds; counts = Array.make (buckets + 1) 0; total = 0; sum = [| 0.0 |]; lock = Mutex.create () }

  (* Smallest i with v < bounds.(i); bucket count when v clears them
     all.  An observation equal to a boundary therefore lands in the
     higher bucket: buckets are [lo, hi). *)
  let bucket_index t v =
    let b = t.bounds in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if v < b.(mid) then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length b)

  let observe t v =
    let i = bucket_index t v in
    Mutex.lock t.lock;
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    t.sum.(0) <- t.sum.(0) +. v;
    Mutex.unlock t.lock

  let count t =
    Mutex.lock t.lock;
    let n = t.total in
    Mutex.unlock t.lock;
    n

  let sum t =
    Mutex.lock t.lock;
    let s = t.sum.(0) in
    Mutex.unlock t.lock;
    s

  let buckets t =
    Mutex.lock t.lock;
    let counts = Array.copy t.counts in
    Mutex.unlock t.lock;
    let k = Array.length t.bounds in
    Array.init (k + 1) (fun i ->
        let lo = if i = 0 then neg_infinity else t.bounds.(i - 1) in
        let hi = if i = k then infinity else t.bounds.(i) in
        (lo, hi, counts.(i)))

  (* Consistent (counts, total, sum) triple for the exporters. *)
  let snapshot t =
    Mutex.lock t.lock;
    let s = (Array.copy t.counts, t.total, t.sum.(0)) in
    Mutex.unlock t.lock;
    s
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t
  | M_counter_fn of (unit -> int)
  | M_gauge_fn of (unit -> float)

type entry = { metric : metric; help : string }

type t = { lock : Mutex.t; table : (string, entry) Hashtbl.t }

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

let now_s = Unix.gettimeofday

let kind_name = function
  | M_counter _ | M_counter_fn _ -> "counter"
  | M_gauge _ | M_gauge_fn _ -> "gauge"
  | M_histogram _ -> "histogram"

(* Idempotent registration: an existing entry of the right shape is
   returned as is ([select] projects it), any other shape is a naming
   bug worth failing loudly on. *)
let register t name ~help ~select ~fresh =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some e -> (
        match select e.metric with
        | Some m -> m
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name e.metric)))
      | None ->
        let m = fresh () in
        Hashtbl.replace t.table name { metric = m; help };
        m)

let counter ?(help = "") t name =
  match
    register t name ~help
      ~select:(function M_counter c -> Some (M_counter c) | _ -> None)
      ~fresh:(fun () -> M_counter (Counter.make ()))
  with
  | M_counter c -> c
  | _ -> assert false

let gauge ?(help = "") t name =
  match
    register t name ~help
      ~select:(function M_gauge g -> Some (M_gauge g) | _ -> None)
      ~fresh:(fun () -> M_gauge (Gauge.make ()))
  with
  | M_gauge g -> g
  | _ -> assert false

let histogram ?(help = "") ?(start = 1e-6) ?(factor = 2.0) ?(buckets = 26) t name =
  match
    register t name ~help
      ~select:(function M_histogram h -> Some (M_histogram h) | _ -> None)
      ~fresh:(fun () -> M_histogram (Histogram.make ~start ~factor ~buckets))
  with
  | M_histogram h -> h
  | _ -> assert false

let counter_fn ?(help = "") t name f =
  ignore
    (register t name ~help
       ~select:(function M_counter_fn f -> Some (M_counter_fn f) | _ -> None)
       ~fresh:(fun () -> M_counter_fn f))

let gauge_fn ?(help = "") t name f =
  ignore
    (register t name ~help
       ~select:(function M_gauge_fn f -> Some (M_gauge_fn f) | _ -> None)
       ~fresh:(fun () -> M_gauge_fn f))

(* Sorted (name, entry) snapshot; metric reads happen after the registry
   lock is released so an export never blocks hot-path updates. *)
let sorted_entries t =
  Mutex.lock t.lock;
  let all = Hashtbl.fold (fun name e acc -> (name, e) :: acc) t.table [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let names t = List.map fst (sorted_entries t)

let counter_value t name =
  Mutex.lock t.lock;
  let e = Hashtbl.find_opt t.table name in
  Mutex.unlock t.lock;
  match e with
  | Some { metric = M_counter c; _ } -> Some (Counter.value c)
  | Some { metric = M_counter_fn f; _ } -> Some (f ())
  | _ -> None

let gauge_value t name =
  Mutex.lock t.lock;
  let e = Hashtbl.find_opt t.table name in
  Mutex.unlock t.lock;
  match e with
  | Some { metric = M_gauge g; _ } -> Some (Gauge.value g)
  | Some { metric = M_gauge_fn f; _ } -> Some (f ())
  | _ -> None

(* Deterministic float formatting: %.9g round-trips every latency and
   boundary we produce, and never depends on locale. *)
let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Cumulative counts paired with each upper boundary (the +Inf bucket
   last) — the shape both exporters want. *)
let cumulative (h : Histogram.t) =
  let counts, total, sum = Histogram.snapshot h in
  let k = Array.length h.Histogram.bounds in
  let acc = ref 0 in
  let rows =
    Array.init (k + 1) (fun i ->
        acc := !acc + counts.(i);
        let le = if i = k then infinity else h.Histogram.bounds.(i) in
        (le, !acc))
  in
  (rows, total, sum)

(* Entries of several registries as one name-sorted list; equal names
   keep registry order, so a collision prints twice rather than hiding
   one of the metrics. *)
let merged_entries ts =
  List.fold_right
    (fun t acc -> List.merge (fun (a, _) (b, _) -> String.compare a b) (sorted_entries t) acc)
    ts []

let to_json_merged ts =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (name, e) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape name));
      match e.metric with
      | M_counter c -> Buffer.add_string b (string_of_int (Counter.value c))
      | M_counter_fn f -> Buffer.add_string b (string_of_int (f ()))
      | M_gauge g -> Buffer.add_string b (fnum (Gauge.value g))
      | M_gauge_fn f -> Buffer.add_string b (fnum (f ()))
      | M_histogram h ->
        let rows, total, sum = cumulative h in
        Buffer.add_string b (Printf.sprintf "{\"count\":%d,\"sum\":%s,\"buckets\":[" total (fnum sum));
        Array.iteri
          (fun i (le, n) ->
            if i > 0 then Buffer.add_char b ',';
            let le_s = if le = infinity then "\"+Inf\"" else fnum le in
            Buffer.add_string b (Printf.sprintf "{\"le\":%s,\"n\":%d}" le_s n))
          rows;
        Buffer.add_string b "]}")
    (merged_entries ts);
  Buffer.add_char b '}';
  Buffer.contents b

let to_json t = to_json_merged [ t ]

let to_prometheus_merged ts =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, e) ->
      if e.help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name e.help);
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (kind_name e.metric));
      match e.metric with
      | M_counter c -> Buffer.add_string b (Printf.sprintf "%s %d\n" name (Counter.value c))
      | M_counter_fn f -> Buffer.add_string b (Printf.sprintf "%s %d\n" name (f ()))
      | M_gauge g -> Buffer.add_string b (Printf.sprintf "%s %s\n" name (fnum (Gauge.value g)))
      | M_gauge_fn f -> Buffer.add_string b (Printf.sprintf "%s %s\n" name (fnum (f ())))
      | M_histogram h ->
        let rows, total, sum = cumulative h in
        Array.iter
          (fun (le, n) ->
            let le_s = if le = infinity then "+Inf" else fnum le in
            Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name le_s n))
          rows;
        Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (fnum sum));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" name total))
    (merged_entries ts);
  Buffer.contents b

let to_prometheus t = to_prometheus_merged [ t ]
