(* Span trees (see the mli for the contract).

   Everything that mutates the tree — opening, closing, attaching
   attributes — runs under the trace's single mutex. Span records are
   only handed out after being pushed, and readers ([roots], accessors)
   copy under the same lock, so a reporter on one domain can walk spans
   while probe workers on others are still closing theirs. *)

type span = {
  sname : string;
  start : float;
  mutable dur : float; (* 0 while open *)
  mutable sattrs : (string * string) list; (* reverse order of addition *)
  mutable children_rev : span list;
}

type t = {
  lock : Mutex.t;
  mutable roots_rev : span list;
  mutable stack : span list; (* innermost first; with_span only *)
  mutable live : int; (* spans retained (all trees, open or closed) *)
  max_spans : int;
  mutable n_dropped : int;
}

let create ?(max_spans = 1_000_000) () =
  { lock = Mutex.create (); roots_rev = []; stack = []; live = 0; max_spans; n_dropped = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* [parent = None] means "attach to the current stack top, or the root
   list"; [Some p] pins the parent explicitly and leaves the stack
   alone. Returns [None] when the span cap is hit. *)
let open_span t ~parent ~on_stack ?(attrs = []) name =
  locked t (fun () ->
      if t.live >= t.max_spans then (
        t.n_dropped <- t.n_dropped + 1;
        None)
      else begin
        let s =
          { sname = name;
            start = Metrics.now_s ();
            dur = 0.0;
            sattrs = List.rev attrs;
            children_rev = [] }
        in
        t.live <- t.live + 1;
        (match parent with
        | Some p -> p.children_rev <- s :: p.children_rev
        | None -> (
          match t.stack with
          | top :: _ -> top.children_rev <- s :: top.children_rev
          | [] -> t.roots_rev <- s :: t.roots_rev));
        if on_stack then t.stack <- s :: t.stack;
        Some s
      end)

let close_span t ~on_stack s =
  locked t (fun () ->
      (* Clamp to a positive floor so "closed" is distinguishable from
         "open" (dur = 0) even when the clock doesn't tick. *)
      s.dur <- Float.max 1e-9 (Metrics.now_s () -. s.start);
      if on_stack then
        match t.stack with
        | top :: rest when top == s -> t.stack <- rest
        | _ ->
          (* A mismatched close means with_span nesting was broken across
             domains; drop the whole stack rather than corrupt it. *)
          t.stack <- [])

let run t ~parent ~on_stack ?attrs name f =
  match open_span t ~parent ~on_stack ?attrs name with
  | None ->
    (* Over the cap: run the body untraced against a detached span so
       callers can still hang children/attrs off something harmless. *)
    f { sname = name; start = 0.0; dur = 0.0; sattrs = []; children_rev = [] }
  | Some s -> Fun.protect ~finally:(fun () -> close_span t ~on_stack s) (fun () -> f s)

let with_span t ?attrs name f = run t ~parent:None ~on_stack:true ?attrs name f
let with_child t ~parent ?attrs name f = run t ~parent:(Some parent) ~on_stack:false ?attrs name f

let add_attr t s k v = locked t (fun () -> s.sattrs <- (k, v) :: s.sattrs)

let roots t = locked t (fun () -> List.rev (List.filter (fun s -> s.dur > 0.0) t.roots_rev))

let clear t =
  locked t (fun () ->
      t.roots_rev <- [];
      t.stack <- [];
      t.live <- 0;
      t.n_dropped <- 0)

let dropped t = locked t (fun () -> t.n_dropped)

let name s = s.sname

(* Attribute order = order of addition; last write wins on duplicates. *)
let attrs s =
  let seen = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace seen k v) (List.rev s.sattrs);
  List.rev
    (List.fold_left
       (fun acc (k, _) ->
         match Hashtbl.find_opt seen k with
         | Some v ->
           Hashtbl.remove seen k;
           (k, v) :: acc
         | None -> acc)
       []
       (List.rev s.sattrs))

let attr s k = List.assoc_opt k (attrs s)
let children s = List.rev s.children_rev
let duration_s s = s.dur

let rec find_all s n =
  let here = if s.sname = n then [ s ] else [] in
  here @ List.concat_map (fun c -> find_all c n) (children s)

let to_json span =
  let b = Buffer.create 256 in
  let rec go s =
    Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\"" (Metrics.json_escape s.sname));
    Buffer.add_string b (Printf.sprintf ",\"dur_us\":%.1f" (s.dur *. 1e6));
    (match attrs s with
    | [] -> ()
    | kvs ->
      Buffer.add_string b ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\"%s\":\"%s\"" (Metrics.json_escape k) (Metrics.json_escape v)))
        kvs;
      Buffer.add_char b '}');
    (match children s with
    | [] -> ()
    | cs ->
      Buffer.add_string b ",\"children\":[";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char b ',';
          go c)
        cs;
      Buffer.add_char b ']');
    Buffer.add_char b '}'
  in
  go span;
  Buffer.contents b
