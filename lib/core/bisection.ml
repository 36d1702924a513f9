module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace
module Partition = Hsq_hist.Partition
module Run = Hsq_storage.Run
module Block_device = Hsq_storage.Block_device
module Partition_summary = Hsq_hist.Partition_summary

let clamp_rank ~n r = if r < 1 then 1 else if r > n then n else r

(* phi-quantiles per Definition 1: rank = ceil(phi * n), clamped.
   [who] names the caller in the error. *)
let rank_of_phi ~who ~n phi =
  if not (phi > 0.0 && phi <= 1.0) then invalid_arg (who ^ ": phi not in (0,1]");
  clamp_rank ~n (int_of_float (ceil (phi *. float_of_int n)))

(* The rank window an answer can be off by: [max (U - r) (r - L)] from
   the union summary's Lemma 2 windows, widened by [widen] elements the
   summary cannot place (quarantined partitions, lost shards). *)
let rank_bound us ~rank v ~widen =
  let r = float_of_int rank in
  let lo, hi = Union_summary.rank_window us v in
  Float.max (hi -. r) (r -. lo) +. float_of_int widen

(* Algorithm 5, and with its bound the answer every degraded path falls
   back to.  [us] must be non-empty. *)
let memory_value us ~rank =
  Union_summary.quick_select us ~rank:(clamp_rank ~n:(Union_summary.n_total us) rank)

let memory_answer us ~rank ~widen =
  let rank = clamp_rank ~n:(Union_summary.n_total us) rank in
  let v = Union_summary.quick_select us ~rank in
  (v, rank_bound us ~rank v ~widen)

(* Per-call deadline wins over the config default; both count wall
   clock from [start], the query's start. *)
let deadline_at ~start ?deadline_ms (config : Config.t) =
  match (deadline_ms, config.Config.query_deadline_ms) with
  | Some d, _ | None, Some d -> Some (start +. (d /. 1000.0))
  | None, None -> None

type ('o, 'm) view = {
  summary : Union_summary.t;
  probes : ('o * Partition.t) list;
  meta : 'm;
}

type ('o, 'm, 'd) step =
  | Bisect of ('o, 'm) view
  | From_memory of Union_summary.t * 'd * int

type ('o, 'm, 'd) policy = {
  outcome : ('o, 'm) view -> [ `Completed | `Deadline ] -> 'd * int;
  note_success : 'o -> Partition.t -> unit;
  on_failure : tries:int -> ('o, 'm) view -> 'o -> Partition.t -> ('o, 'm, 'd) step;
}

type 'd result = {
  answer : int;
  degradation : 'd;
  bound : float;
  iterations : int;
  io : Hsq_storage.Io_stats.counters;
  span : Trace.span option;
}

(* Internal control flow of one bisection: a probe that exhausted the
   device's bounded retries (carrying its index in the view's probes),
   and a bisection cut by the deadline (carrying the surviving filter
   interval [u, v]). *)
exception Probe_failure of int
exception Deadline_cut of int * int

(* The shared rank budget: each source's stream estimate is within
   ±ε₂·m_s of its true stream rank, so the summed estimate is within
   Σ_s ε₂·m_s — one band for the whole query, not one per source
   (DESIGN.md §14).  Returns (stopping band, Σ ε₂·m_s).  The stopping
   band of Algorithm 8 is [tolerance_factor] times that budget: the
   paper stops within ±ε·m (factor 4); callers default to the tighter
   factor 1/2 — the rho estimate is already that accurate, the extra
   bisection steps mostly hit cached blocks, and the answer improves
   ~4x.  This knob is the accuracy/disk-access axis of the tradeoff
   space the paper's conclusion discusses; the ablation bench sweeps
   it. *)
let budget ~tolerance_factor streams =
  List.fold_left
    (fun (tol, eps_m) ss ->
      let m = float_of_int (Stream_summary.stream_size ss) in
      let eps2 = Stream_summary.eps2 ss in
      (tol +. (tolerance_factor *. eps2 *. m), eps_m +. (eps2 *. m)))
    (0.0, 0.0) streams

(* The width [v - u] of a bracket [u <= v], as an Int64: values span the
   whole int range, so the width can exceed [max_int]. *)
let[@inline] width u v = Int64.sub (Int64.of_int v) (Int64.of_int u)

(* ⌈log₂ (v - u)⌉ for [u < v]: the bit length of [v - u - 1].  It
   takes the bracket's ends, not its width, so no Int64 crosses a call
   boxed. *)
let ceil_log2_width u v =
  let n = ref 0 and x = ref (Int64.pred (width u v)) in
  while !x <> 0L do
    incr n;
    x := Int64.shift_right_logical !x 1
  done;
  !n

(* ⌊(u + v)/2⌋ without forming [u + v]; [u + (v - u)/2] for [u <= v]. *)
let midpoint u v = (u asr 1) + (v asr 1) + (u land v land 1)

(* The secant gate G, in stopping bands: the union summary's windows are
   precise enough to aim with only where their half-widths are at most
   G bands.  EXPERIMENTS.md sweeps it: accurate-disk windows are 42
   bands wide, serve-read 81, the paper's full-scale figures at least
   565, and the secant cost reads from about 500 up. *)
let secant_gate = 128.0

(* [candidate] (see the interface), in two halves: [secant_serves]
   decides whether the secant serves, leaving the windows at [u] and
   [v] in slots 0-3 of [win], an eight-float scratch array a bisection
   reuses for every iteration, and [secant_point], or on the first
   iteration [model_point], aims it.  None of them allocates. *)
let secant_serves win us ~tolerance ~past ~u ~v =
  (match past with a :: b :: _ -> a <> b | _ -> true)
  && width u v > 1L
  &&
  (Union_summary.window_into us u win 0;
   Union_summary.window_into us v win 2;
   let gate = secant_gate *. tolerance in
   (win.(1) -. win.(0)) /. 2.0 <= gate
   && (win.(3) -. win.(2)) /. 2.0 <= gate
   && (win.(0) +. win.(1)) /. 2.0 < (win.(2) +. win.(3)) /. 2.0)

(* The ITP clamp of the offset from [u] held in [win.(7)].  After [d]
   decisions the bracket is at most [2^(N − d)] wide, so ITP's radius
   [2^(N − d − 1) − (v − u)/2] around the midpoint is, in integers,
   [[v − h, u + h]] with [h = 2^(N − d − 1)]: offsets from [u] in
   [[w − h, h]], which the midpoint always meets.  Offsets are Int64, as
   brackets over full-range values are wider than [max_int]. *)
let itp_clamp win ~filters:(u0, v0) ~past ~u ~v =
  let w = width u v in
  let h = Int64.shift_left 1L (ceil_log2_width u0 v0 - List.length past - 1) in
  let lo = if Int64.sub w h > 1L then Int64.sub w h else 1L
  and hi = if Int64.pred w < h then Int64.pred w else h in
  let flo = Int64.to_float lo and fhi = Int64.to_float hi and off = win.(7) in
  let off =
    Int64.of_float
      (if off > flo then if off < fhi then off else fhi else if flo < fhi then flo else fhi)
  in
  let off = if off < hi then off else hi in
  let off = if off > lo then off else lo in
  Int64.to_int (Int64.add (Int64.of_int u) off)

(* The secant point on the windows [secant_serves] left in [win]. *)
let secant_point win ~rank ~filters ~past ~u ~v =
  let cu = (win.(0) +. win.(1)) /. 2.0 and cv = (win.(2) +. win.(3)) /. 2.0 in
  win.(7) <- (float_of_int rank -. cu) /. (cv -. cu) *. Int64.to_float (width u v);
  itp_clamp win ~filters ~past ~u ~v

(* The rank model ρ̂(z): each probed partition's rank interpolated inside
   its summary gap around z ({!Partition_summary.interpolated_rank},
   within the gap's exact bounds), plus the stream estimate the
   bisection decides with.  [model_gap] leaves ρ̂(z) − r in
   [win.(slot)]. *)
let model_gap win summaries streams ~rank z slot =
  let h = ref 0 in
  for i = 0 to Array.length summaries - 1 do
    h := !h + Partition_summary.interpolated_rank summaries.(i) z
  done;
  Stream_summary.rank_estimate_sum_into streams z win slot;
  win.(slot) <- float_of_int !h +. win.(slot) -. float_of_int rank

(* Regula-falsi steps the model's root takes at most (Illinois variant:
   an end kept twice has its gap halved, so the steps close in from
   both sides).  The model is nearly linear between summary entries, so
   a few steps usually bring it within a rank of r, where they stop. *)
let model_steps = 8

(* Whether the model has a shape to interpolate at [z]: no probed
   partition whose summary holds only its minimum and maximum has [z]
   between them.  Such a partition's gap is the whole partition, and
   interpolating across it is a line through the partition's range,
   far off on curved data: the small-memory figure points read more
   with it (EXPERIMENTS.md "Rank model"). *)
let shaped summaries z =
  let ok = ref true in
  for i = 0 to Array.length summaries - 1 do
    let s = summaries.(i) in
    if Partition_summary.length s = 2 && Partition_summary.count_le s z = 1 then ok := false
  done;
  !ok

(* The first candidate where the secant serves: the root of ρ̂ − r in
   [(u, v)], under the ITP clamp.  The ends' gaps sit in [win.(5)] and
   [win.(6)], each new point's in [win.(4)], so no float is boxed; a
   model placing r at or beyond an end gives that end, which the clamp
   moves inside.  Where the model has no shape at its root ([shaped]),
   the union summary's line serves instead ([`Secant]). *)
let model_point win us summaries ~rank ~filters ~past ~u ~v =
  let streams = Union_summary.streams us in
  model_gap win summaries streams ~rank u 5;
  model_gap win summaries streams ~rank v 6;
  let z =
    if win.(5) >= 0.0 then u
    else if win.(6) <= 0.0 then v
    else begin
      let a = ref u and b = ref v and kept = ref 0 and z = ref u and steps = ref 0 in
      while !steps < model_steps && width !a !b > 1L do
        incr steps;
        let w = width !a !b in
        let off = Int64.of_float (win.(5) /. (win.(5) -. win.(6)) *. Int64.to_float w) in
        let off = if off < 1L then 1L else if off >= w then Int64.pred w else off in
        let c = Int64.to_int (Int64.add (Int64.of_int !a) off) in
        model_gap win summaries streams ~rank c 4;
        z := c;
        if win.(4) > -1.0 && win.(4) < 1.0 then steps := model_steps
        else if win.(4) < 0.0 then begin
          a := c;
          win.(5) <- win.(4);
          if !kept < 0 then win.(6) <- win.(6) /. 2.0;
          kept := -1
        end
        else begin
          b := c;
          win.(6) <- win.(4);
          if !kept > 0 then win.(5) <- win.(5) /. 2.0;
          kept := 1
        end
      done;
      !z
    end
  in
  if shaped summaries z then begin
    win.(7) <- Int64.to_float (width u z);
    (itp_clamp win ~filters ~past ~u ~v, `Model)
  end
  else (secant_point win ~rank ~filters ~past ~u ~v, `Secant)

(* The candidate on the scratch [win], eight floats, and its rule;
   [search] aims every iteration through it.  The first iteration's
   secant is the model's root where the model serves ([`Model]), every
   other one the union summary's line. *)
let choose win us summaries ~rank ~tolerance ~filters ~past ~u ~v =
  if secant_serves win us ~tolerance ~past ~u ~v then
    match past with
    | [] -> model_point win us summaries ~rank ~filters ~past ~u ~v
    | _ :: _ -> (secant_point win ~rank ~filters ~past ~u ~v, `Secant)
  else (midpoint u v, `Midpoint)

let candidate us ~summaries ~rank ~tolerance ~filters ~past ~u ~v =
  match choose (Array.make 8 0.0) us summaries ~rank ~tolerance ~filters ~past ~u ~v with
  | z, (`Model | `Secant) -> (z, `Secant)
  | z, `Midpoint -> (z, `Midpoint)

let model_rank us ~summaries z =
  let win = Array.make 8 0.0 in
  model_gap win summaries (Union_summary.streams us) ~rank:0 z 4;
  win.(4)

(* One round's batch: slot [k] reads block [addrs.(k)] of [devs.(k)]
   into [blocks.(k)] for probe [who.(k)].  On a failed read, the reads
   before it landed: they go to their runs' caches, as a lone read's
   would, and the failed probe raises [Probe_failure]. *)
let read_batch searches who devs addrs blocks k =
  try Block_device.read_batch devs addrs blocks ~n:k
  with Block_device.Batch_error (j, _) ->
    for s = 0 to j - 1 do
      Run.feed searches.(who.(s)) blocks.(s)
    done;
    raise (Probe_failure who.(j))

(* What the summed windows of one iteration's probe rounds decided:
   [Here], the answer is the point probed; [Above], it is [v] (width-1
   brackets only); [Left] and [Right], the side the bisection keeps. *)
type verdict = Undecided | Here | Above | Left | Right

(* One full bisection over a fixed view: bisect the value domain
   between the filters at [candidate]'s points, probing each partition
   with a summary-bounded (and progressively narrowed) search for its
   historical rank, and estimating the stream rank rho2 from the stream
   summaries.  Stops inside the tolerance band, or at a width-1
   interval, where v is the answer when the estimate at u still falls
   short of r (rank(u) <= r <= rank(v) is invariant).  Counts the
   iterations and the probe rounds that read.  Raises [Probe_failure]
   and [Deadline_cut].

   The loops below hold their state in arrays of ints and in unboxed
   floats: probe [i] drives its partition's own search
   ({!Partition.probe}), framed on the window its summary gives for
   [u0, v0]; windows are read through {!Run.lo}/{!Run.hi} and the
   decision is taken on two local floats, so an iteration allocates
   little beyond the blocks it reads. *)
let search ?trace ?deadline_at ~iterations ~rounds ~tolerance view ~rank =
  let filters = Union_summary.filters view.summary ~rank in
  let u0, v0 = filters in
  let parts = Array.of_list (List.map snd view.probes) in
  let n = Array.length parts in
  let searches = Array.map Partition.probe parts in
  let summaries = Array.map Partition.summary parts in
  let w = Array.make 5 0 in
  for i = 0 to n - 1 do
    Partition_summary.search_window_into summaries.(i) ~u:u0 ~v:v0 w 0;
    Run.frame searches.(i) ~lo:w.(0) ~hi:w.(1) ~ylo:w.(2) ~yhi:w.(3) ~known:w.(4)
  done;
  let streams = Union_summary.streams view.summary in
  (* [scratch] holds {!choose}'s floats and, in slot 4, the summed
     stream estimate, so none is boxed. *)
  let r = float_of_int rank and scratch = Array.make 8 0.0 in
  (* One round's batch ({!read_batch}), reused by every round. *)
  let who = Array.make n 0 and addrs = Array.make n 0 and blocks = Array.make n [||] in
  let devs = Array.map (fun p -> Run.device (Partition.run p)) parts in
  (* Traced: one span per round under the iteration's span, with the
     probes it served, how many of their blocks interpolation chose, and
     the physical reads it made. *)
  let read_round span k ~guided =
    incr rounds;
    match (trace, span) with
    | Some (trc, _), Some parent ->
      Trace.with_child trc ~parent
        ~attrs:[ ("probes", string_of_int k); ("guided", string_of_int guided) ]
        "round"
        (fun sp ->
          let reads = read_batch searches who devs addrs blocks k in
          Trace.add_attr trc sp "reads" (string_of_int reads))
    | _ -> ignore (read_batch searches who devs addrs blocks k)
  in
  let still_open = ref 0 in
  (* Probe rounds (the paper's future-work parallel partition
     processing): every partition's search restarts from its frame
     (settled at once when the summary or earlier steps closed it);
     each round advances all searches on the blocks they hold, then
     sums their windows with the stream estimate rho2 into
     [rho_min, rho_max], which holds the exact rho(z) of lines 2-10, as
     a partition's rank(z) lies in its search's window ([lo = hi] once
     settled).  The round's verdict comes from that interval once it is
     settled either way: at a width-1 bracket ([last]) whether u
     already covers r or v is needed, else left, right or done against
     the stopping band.  Until then the round reads the next block of
     every search still open in one batch, in probe order, so an
     iteration waits on its longest per-partition chain of reads, not
     their sum, and stops reading as soon as the windows decide it.
     Leaves in [still_open] the searches open at the verdict, and the
     frames narrowed to the side it keeps.  The deadline is checked
     before each read; a cut carries the interval [u, v] being
     bisected.  A [narrow] iteration (the model's candidate) starts each
     search from its frame cut down to the summary gap around z, whose
     entries anchor the first, interpolated, read. *)
  let probe_rounds span ~u ~v z ~last ~narrow =
    Stream_summary.rank_estimate_sum_into streams z scratch 4;
    let rho2 = scratch.(4) in
    for i = 0 to n - 1 do
      if narrow then begin
        Partition_summary.search_window_into summaries.(i) ~u:z ~v:z w 0;
        Run.restart_within searches.(i) ~lo:w.(0) ~hi:w.(1) ~ylo:w.(2) ~yhi:w.(3) ~known:w.(4) z
      end
      else Run.restart searches.(i) z;
      who.(i) <- i
    done;
    let m = ref n in
    let verdict = ref Undecided in
    while !verdict = Undecided do
      let k = ref 0 and guided = ref 0 in
      for j = 0 to !m - 1 do
        let i = who.(j) in
        let addr = Run.advance searches.(i) in
        if addr >= 0 then begin
          who.(!k) <- i;
          addrs.(!k) <- addr;
          devs.(!k) <- Run.device (Partition.run parts.(i));
          if Run.guided searches.(i) then incr guided;
          incr k
        end
      done;
      let lo_sum = ref 0 and hi_sum = ref 0 in
      for i = 0 to n - 1 do
        lo_sum := !lo_sum + Run.lo searches.(i);
        hi_sum := !hi_sum + Run.hi searches.(i)
      done;
      let rho_min = float_of_int !lo_sum +. rho2 and rho_max = float_of_int !hi_sum +. rho2 in
      verdict :=
        if last then if rho_min >= r then Here else if rho_max < r then Above else Undecided
        else if r < rho_min -. tolerance then Left
        else if r > rho_max +. tolerance then Right
        else if r >= rho_max -. tolerance && r <= rho_min +. tolerance then Here
        else Undecided;
      still_open := !k;
      if !verdict = Undecided then begin
        (* Undecided means some window is still open, so [k > 0]. *)
        (match deadline_at with
        | Some d when Metrics.now_s () > d -> raise (Deadline_cut (u, v))
        | _ -> ());
        read_round span !k ~guided:!guided;
        (* Drop each block once fed: a slot left holding a block its
           run has since replaced would keep it alive for the query. *)
        for j = 0 to !k - 1 do
          Run.feed searches.(who.(j)) blocks.(j);
          blocks.(j) <- [||]
        done;
        m := !k
      end
    done;
    (* Each bisection step shrinks the per-partition frames too
       ({!Run.keep}).  A search the decision cut short leaves its last
       block in its run's cache, which the next iteration's search
       settles first, with no read. *)
    if !verdict = Left || !verdict = Right then
      for i = 0 to n - 1 do
        Run.keep searches.(i) ~left:(!verdict = Left)
      done;
    !verdict
  in
  (* Each bisection iteration's body runs in its own child span of the
     query root; the recursion happens after the iteration span closed,
     so iterations are siblings, not nested.  The deadline is checked
     between iterations and between probe rounds; a cut carries the
     current interval so the caller can clamp its best-so-far answer.
     Every rule above fires on [rho_min, rho_max] only when it would
     fire on the exact rho inside it (float addition is monotone), so
     the decisions, the answer and the iteration count are those of
     exact ranks.  At width 1, rank(u,T) <= r <= rank(v,T) is
     invariant; v is the smallest candidate whose rank can reach r —
     the Definition-1 answer — unless the estimate says u already
     covers r. *)
  let rec bisect u v past =
    (match deadline_at with
    | Some d when Metrics.now_s () > d -> raise (Deadline_cut (u, v))
    | _ -> ());
    incr iterations;
    let last = width u v <= 1L in
    (* The candidate; at width 1 the secant never serves, and the
       midpoint is u, where the width-1 rule probes. *)
    let z, rule = choose scratch view.summary summaries ~rank ~tolerance ~filters ~past ~u ~v in
    let narrow = match rule with `Model -> true | `Secant | `Midpoint -> false in
    let verdict =
      match trace with
      | Some (trc, root) ->
        Trace.with_child trc ~parent:root
          ~attrs:
            [
              ("iter", string_of_int !iterations);
              ("u", string_of_int u);
              ("v", string_of_int v);
              ("z", string_of_int z);
              ("rule", match rule with `Model | `Secant -> "secant" | `Midpoint -> "midpoint");
            ]
          "bisect"
          (fun sp ->
            let verdict = probe_rounds (Some sp) ~u ~v z ~last ~narrow in
            Trace.add_attr trc sp "open" (string_of_int !still_open);
            verdict)
      | None -> probe_rounds None ~u ~v z ~last ~narrow
    in
    match verdict with
    | Here -> z
    | Above | Undecided -> v
    | Left -> bisect u z (`Left :: past)
    | Right -> bisect z v (`Right :: past)
  in
  bisect u0 v0 []

let retry_loop ?trace ?deadline_at ~rounds ~stats ~tolerance_factor ~policy ~rank first =
  let iterations = ref 0 in
  let before = Hsq_storage.Io_stats.sum_all stats in
  let finish answer degradation bound =
    {
      answer;
      degradation;
      bound;
      iterations = !iterations;
      io = Hsq_storage.Io_stats.(diff (sum_all stats) before);
      span = Option.map snd trace;
    }
  in
  let rec go tries = function
    | From_memory (us, degradation, widen) ->
      let answer, bound = memory_answer us ~rank ~widen in
      finish answer degradation bound
    | Bisect view -> (
      let rank = clamp_rank ~n:(Union_summary.n_total view.summary) rank in
      let streams = Union_summary.streams view.summary in
      let tolerance, eps_m = budget ~tolerance_factor streams in
      match search ?trace ?deadline_at ~iterations ~rounds ~tolerance view ~rank with
      | answer ->
        List.iter (fun (o, p) -> policy.note_success o p) view.probes;
        let degradation, widen = policy.outcome view `Completed in
        (* Honest bound the chaos oracle can check: the stopping band
           plus the stream estimates' own uncertainty (the bisection
           stops on an estimate that is exact over the probed history
           but ±ε₂·m_s over each stream, with integer-boundary slack
           per stream), plus everything the probes could not see. *)
        let nstreams = max 1 (List.length streams) in
        let estimate_slack = eps_m +. (2.0 *. float_of_int nstreams) in
        finish answer degradation (tolerance +. estimate_slack +. float_of_int widen)
      | exception Deadline_cut (u, v) ->
        (* Best-so-far: the quick answer clamped into the surviving
           filter interval [u, v] (rank(u) <= rank <= rank(v) is the
           bisection invariant, so the clamp only helps). *)
        let qa = Union_summary.quick_select view.summary ~rank in
        let best = if v >= u then max u (min v qa) else qa in
        let degradation, widen = policy.outcome view `Deadline in
        finish best degradation (rank_bound view.summary ~rank best ~widen)
      | exception Probe_failure i ->
        let owner, p = List.nth view.probes i in
        go (tries + 1) (policy.on_failure ~tries view owner p))
  in
  go 0 first

(* A traced query runs inside one [query.accurate] root span, whatever
   the caller (an engine, or a shard group fusing many): the bisect and
   round spans hang under it, and it carries the answer's iteration
   count, its number of probe rounds and, when degraded, the
   degradation's [label]. *)
let run ?trace ?deadline_at ~stats ~tolerance_factor ~policy ~rank first =
  let rounds = ref 0 in
  match trace with
  | None -> retry_loop ?deadline_at ~rounds ~stats ~tolerance_factor ~policy ~rank (first ())
  | Some (trc, label) ->
    Trace.with_span trc ~attrs:[ ("rank", string_of_int rank) ] "query.accurate" (fun sp ->
        let first = first () in
        let partitions =
          match first with Bisect view -> List.length view.probes | From_memory _ -> 0
        in
        Trace.add_attr trc sp "partitions" (string_of_int partitions);
        let res =
          retry_loop ~trace:(trc, sp) ?deadline_at ~rounds ~stats ~tolerance_factor ~policy ~rank
            first
        in
        Trace.add_attr trc sp "iterations" (string_of_int res.iterations);
        Trace.add_attr trc sp "rounds" (string_of_int !rounds);
        if res.degradation <> `None then Trace.add_attr trc sp "degradation" (label res.degradation);
        res)
