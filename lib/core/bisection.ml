module Metrics = Hsq_obs.Metrics
module Trace = Hsq_obs.Trace
module Partition = Hsq_hist.Partition
module Run = Hsq_storage.Run
module Block_device = Hsq_storage.Block_device

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

type probe_state = {
  search : Run.search; (* this iteration's disk search of the partition's run *)
  device : Block_device.t;
  mutable lo : int; (* rank(z) within this partition is known to be in [lo, hi] *)
  mutable hi : int;
  mutable ylo : int option; (* the run's elements at [lo - 1] and [hi], when known *)
  mutable yhi : int option;
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
let width u v = Int64.sub (Int64.of_int v) (Int64.of_int u)

(* ⌈log₂ w⌉ for [w >= 1]: the bit length of [w - 1]. *)
let ceil_log2 w =
  let rec go n x = if x = 0L then n else go (n + 1) (Int64.shift_right_logical x 1) in
  go 0 (Int64.pred w)

(* ⌊(u + v)/2⌋ without forming [u + v]; [u + (v - u)/2] for [u <= v]. *)
let midpoint u v = (u asr 1) + (v asr 1) + (u land v land 1)

(* The secant gate G, in stopping bands: the union summary's windows are
   precise enough to aim with only where their half-widths are at most
   G bands.  EXPERIMENTS.md sweeps it: accurate-disk windows are 42
   bands wide, serve-read 81, the paper's full-scale figures at least
   565, and the secant cost reads from about 500 up. *)
let secant_gate = 128.0

(* [candidate] (see the interface).  After [d] decisions the bracket is
   at most [2^(N − d)] wide, so ITP's radius [2^(N − d − 1) − (v − u)/2]
   around the midpoint is, in integers, [[v − h, u + h]] with
   [h = 2^(N − d − 1)]: offsets from [u] in [[w − h, h]], which the
   midpoint always meets.  Offsets are Int64, as brackets over
   full-range values are wider than [max_int]. *)
let candidate us ~rank ~tolerance ~filters:(u0, v0) ~past ~u ~v =
  let w = width u v in
  let secant =
    match past with
    | a :: b :: _ when a = b -> None
    | _ when w <= 1L -> None
    | _ ->
      let lu, hu = Union_summary.rank_window us u and lv, hv = Union_summary.rank_window us v in
      let cu = (lu +. hu) /. 2.0 and cv = (lv +. hv) /. 2.0 in
      let gate = secant_gate *. tolerance in
      if (hu -. lu) /. 2.0 <= gate && (hv -. lv) /. 2.0 <= gate && cu < cv then
        Some ((float_of_int rank -. cu) /. (cv -. cu) *. Int64.to_float w)
      else None
  in
  match secant with
  | None -> (midpoint u v, `Midpoint)
  | Some off ->
    let h = Int64.shift_left 1L (ceil_log2 (width u0 v0) - List.length past - 1) in
    let lo = max 1L (Int64.sub w h) and hi = min (Int64.pred w) h in
    let off = Int64.of_float (Float.min (Int64.to_float hi) (Float.max (Int64.to_float lo) off)) in
    let off = max lo (min hi off) in
    (Int64.to_int (Int64.add (Int64.of_int u) off), `Secant)

(* One full bisection over a fixed view: bisect the value domain
   between the filters at [candidate]'s points, probing each partition
   with a summary-bounded (and progressively narrowed) search for its
   historical rank, and estimating the stream rank rho2 from the stream
   summaries.  Stops inside the tolerance band, or at a width-1
   interval, where v is the answer when the estimate at u still falls
   short of r (rank(u) <= r <= rank(v) is invariant).  Counts the
   iterations and the probe rounds that read.  Raises [Probe_failure]
   and [Deadline_cut]. *)
let search ?trace ?deadline_at ~iterations ~rounds ~tolerance view ~rank =
  let u0, v0 = Union_summary.filters view.summary ~rank in
  let probes =
    Array.of_list
      (List.map
         (fun (_, p) ->
           let w = Hsq_hist.Partition_summary.search_window (Partition.summary p) ~u:u0 ~v:v0 in
           let run = Partition.run p in
           {
             search = Run.search run;
             device = Run.device run;
             lo = w.lo;
             hi = w.hi;
             ylo = w.ylo;
             yhi = w.yhi;
           })
         view.probes)
  in
  let n = Array.length probes in
  let r = float_of_int rank in
  (* One round's batch, reused by every round of the query: slot [k]
     reads block [addrs.(k)] of [devs.(k)] into [blocks.(k)] for probe
     [who.(k)]. *)
  let who = Array.make n 0 and addrs = Array.make n 0 and blocks = Array.make n [||] in
  let devs = Array.map (fun st -> st.device) probes in
  let read_batch k =
    try Block_device.read_batch devs addrs blocks ~n:k
    with Block_device.Batch_error (j, _) ->
      (* The reads before the failed one landed: keep them in their
         runs' caches, as a lone read would have. *)
      for s = 0 to j - 1 do
        Run.feed probes.(who.(s)).search blocks.(s)
      done;
      raise (Probe_failure who.(j))
  in
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
        (fun sp -> Trace.add_attr trc sp "reads" (string_of_int (read_batch k)))
    | _ -> ignore (read_batch k)
  in
  (* rank(z) within a partition lies in its window: the search's
     current one while it runs ([lo = hi] once settled), else the
     closed window [lo, lo] the summary or earlier steps left. *)
  let window st = if st.lo < st.hi then Run.window st.search else (st.lo, st.lo) in
  (* Probe rounds (the paper's future-work parallel partition
     processing): every open window starts its partition's search; each
     round advances all searches on the blocks they hold, then sums
     their windows with the stream estimate rho2 into [rho_min, rho_max],
     which holds the exact rho(z) of lines 2-10.  [decide] turns that
     interval into the iteration's decision once it is settled either
     way; until then the round reads the next block of every search
     still open in one batch, in probe order, so an iteration waits on
     its longest per-partition chain of reads, not their sum, and stops
     reading as soon as the windows decide it.  Returns the decision and
     the number of searches still open.  The deadline is checked before
     each read; a cut carries the interval [u, v] being bisected. *)
  let probe_rounds span ~u ~v z ~decide =
    let rho2 =
      List.fold_left (fun acc ss -> acc +. Stream_summary.rank_estimate ss z) 0.0
        (Union_summary.streams view.summary)
    in
    let m = ref 0 in
    Array.iteri
      (fun i st ->
        if st.lo < st.hi then begin
          Run.start st.search ?ylo:st.ylo ?yhi:st.yhi ~lo:st.lo ~hi:st.hi z;
          who.(!m) <- i;
          incr m
        end)
      probes;
    let rec go m =
      let k = ref 0 and guided = ref 0 in
      for j = 0 to m - 1 do
        let i = who.(j) in
        let st = probes.(i) in
        let addr = Run.advance st.search in
        if addr >= 0 then begin
          who.(!k) <- i;
          addrs.(!k) <- addr;
          devs.(!k) <- st.device;
          if Run.guided st.search then incr guided;
          incr k
        end
      done;
      let k = !k in
      let lo_sum = ref 0 and hi_sum = ref 0 in
      Array.iter
        (fun st ->
          let lo, hi = window st in
          lo_sum := !lo_sum + lo;
          hi_sum := !hi_sum + hi)
        probes;
      match decide (float_of_int !lo_sum +. rho2) (float_of_int !hi_sum +. rho2) with
      | Some d -> (d, k)
      | None ->
        (* Undecided means some window is still open, so [k > 0]. *)
        (match deadline_at with
        | Some d when Metrics.now_s () > d -> raise (Deadline_cut (u, v))
        | _ -> ());
        read_round span k ~guided:!guided;
        (* Drop each block once fed: a slot left holding a block its
           run has since replaced would keep it alive for the query. *)
        for j = 0 to k - 1 do
          Run.feed probes.(who.(j)).search blocks.(j);
          blocks.(j) <- [||]
        done;
        go k
    in
    go !m
  in
  (* rank(z') for z' < z is at most rank(z), so at most its window's
     [hi], and at least its window's [lo] for z' > z — so each bisection
     step shrinks the per-partition windows too, and the kept end keeps
     the search's anchor for it.  A search the decision cut short leaves
     its last block in its run's cache, which the next iteration's
     search settles first, with no read. *)
  let narrow ~left =
    Array.iter
      (fun st ->
        if st.lo < st.hi then begin
          let lo, hi = Run.window st.search and ylo, yhi = Run.anchors st.search in
          if left then begin
            st.hi <- hi;
            st.yhi <- yhi
          end
          else begin
            st.lo <- lo;
            st.ylo <- ylo
          end
        end)
      probes
  in
  (* Each bisection iteration's body runs in its own child span of the
     query root; the recursion happens after the iteration span closed,
     so iterations are siblings, not nested.  The deadline is checked
     between iterations and between probe rounds; a cut carries the
     current interval so the caller can clamp its best-so-far answer.
     Every rule below fires on [rho_min, rho_max] only when it would fire
     on the exact rho inside it (float addition is monotone), so the
     decisions, the answer and the iteration count are those of exact
     ranks. *)
  let rec bisect u v past =
    (match deadline_at with
    | Some d when Metrics.now_s () > d -> raise (Deadline_cut (u, v))
    | _ -> ());
    incr iterations;
    let z, rule = candidate view.summary ~rank ~tolerance ~filters:(u0, v0) ~past ~u ~v in
    let run_iter span =
      if width u v <= 1L then
        (* rank(u,T) <= r <= rank(v,T) is invariant; v is the smallest
           candidate whose rank can reach r — the Definition-1 answer —
           unless the estimate says u already covers r. *)
        probe_rounds span ~u ~v u ~decide:(fun rho_min rho_max ->
            if rho_min >= r then Some (`Done u) else if rho_max < r then Some (`Done v) else None)
      else begin
        let decision, still_open =
          probe_rounds span ~u ~v z ~decide:(fun rho_min rho_max ->
              if r < rho_min -. tolerance then Some (`Left z)
              else if r > rho_max +. tolerance then Some (`Right z)
              else if r >= rho_max -. tolerance && r <= rho_min +. tolerance then Some (`Done z)
              else None)
        in
        (match decision with
        | `Left _ -> narrow ~left:true
        | `Right _ -> narrow ~left:false
        | `Done _ -> ());
        (decision, still_open)
      end
    in
    let decision =
      match trace with
      | Some (trc, root) ->
        Trace.with_child trc ~parent:root
          ~attrs:
            [
              ("iter", string_of_int !iterations);
              ("u", string_of_int u);
              ("v", string_of_int v);
              ("z", string_of_int z);
              ("rule", match rule with `Secant -> "secant" | `Midpoint -> "midpoint");
            ]
          "bisect"
          (fun sp ->
            let decision, still_open = run_iter (Some sp) in
            Trace.add_attr trc sp "open" (string_of_int still_open);
            decision)
      | None -> fst (run_iter None)
    in
    match decision with
    | `Done z -> z
    | `Left z -> bisect u z (`Left :: past)
    | `Right z -> bisect z v (`Right :: past)
  in
  bisect u0 v0 []

let retry_loop ?trace ?deadline_at ~rounds ~stats ~tolerance_factor ~policy ~rank first =
  let iterations = ref 0 in
  let finish answer degradation bound =
    {
      answer;
      degradation;
      bound;
      iterations = !iterations;
      io = Hsq_storage.Io_stats.zero;
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
  let res, io = Hsq_storage.Io_stats.measure_all stats (fun () -> go 0 first) in
  { res with io }

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
