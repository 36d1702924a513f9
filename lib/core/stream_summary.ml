(* The stream summary SS (Algorithm 4).

   Extracted on demand from the Greenwald-Khanna sketch: SS[0] is the
   exact stream minimum and SS[i] is an element returned by a GK query
   at rank ~ (i + 1/2) * eps2 * m.  The underlying sketch runs at eps2/2
   precision, so each returned element's true rank provably lies inside
   [target - eps2*m/2, target + eps2*m/2] — the one-sided interval of
   Lemma 1, up to integer rounding.

   Rather than re-deriving rank bounds from the ideal spacing (which
   breaks at the clamped tail entries and for tiny streams), every entry
   stores the guaranteed interval [rlo, rhi] on its own rank; the L/U
   bounds of Lemma 2 and the rho_2 estimate of Algorithm 8 are computed
   from those stored intervals, which is never weaker than the paper's
   formulas. *)

type t = {
  values : int array; (* non-decreasing; empty iff the stream is empty *)
  rlo : float array; (* guaranteed lower bound on rank(values.(i), R) *)
  rhi : float array; (* guaranteed upper bound *)
  eps2 : float;
  m : int; (* stream size when extracted *)
}

let beta2 ~eps2 = int_of_float (ceil (1.0 /. eps2)) + 1

let extract gk =
  let m = Hsq_sketch.Gk.count gk in
  let gk_eps = Hsq_sketch.Gk.epsilon gk in
  let eps2 = 2.0 *. gk_eps in
  if m = 0 then { values = [||]; rlo = [||]; rhi = [||]; eps2; m = 0 }
  else begin
    let b2 = beta2 ~eps2 in
    let fm = float_of_int m in
    let spacing = eps2 *. fm in
    let slack = (gk_eps *. fm) +. 1.0 (* GK guarantee + integer rounding *) in
    let values = Array.make b2 0 in
    let rlo = Array.make b2 0.0 in
    let rhi = Array.make b2 0.0 in
    (* Exact minimum: rank is at least 1 (and up to its multiplicity,
       about which the sketch knows nothing). *)
    values.(0) <- Hsq_sketch.Gk.min_value gk;
    rlo.(0) <- 1.0;
    rhi.(0) <- fm;
    (* Exact maximum: rank(max, R) = m by definition, which pins the
       upper end of every bound exactly. *)
    values.(b2 - 1) <- Hsq_sketch.Gk.max_value gk;
    rlo.(b2 - 1) <- fm;
    rhi.(b2 - 1) <- fm;
    (* The interior target ranks increase with i, so one walk of the
       sketch answers them all. *)
    let ranks =
      Array.init (b2 - 2) (fun k ->
          let i = k + 1 in
          let target = (float_of_int i +. 0.5) *. spacing in
          let r = min m (max 1 (int_of_float (Float.round target))) in
          rlo.(i) <- Float.max 0.0 (float_of_int r -. slack);
          rhi.(i) <- Float.min fm (float_of_int r +. slack);
          r)
    in
    Array.blit (Hsq_sketch.Gk.query_ranks gk ranks) 0 values 1 (b2 - 2);
    (* Entry values are non-decreasing, so their true ranks are too;
       propagating lower bounds forward and upper bounds backward is
       therefore sound, only tightens, and restores the monotonicity
       that the L/U binary searches of Union_summary rely on. *)
    for i = 1 to b2 - 1 do
      rlo.(i) <- Float.max rlo.(i) rlo.(i - 1)
    done;
    for i = b2 - 2 downto 0 do
      rhi.(i) <- Float.min rhi.(i) rhi.(i + 1)
    done;
    { values; rlo; rhi; eps2; m }
  end

let size t = Array.length t.values
let stream_size t = t.m
let eps2 t = t.eps2
let values t = t.values
let intervals t = Array.init (size t) (fun i -> (t.rlo.(i), t.rhi.(i)))
let memory_words t = 4 + (3 * Array.length t.values)

(* alpha_S of Lemma 2: number of summary entries <= v. *)
let count_le t v = Hsq_util.Sorted.rank t.values v

(* The Lemma 2 bounds on rank(v, R) given alpha_S = a.  Lower: SS[0] is
   the exact minimum, so a = 0 means no stream element is <= v;
   otherwise rank(v) >= rank of the largest entry <= v, which is at least
   its stored rlo.  Upper: elements <= v are a subset of elements
   < SS[a] (the smallest entry > v), whose count is at most that entry's
   rhi; when every entry is <= v the bound is m.  An empty stream has no
   entries, so a = 0 and both are 0. *)
let[@inline] lower_at t a = if a = 0 then 0.0 else t.rlo.(a - 1)

let[@inline] upper_at t a =
  if a = 0 then 0.0 else if a = Array.length t.values then float_of_int t.m else t.rhi.(a)

let rank_lower t v = lower_at t (count_le t v)
let rank_upper t v = upper_at t (count_le t v)

(* A float returned across a module boundary is boxed unless the call is
   inlined, so the union summary's walk has the bounds added in place. *)
let add_bounds t a (lower : float array) (upper : float array) i =
  lower.(i) <- lower.(i) +. lower_at t a;
  upper.(i) <- upper.(i) +. upper_at t a

(* rho_2 of Algorithm 8 (lines 8-10): the midpoint of the feasible
   window; its error is at most half the window, i.e. O(eps2 * m). *)
let[@inline] estimate t v =
  if t.m = 0 then 0.0
  else
    let a = count_le t v in
    (lower_at t a +. upper_at t a) /. 2.0

let rank_estimate t v = estimate t v

(* The bisection's summed rho_2, added up here in list order and
   stored in [dst.(i)], so no float crosses a call boxed. *)
let rank_estimate_sum_into ts v (dst : float array) i =
  let acc = ref 0.0 and rest = ref ts in
  while !rest != [] do
    match !rest with
    | t :: tl ->
      acc := !acc +. estimate t v;
      rest := tl
    | [] -> ()
  done;
  dst.(i) <- !acc
