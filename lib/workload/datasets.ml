(* The four evaluation datasets of Section 3.1, scaled by a step-size
   parameter instead of the paper's fixed 0.5-1 GB batches.

   The two real traces are unavailable offline and are replaced by
   synthetic equivalents that preserve what matters to a quantile
   sketch — the shape and duplicate structure of the value distribution
   (see DESIGN.md "Substitutions"):

   - "wikipedia": sizes of pages served per request — a log-normal body
     with a Pareto tail, heavily duplicate at popular sizes;
   - "network": source-destination pairs from a peering link — Zipf
     host popularity on both endpoints, packed into one integer key,
     with a slow per-step drift of the popular set (temporal locality). *)

type t = {
  name : string;
  universe_bits : int; (* values fit in [0, 2^universe_bits) *)
  next_batch : int -> int array; (* step_size -> one time step's data *)
}

let name t = t.name
let universe_bits t = t.universe_bits
let next_batch t size = t.next_batch size

let check_size size = if size < 1 then invalid_arg "Datasets.next_batch: size must be >= 1"

(* Normal: mean 100e6, stddev 10e6 — the paper's exact parameters. *)
let normal ~seed =
  let rng = Hsq_util.Xoshiro.create (seed lxor 0x6E6F726D) in
  {
    name = "normal";
    universe_bits = 28;
    next_batch =
      (fun size ->
        check_size size;
        Array.init size (fun _ ->
            let v = Distribution.normal_int ~mean:100_000_000.0 ~stddev:10_000_000.0 rng in
            min v ((1 lsl 28) - 1)));
  }

(* Uniform: integers in [1e8, 1e9), the paper's exact range. *)
let uniform ~seed =
  let rng = Hsq_util.Xoshiro.create (seed lxor 0x756E6966) in
  {
    name = "uniform";
    universe_bits = 30;
    next_batch =
      (fun size ->
        check_size size;
        Array.init size (fun _ -> Distribution.uniform_int ~lo:100_000_000 ~hi:1_000_000_000 rng));
  }

(* Wikipedia-like page sizes: log-normal body, 3% Pareto tail, clamped
   to [64 B, 256 MB). *)
let wikipedia ~seed =
  let rng = Hsq_util.Xoshiro.create (seed lxor 0x77696B69) in
  let sample () =
    let raw =
      if Hsq_util.Xoshiro.float rng < 0.03 then
        Distribution.pareto ~scale:250_000.0 ~shape:1.2 rng
      else Distribution.lognormal ~mu:8.7 ~sigma:1.4 rng
    in
    let v = int_of_float raw in
    max 64 (min v ((1 lsl 28) - 1))
  in
  {
    name = "wikipedia";
    universe_bits = 28;
    next_batch =
      (fun size ->
        check_size size;
        Array.init size (fun _ -> sample ()));
  }

(* Network-trace-like source-destination pairs: 4096 hosts with Zipf
   popularity on each endpoint, packed as src * 4096 + dst; the popular
   set drifts by one host rotation per batch. *)
let network ~seed =
  let rng = Hsq_util.Xoshiro.create (seed lxor 0x6E657477) in
  let hosts = 4096 in
  let zipf = Distribution.Zipf.create ~n:hosts ~s:1.1 in
  let step = ref 0 in
  {
    name = "network";
    universe_bits = 24;
    next_batch =
      (fun size ->
        check_size size;
        incr step;
        let rotate h = (h + (!step * 7)) mod hosts in
        Array.init size (fun _ ->
            let src = rotate (Distribution.Zipf.sample zipf rng) in
            let dst = rotate (Distribution.Zipf.sample zipf rng) in
            (src * hosts) + dst));
  }

let by_name ~seed = function
  | "normal" -> normal ~seed
  | "uniform" -> uniform ~seed
  | "wikipedia" -> wikipedia ~seed
  | "network" -> network ~seed
  | other -> invalid_arg (Printf.sprintf "Datasets.by_name: unknown dataset %S" other)

let names = [ "uniform"; "normal"; "wikipedia"; "network" ]
