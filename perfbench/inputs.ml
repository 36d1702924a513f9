(* Seeded inputs.  Every value and request the benchmark sends comes
   from here and depends on the --seed argument alone, so one seed
   replays one run exactly. *)

module D = Hsq_workload.Datasets
module Json = Hsq_serve.Json

type query =
  | Quick of float (* phi *)
  | Accurate of float

(* One request on the wire, in the order a client sends them. *)
type op =
  | Observe of int array
  | End_step
  | Query of query

let phi_of = function Quick p | Accurate p -> p

let to_json = function
  | Observe vals ->
    Json.Obj
      [ ("op", Json.Str "observe"); ("values", Json.List (Array.to_list (Array.map Json.int vals))) ]
  | End_step -> Json.Obj [ ("op", Json.Str "end_step") ]
  | Query (Quick phi) -> Json.Obj [ ("op", Json.Str "quick"); ("phi", Json.Num phi) ]
  | Query (Accurate phi) -> Json.Obj [ ("op", Json.Str "accurate"); ("phi", Json.Num phi) ]

(* Independent generator per purpose, so changing one list never
   shifts another. *)
let rng seed stream = Random.State.make [| seed; stream |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* [n] queries, exactly a fifth of them accurate, in seeded order, with
   phi uniform in (0.01, 0.99). *)
let query_mix rng n =
  let kinds = Array.init n (fun i -> i < n / 5) in
  shuffle rng kinds;
  Array.map
    (fun accurate ->
      let phi = 0.01 +. (0.98 *. Random.State.float rng 1.0) in
      if accurate then Accurate phi else Quick phi)
    kinds

(* The rank a phi resolves to over [n] elements, as the daemon does it. *)
let rank_of_phi ~n phi =
  let r = int_of_float (ceil (phi *. float_of_int n)) in
  if r < 1 then 1 else if r > n then n else r

(* An ingest shape: [steps] archived steps of [step_size] values, each
   followed by an end_step, then [tail] values left in the open step;
   values travel in observe requests of [batch] values. *)
type shape = {
  dataset : string;
  steps : int;
  step_size : int;
  batch : int;
  tail : int;
}

let elements s = (s.steps * s.step_size) + s.tail

let chunks batch values =
  let n = Array.length values in
  List.init ((n + batch - 1) / batch) (fun i ->
      Observe (Array.sub values (i * batch) (min batch (n - (i * batch)))))

(* Call [f] on the ops of [shape] in order, drawing values from [ds] one
   step at a time, so no more than a step's values are held at once
   (datasets are stateful per step, so consecutive shapes continue one
   stream). *)
let iter_ingest ds shape f =
  for _ = 1 to shape.steps do
    List.iter f (chunks shape.batch (D.next_batch ds shape.step_size));
    f End_step
  done;
  if shape.tail > 0 then List.iter f (chunks shape.batch (D.next_batch ds shape.tail))

let ingest_ops ds shape =
  let ops = ref [] in
  iter_ingest ds shape (fun op -> ops := op :: !ops);
  Array.of_list (List.rev !ops)

let values_of ops =
  Array.concat (Array.to_list (Array.map (function Observe v -> v | _ -> [||]) ops))
