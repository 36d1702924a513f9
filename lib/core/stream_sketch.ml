(* Dispatch layer over the two ε₂ stream sketches.  See the mli for
   the tagged checkpoint format. *)

module Gk_impl = Hsq_sketch.Gk
module Kll_impl = Hsq_sketch.Kll

type kind = [ `Gk | `Kll ]
type t = Gk of Gk_impl.t | Kll of Kll_impl.t

let tag_gk = 1
let tag_kll = 2

let create ?(seed = 0) ~kind ~epsilon () =
  match kind with
  | `Gk -> Gk (Gk_impl.create ~epsilon)
  | `Kll -> Kll (Kll_impl.create ~seed ~epsilon ())

let create_capped ?(seed = 0) ~kind ~words () =
  match kind with
  | `Gk -> Gk (Gk_impl.create_capped ~words)
  | `Kll -> Kll (Kll_impl.create_capped ~seed ~words ())

let kind = function Gk _ -> `Gk | Kll _ -> `Kll
let kind_label = function Gk _ -> "gk" | Kll _ -> "kll"

let insert_sorted_batch = function
  | Gk g -> Gk_impl.insert_sorted_batch g
  | Kll k -> Kll_impl.insert_sorted_batch k

let count = function Gk g -> Gk_impl.count g | Kll k -> Kll_impl.count k
let size = function Gk g -> Gk_impl.size g | Kll k -> Kll_impl.size k
let epsilon = function Gk g -> Gk_impl.epsilon g | Kll k -> Kll_impl.epsilon k

let error_bound = function
  | Gk g -> Gk_impl.error_bound g
  | Kll k -> Kll_impl.error_bound k

let memory_words = function
  | Gk g -> Gk_impl.memory_words g
  | Kll k -> Kll_impl.memory_words k

let query_rank = function Gk g -> Gk_impl.query_rank g | Kll k -> Kll_impl.query_rank k
let rank_of = function Gk g -> Gk_impl.rank_of g | Kll k -> Kll_impl.rank_of k
let min_value = function Gk g -> Gk_impl.min_value g | Kll k -> Kll_impl.min_value k
let max_value = function Gk g -> Gk_impl.max_value g | Kll k -> Kll_impl.max_value k
let as_kll = function Gk _ -> None | Kll k -> Some k

let serialize t =
  let tag, payload =
    match t with
    | Gk g -> (tag_gk, Gk_impl.serialize g)
    | Kll k -> (tag_kll, Kll_impl.serialize k)
  in
  Array.append [| tag |] payload

let deserialize data =
  if Array.length data = 0 then invalid_arg "Stream_sketch.deserialize: empty image";
  let payload () = Array.sub data 1 (Array.length data - 1) in
  (* Legacy (pre-tag) GK images start with 0 (Fixed mode) or a word
     budget >= 32 (Capped); 1 and 2 are therefore free to use as tags. *)
  if data.(0) = tag_gk then Gk (Gk_impl.deserialize (payload ()))
  else if data.(0) = tag_kll then Kll (Kll_impl.deserialize (payload ()))
  else Gk (Gk_impl.deserialize data)
