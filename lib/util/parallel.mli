(** Fork-join helpers on OCaml 5 domains — the substrate for the
    paper's future-work parallel sorting (Section 4). *)

(** min(4, recommended domain count). *)
val default_domains : unit -> int

(** Order-preserving parallel map; chunks the input over at most
    [domains] fresh domains. Falls back to sequential for tiny inputs
    or [domains = 1]. *)
val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** In-place sort, observationally identical to [Array.sort Int.compare]:
    domain-sorted chunks merged on the caller. Sequential below 4096
    elements. *)
val sort : ?domains:int -> int array -> unit
