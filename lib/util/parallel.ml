(* Small fork-join helpers on OCaml 5 domains.

   The paper's future-work section singles out parallel sorting
   (Section 4); these helpers provide the fork-join substrate.  Work is
   split into at most [domains] chunks, each run in a fresh domain
   (spawn cost ~ tens of microseconds, so callers should hand over
   milliseconds of work per chunk). *)

let default_domains () = max 1 (min 4 (Domain.recommended_domain_count ()))

(* Apply [f] to every element, fanning chunks out over domains.  Order
   is preserved.  Exceptions propagate (the first one raised re-raises
   in the caller). *)
let map ?domains f input =
  let n = Array.length input in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then Array.map f input
  else begin
    let chunks = min domains n in
    let per = (n + chunks - 1) / chunks in
    let handles =
      List.init chunks (fun c ->
          let start = c * per in
          let len = min per (n - start) in
          Domain.spawn (fun () -> Array.init len (fun i -> f input.(start + i))))
    in
    let parts = List.map Domain.join handles in
    Array.concat parts
  end

(* Sort an int array with [domains]-way chunked merge sort: each chunk
   is sorted in its own domain, then chunks are merged on the caller.
   Deterministic and observationally identical to [Array.sort Int.compare];
   faster from roughly 10^5 elements upward. *)
let sort ?domains data =
  let n = Array.length data in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  if domains = 1 || n < 4096 then Array.sort Int.compare data
  else begin
    let chunks = min domains ((n + 4095) / 4096) in
    let per = (n + chunks - 1) / chunks in
    let handles =
      List.init chunks (fun c ->
          let start = c * per in
          let len = min per (n - start) in
          let chunk = Array.sub data start len in
          Domain.spawn (fun () ->
              Array.sort Int.compare chunk;
              chunk))
    in
    let sorted_chunks = List.map Domain.join handles in
    (* Fold-merge (chunk count is tiny, so pairwise cost is fine). *)
    let merged =
      match sorted_chunks with
      | [] -> [||]
      | first :: rest -> List.fold_left Sorted.merge first rest
    in
    Array.blit merged 0 data 0 n
  end
