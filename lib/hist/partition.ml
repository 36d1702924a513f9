(* One partition of the historical store: a sorted on-disk run plus its
   in-memory summary and the inclusive range of time steps it covers
   (P_{i,j} in Figure 2). *)

type t = {
  run : Hsq_storage.Run.t;
  summary : Partition_summary.t;
  first_step : int;
  last_step : int;
  level : int;
}

let create ~run ~summary ~first_step ~last_step ~level =
  if first_step > last_step then invalid_arg "Partition.create: bad step range";
  if Hsq_storage.Run.length run <> Partition_summary.partition_size summary then
    invalid_arg "Partition.create: summary size disagrees with run";
  { run; summary; first_step; last_step; level }

let run t = t.run
let summary t = t.summary
let size t = Hsq_storage.Run.length t.run
let first_step t = t.first_step
let last_step t = t.last_step
let level t = t.level
let free t = Hsq_storage.Run.free t.run

let rank t v =
  let w = Partition_summary.search_window t.summary ~u:v ~v in
  Hsq_storage.Run.rank_between t.run ?ylo:w.ylo ?yhi:w.yhi ~lo:w.lo ~hi:w.hi v

let memory_words t = 8 + Partition_summary.memory_words t.summary

let pp ppf t =
  Format.fprintf ppf "P[%d,%d]@@L%d (%d elems, %d blocks)" t.first_step t.last_step t.level
    (size t)
    (Hsq_storage.Run.nblocks t.run)
