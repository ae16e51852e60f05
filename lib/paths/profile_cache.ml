open Dmn_prelude

(* order.(v) lists all nodes sorted by (d(v, u), u) ascending. *)
type t = { order : int array array }

let sorted_row m v =
  let n = Metric.size m in
  let idx = Array.init n (fun u -> u) in
  let row = Metric.row m v in
  Array.sort
    (fun a b ->
      let c = Float.compare (Metric.row_get row a) (Metric.row_get row b) in
      if c <> 0 then c else Int.compare a b)
    idx;
  idx

(* Chunked fill straight into the order array; the per-row fault coin
   keeps injection outcomes independent of the chunking. *)
let build m =
  let n = Metric.size m in
  let order = Array.make n [||] in
  Pool.parallel_chunks (Pool.default ()) n (fun lo hi ->
      for v = lo to hi - 1 do
        Fault.check_at "pool.task" v;
        order.(v) <- sorted_row m v
      done);
  { order }

let order t v = t.order.(v)
let size t = Array.length t.order
