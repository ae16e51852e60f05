open Dmn_graph
open Dmn_prelude

(* Row-major flat storage: d(u, v) lives at [u * n + v]. A single
   unboxed float array keeps every row contiguous — the nearest-copy
   scans and MST subset loops of the serve path walk rows without
   chasing a per-row pointer, and the whole metric is one allocation.

   [version] supports topology churn: {!refresh} recomputes the closure
   in place and stamps a new version, so consumers that memoize derived
   data (the per-placement serve caches) can key their state on
   (placement version × metric version) and can never serve a distance
   that predates a network change. *)
type t = { n : int; flat : float array; mutable version : int }

type row = { data : float array; off : int }

let size m = m.n
let version m = m.version
let copy m = { n = m.n; flat = Array.copy m.flat; version = m.version }
let d m u v = m.flat.((u * m.n) + v)
let unsafe_d m u v = Array.unsafe_get m.flat ((u * m.n) + v)

let row m v =
  if v < 0 || v >= m.n then invalid_arg "Metric.row: node out of range";
  { data = m.flat; off = v * m.n }

let row_get r u = Array.unsafe_get r.data (r.off + u)

let of_rows n rows =
  let flat = Array.make (n * n) 0.0 in
  Array.iteri (fun v r -> Array.blit r 0 flat (v * n) n) rows;
  { n; flat; version = 1 }

(* One Dijkstra per source row of [g] in [lo, hi), written straight
   into the flat storage with one reused scratch — no per-row
   intermediate arrays. [each v] runs before row [v]. *)
let close_rows flat g ~each lo hi =
  let n = Wgraph.n g in
  let s = Dijkstra.scratch n in
  for v = lo to hi - 1 do
    each v;
    Array.blit (Dijkstra.run_scratch s g v) 0 flat (v * n) n
  done

(* Rows are independent, so fan out over the domain pool in chunked
   batches (bit-identical to the sequential closure). *)
let of_graph ?pool ?chunks g =
  let n = Wgraph.n g in
  let flat = Array.make (n * n) 0.0 in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  (* Same per-row injection point as [Pool.parallel_init]: fault
     outcomes stay independent of the chunking and domain count. *)
  Pool.parallel_chunks pool ?chunks n (close_rows flat g ~each:(Fault.check_at "pool.task"));
  Array.iteri
    (fun i d ->
      if d = infinity then
        invalid_arg (Printf.sprintf "Metric.of_graph: node %d unreachable from %d" (i mod n) (i / n)))
    flat;
  { n; flat; version = 1 }

let refresh m g ~version =
  if Wgraph.n g <> m.n then invalid_arg "Metric.refresh: graph size mismatch";
  close_rows m.flat g ~each:ignore 0 m.n;
  m.version <- version

let of_graph_floyd g =
  let n = Wgraph.n g in
  let mat = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    mat.(v).(v) <- 0.0
  done;
  List.iter
    (fun (u, v, w) ->
      if w < mat.(u).(v) then begin
        mat.(u).(v) <- w;
        mat.(v).(u) <- w
      end)
    (Wgraph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = mat.(i).(k) +. mat.(k).(j) in
        if via < mat.(i).(j) then mat.(i).(j) <- via
      done
    done
  done;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j x ->
          if x = infinity then
            invalid_arg (Printf.sprintf "Metric.of_graph_floyd: %d unreachable from %d" j i))
        row)
    mat;
  of_rows n mat

let is_metric mat =
  let n = Array.length mat in
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.exists (fun row -> Array.length row <> n) mat then bad "matrix is not square"
  else
    let exception Found of string in
    try
      for i = 0 to n - 1 do
        if not (Floatx.approx mat.(i).(i) 0.0) then
          raise (Found (Printf.sprintf "non-zero diagonal at %d" i));
        for j = 0 to n - 1 do
          if mat.(i).(j) < 0.0 then raise (Found (Printf.sprintf "negative entry (%d,%d)" i j));
          if not (Floatx.approx mat.(i).(j) mat.(j).(i)) then
            raise (Found (Printf.sprintf "asymmetric at (%d,%d)" i j))
        done
      done;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if not (Floatx.leq ~tol:1e-6 mat.(i).(j) (mat.(i).(k) +. mat.(k).(j))) then
              raise (Found (Printf.sprintf "triangle violation %d-%d via %d" i j k))
          done
        done
      done;
      Ok ()
    with Found s -> Error s

let of_matrix mat =
  (match is_metric mat with Ok () -> () | Error e -> invalid_arg ("Metric.of_matrix: " ^ e));
  let n = Array.length mat in
  of_rows n mat

let of_points pts =
  let n = Array.length pts in
  Array.iteri
    (fun i (x, y) ->
      if not (Float.is_finite x && Float.is_finite y) then
        invalid_arg
          (Printf.sprintf "Metric.of_points: point %d has non-finite coordinates (%g, %g)" i x y))
    pts;
  let flat = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    let xi, yi = pts.(i) in
    for j = 0 to n - 1 do
      let xj, yj = pts.(j) in
      flat.((i * n) + j) <- Float.hypot (xi -. xj) (yi -. yj)
    done
  done;
  { n; flat; version = 1 }

let scale c m =
  if c < 0.0 then invalid_arg "Metric.scale: negative factor";
  { n = m.n; flat = Array.map (fun x -> c *. x) m.flat; version = 1 }

let to_matrix m = Array.init m.n (fun v -> Array.sub m.flat (v * m.n) m.n)

let nearest_dists_into m nodes out =
  if nodes = [] then invalid_arg "Metric.nearest_dists: empty node list";
  if Array.length out < m.n then invalid_arg "Metric.nearest_dists_into: buffer too small";
  for v = 0 to m.n - 1 do
    let base = v * m.n in
    out.(v) <- List.fold_left (fun acc u -> Float.min acc m.flat.(base + u)) infinity nodes
  done

let nearest_dists m nodes =
  let out = Array.make (max 1 m.n) 0.0 in
  nearest_dists_into m nodes out;
  if Array.length out = m.n then out else [||]

let max_finite m =
  Array.fold_left (fun acc x -> if Float.is_finite x && x > acc then x else acc) 0.0 m.flat

let clamp_infinite m ~limit =
  if not (Float.is_finite limit && limit >= 0.0) then
    invalid_arg "Metric.clamp_infinite: limit must be finite and non-negative";
  {
    n = m.n;
    flat = Array.map (fun x -> if Float.is_finite x then x else limit) m.flat;
    version = 1;
  }

let hash64 m =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  Array.fold_left
    (fun h x -> mix (Int64.add (Int64.mul h 0x100000001b3L) (Int64.bits_of_float x)))
    (mix (Int64.of_int m.n)) m.flat

let nearest m v nodes =
  match nodes with
  | [] -> invalid_arg "Metric.nearest: empty node list"
  | first :: rest ->
      let base = v * m.n in
      List.fold_left
        (fun ((_, bd) as best) u ->
          let du = m.flat.(base + u) in
          if du < bd then (u, du) else best)
        (first, d m v first)
        rest
