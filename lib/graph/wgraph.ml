module Err = Dmn_prelude.Err

type edge = int * int * float

(* Adjacency is CSR (compressed sparse rows): the neighbors of [v] are
   [anodes.(i)] with weight [aw.(i)] for [xadj.(v) <= i < xadj.(v+1)].
   Three flat arrays — no per-node pointer array and no boxed pairs —
   so the Dijkstra relaxation loop of the metric closure walks
   contiguous memory. *)
type t = {
  n : int;
  edges : edge array; (* canonical: u < v *)
  xadj : int array; (* length n + 1 *)
  anodes : int array;
  aw : float array;
}

let create n edge_list =
  if n < 0 then invalid_arg "Wgraph.create: negative node count";
  let seen = Hashtbl.create (List.length edge_list) in
  let canon =
    List.map
      (fun (u, v, w) ->
        if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Wgraph.create: endpoint out of range";
        if u = v then invalid_arg "Wgraph.create: self-loop";
        if w < 0.0 || not (Float.is_finite w) then
          invalid_arg "Wgraph.create: edge weight must be finite and non-negative";
        let u, v = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen (u, v) then
          Err.failf Err.Validation "Wgraph.create: duplicate edge %d-%d" u v;
        Hashtbl.add seen (u, v) ();
        (u, v, w))
      edge_list
  in
  let edges = Array.of_list canon in
  let deg = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let xadj = Array.make (n + 1) 0 in
  for v = 1 to n do
    xadj.(v) <- xadj.(v - 1) + deg.(v - 1)
  done;
  let half = 2 * Array.length edges in
  let anodes = Array.make half 0 and aw = Array.make half 0.0 in
  let fill = Array.sub xadj 0 n in
  Array.iter
    (fun (u, v, w) ->
      anodes.(fill.(u)) <- v;
      aw.(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      anodes.(fill.(v)) <- u;
      aw.(fill.(v)) <- w;
      fill.(v) <- fill.(v) + 1)
    edges;
  { n; edges; xadj; anodes; aw }

let n g = g.n
let m g = Array.length g.edges
let edges g = Array.to_list g.edges
let csr g = (g.xadj, g.anodes, g.aw)

let neighbors g v =
  let lo = g.xadj.(v) in
  Array.init (g.xadj.(v + 1) - lo) (fun i -> (g.anodes.(lo + i), g.aw.(lo + i)))

let iter_neighbors g v f =
  for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f (Array.unsafe_get g.anodes i) (Array.unsafe_get g.aw i)
  done

let degree g v = g.xadj.(v + 1) - g.xadj.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let edge_weight g u v =
  let hi = g.xadj.(u + 1) in
  let rec find i =
    if i >= hi then raise Not_found
    else if g.anodes.(i) = v then g.aw.(i)
    else find (i + 1)
  in
  find g.xadj.(u)

let has_edge g u v = match edge_weight g u v with _ -> true | exception Not_found -> false

let bfs_hops g src =
  let dist = Array.make g.n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter_neighbors g v (fun u _ ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
  done;
  dist

let is_connected g =
  if g.n = 0 then true
  else
    let dist = bfs_hops g 0 in
    Array.for_all (fun d -> d >= 0) dist

let is_tree g = m g = g.n - 1 && is_connected g

let map_weights f g =
  let edge_list = Array.to_list (Array.map (fun (u, v, w) -> (u, v, f u v w)) g.edges) in
  create g.n edge_list

let total_weight g = Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 g.edges

let unweighted_diameter g =
  if not (is_connected g) then invalid_arg "Wgraph.unweighted_diameter: disconnected graph";
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let dist = bfs_hops g v in
    Array.iter (fun d -> if d > !best then best := d) dist
  done;
  !best
