open Dmn_graph
module Err = Dmn_prelude.Err

type event =
  | Edge_weight of { u : int; v : int; w : float }
  | Edge_down of { u : int; v : int }
  | Edge_up of { u : int; v : int; w : float }
  | Node_down of int
  | Node_up of int

let event_to_string = function
  | Edge_weight { u; v; w } -> Printf.sprintf "edge-weight %d-%d %g" u v w
  | Edge_down { u; v } -> Printf.sprintf "edge-down %d-%d" u v
  | Edge_up { u; v; w } -> Printf.sprintf "edge-up %d-%d %g" u v w
  | Node_down z -> Printf.sprintf "node-down %d" z
  | Node_up z -> Printf.sprintf "node-up %d" z

type override = Removed | Weight of float

(* The network state is (pristine graph, edge overrides, node liveness);
   the current graph and its metric are derived from it, never drifted.
   [apply] only edits the state and bumps [version]; [graph] rebuilds
   on demand, and [metric] refreshes the private metric copy to the
   closure of the current graph whenever its version lags [version].
   The metric is therefore a pure function of the state, whatever
   sequence of events produced it — which is what lets a resume rebuild
   it from a checkpoint's topology section alone. *)
type t = {
  pristine : Wgraph.t;
  metric : Metric.t;
  alive : bool array;
  overrides : (int * int, override) Hashtbl.t;
  mutable graph : Wgraph.t option;  (* [None]: stale, rebuilt on demand *)
  mutable version : int;  (* the version [metric] carries once fresh *)
  mutable events_applied : int;
}

let create g m =
  if Wgraph.n g <> Metric.size m then invalid_arg "Churn.create: graph and metric sizes differ";
  {
    pristine = g;
    metric = Metric.copy m;
    alive = Array.make (Wgraph.n g) true;
    overrides = Hashtbl.create 16;
    graph = Some g;
    version = Metric.version m;
    events_applied = 0;
  }

let alive t z = t.alive.(z)
let events_applied t = t.events_applied
let churned t = t.events_applied > 0

let down_nodes t =
  let acc = ref [] in
  for z = Array.length t.alive - 1 downto 0 do
    if not t.alive.(z) then acc := z :: !acc
  done;
  !acc

let overrides t =
  Hashtbl.fold
    (fun (u, v) ov acc -> ((u, v), match ov with Removed -> None | Weight w -> Some w) :: acc)
    t.overrides []
  |> List.sort compare

let canon u v = if u < v then (u, v) else (v, u)

(* logical edge presence, ignoring node liveness: the pristine edge set
   with overrides applied *)
let present t u v =
  let key = canon u v in
  match Hashtbl.find_opt t.overrides key with
  | Some Removed -> false
  | Some (Weight _) -> true
  | None -> Wgraph.has_edge t.pristine u v

let rebuild t =
  let n = Wgraph.n t.pristine in
  let edges = ref [] in
  List.iter
    (fun (u, v, w0) ->
      match Hashtbl.find_opt t.overrides (u, v) with
      | Some Removed -> ()
      | Some (Weight w) -> edges := (u, v, w) :: !edges
      | None -> edges := (u, v, w0) :: !edges)
    (Wgraph.edges t.pristine);
  Hashtbl.iter
    (fun (u, v) ov ->
      match ov with
      | Weight w when not (Wgraph.has_edge t.pristine u v) -> edges := (u, v, w) :: !edges
      | _ -> ())
    t.overrides;
  let live = List.filter (fun (u, v, _) -> t.alive.(u) && t.alive.(v)) !edges in
  (* hash-order independence: a canonical edge order keeps the CSR
     layout — and with it every Dijkstra tie-break — deterministic *)
  Wgraph.create n (List.sort compare live)

let graph t =
  match t.graph with
  | Some g -> g
  | None ->
      let g = rebuild t in
      t.graph <- Some g;
      g

let metric t =
  if Metric.version t.metric <> t.version then Metric.refresh t.metric (graph t) ~version:t.version;
  t.metric

let fail_validation fmt = Err.failf Err.Validation fmt

let check_node t what z =
  let n = Array.length t.alive in
  if z < 0 || z >= n then fail_validation "churn: %s node %d out of range [0, %d)" what z n

let check_pair t u v =
  check_node t "edge" u;
  check_node t "edge" v;
  if u = v then fail_validation "churn: self-loop %d-%d" u v

let check_weight w =
  if (not (Float.is_finite w)) || w < 0.0 then
    fail_validation "churn: edge weight %g must be finite and non-negative" w

let stale t =
  t.graph <- None;
  t.version <- t.version + 1

let apply t ev =
  (match ev with
  | Edge_weight { u; v; w } ->
      check_pair t u v;
      check_weight w;
      if not (present t u v) then fail_validation "churn: edge-weight on absent edge %d-%d" u v;
      Hashtbl.replace t.overrides (canon u v) (Weight w)
  | Edge_down { u; v } ->
      check_pair t u v;
      if not (present t u v) then fail_validation "churn: edge-down on absent edge %d-%d" u v;
      Hashtbl.replace t.overrides (canon u v) Removed
  | Edge_up { u; v; w } ->
      check_pair t u v;
      check_weight w;
      if present t u v then fail_validation "churn: edge-up on already-present edge %d-%d" u v;
      Hashtbl.replace t.overrides (canon u v) (Weight w)
  | Node_down z ->
      check_node t "down" z;
      if not t.alive.(z) then fail_validation "churn: node-down on already-down node %d" z;
      t.alive.(z) <- false
  | Node_up z ->
      check_node t "up" z;
      if t.alive.(z) then fail_validation "churn: node-up on live node %d" z;
      t.alive.(z) <- true);
  stale t;
  t.events_applied <- t.events_applied + 1

let restore t ~overrides ~down ~events ~version =
  if t.events_applied > 0 then invalid_arg "Churn.restore: the handle has already applied events";
  if events < 0 then fail_validation "churn: restored event count %d is negative" events;
  if version <= t.version then
    fail_validation "churn: restored metric version %d does not exceed the pristine %d" version
      t.version;
  List.iter
    (fun ((u, v), w) ->
      check_pair t u v;
      Option.iter check_weight w)
    overrides;
  List.iter (check_node t "down") down;
  List.iter
    (fun ((u, v), w) ->
      Hashtbl.replace t.overrides (canon u v)
        (match w with Some w -> Weight w | None -> Removed))
    overrides;
  List.iter (fun z -> t.alive.(z) <- false) down;
  t.graph <- None;
  t.version <- version;
  t.events_applied <- events
