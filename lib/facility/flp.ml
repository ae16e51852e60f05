open Dmn_paths
open Dmn_prelude

type instance = {
  metric : Metric.t;
  opening : float array;
  demand : float array;
  order : Profile_cache.t;
}

let create ?order metric ~opening ~demand =
  let n = Metric.size metric in
  if Array.length opening <> n then invalid_arg "Flp.create: opening length mismatch";
  if Array.length demand <> n then invalid_arg "Flp.create: demand length mismatch";
  Array.iter
    (fun c -> if c < 0.0 || Float.is_nan c then invalid_arg "Flp.create: bad opening cost")
    opening;
  Array.iter
    (fun d ->
      if d < 0.0 || Float.is_nan d || d = infinity then invalid_arg "Flp.create: bad demand")
    demand;
  let order =
    match order with
    | Some o ->
        if Profile_cache.size o <> n then invalid_arg "Flp.create: order size mismatch";
        o
    | None -> Profile_cache.build metric
  in
  { metric; opening; demand; order }

let size inst = Metric.size inst.metric

let total_demand inst = Floatx.sum inst.demand

let nearest_dist inst opens j =
  List.fold_left (fun acc i -> Float.min acc (Metric.d inst.metric j i)) infinity opens

let connection_cost inst opens =
  if opens = [] then invalid_arg "Flp.connection_cost: empty open set";
  Floatx.sum_by
    (fun j -> if inst.demand.(j) = 0.0 then 0.0 else inst.demand.(j) *. nearest_dist inst opens j)
    (size inst)

let opening_cost inst opens =
  List.sort_uniq compare opens |> List.fold_left (fun acc i -> acc +. inst.opening.(i)) 0.0

let cost inst opens = opening_cost inst opens +. connection_cost inst opens

let assignment inst opens =
  if opens = [] then invalid_arg "Flp.assignment: empty open set";
  Array.init (size inst) (fun j -> fst (Metric.nearest inst.metric j opens))

let validate inst opens =
  let n = size inst in
  if opens = [] then Error "empty open set"
  else if List.exists (fun i -> i < 0 || i >= n) opens then Error "site out of range"
  else if List.exists (fun i -> inst.opening.(i) = infinity) opens then Error "forbidden site opened"
  else Ok ()
