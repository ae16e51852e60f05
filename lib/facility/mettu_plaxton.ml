open Dmn_paths

(* r_v solves sum_j w_j * max(0, r - d_vj) = f_v. Walk v's clients in
   the instance's shared distance order; between consecutive distances
   the left side is linear with slope = covered demand. Zero-demand
   clients stay in the walk so the float operations run in the same
   sequence whatever the demands are. A tied distance adds
   [slope *. 0.] to [paid], so with integer demands the order within a
   tie cannot change the result. *)
let radius inst v =
  let f = inst.Flp.opening.(v) in
  if f = 0.0 then 0.0
  else begin
    let order = Profile_cache.order inst.Flp.order v in
    let row = Metric.row inst.Flp.metric v in
    let demand = inst.Flp.demand in
    let n = Array.length order in
    let idx = ref 0 and paid = ref 0.0 and slope = ref 0.0 and last_d = ref 0.0 in
    while !idx < n do
      let j = order.(!idx) in
      let d = Metric.row_get row j in
      let paid' = !paid +. (!slope *. (d -. !last_d)) in
      if paid' >= f && !slope > 0.0 then idx := n
      else begin
        paid := paid';
        slope := !slope +. demand.(j);
        last_d := d;
        incr idx
      end
    done;
    if !slope > 0.0 then !last_d +. ((f -. !paid) /. !slope) else infinity
  end

let radii inst = Array.init (Flp.size inst) (fun v -> radius inst v)

let solve inst =
  let n = Flp.size inst in
  let r = radii inst in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Float.compare r.(a) r.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let chosen = ref [] in
  Array.iter
    (fun v ->
      if inst.Flp.opening.(v) < infinity && r.(v) < infinity then begin
        let blocked =
          List.exists (fun u -> Metric.d inst.Flp.metric u v <= 2.0 *. r.(v)) !chosen
        in
        if not blocked then chosen := v :: !chosen
      end)
    order;
  if !chosen = [] then begin
    (* zero-demand degenerate instance: cheapest site *)
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    chosen := [ !best ]
  end;
  List.rev !chosen
