open Dmn_prelude
open Dmn_graph
open Dmn_paths
open Dmn_facility

let random_flp rng n =
  let g = Gen.erdos_renyi rng n 0.3 in
  let m = Metric.of_graph g in
  let opening = Array.init n (fun _ -> Rng.float_in rng 0.5 20.0) in
  let demand = Array.init n (fun _ -> float_of_int (Rng.int rng 5)) in
  Flp.create m ~opening ~demand

let cost_decomposition () =
  let m = Metric.of_graph (Gen.path 4) in
  let inst = Flp.create m ~opening:[| 5.0; 5.0; 5.0; 5.0 |] ~demand:[| 1.0; 1.0; 1.0; 1.0 |] in
  Util.check_float "opening" 5.0 (Flp.opening_cost inst [ 1 ]);
  Util.check_float "connection" 4.0 (Flp.connection_cost inst [ 1 ]);
  Util.check_float "total" 9.0 (Flp.cost inst [ 1 ]);
  Util.check_float "duplicates in open set" 5.0 (Flp.opening_cost inst [ 1; 1 ]);
  let assign = Flp.assignment inst [ 0; 3 ] in
  Alcotest.(check (array int)) "assignment" [| 0; 0; 3; 3 |] assign

let validate_checks () =
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 1.0; infinity; 1.0 |] ~demand:[| 1.0; 1.0; 1.0 |] in
  (match Flp.validate inst [] with Error _ -> () | Ok () -> Alcotest.fail "empty accepted");
  (match Flp.validate inst [ 1 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forbidden site accepted");
  match Flp.validate inst [ 0; 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid solution rejected: %s" e

let solvers = [ ("greedy", Greedy.solve); ("local-search", fun i -> Local_search.solve i);
                ("jain-vazirani", Jain_vazirani.solve); ("mettu-plaxton", Mettu_plaxton.solve) ]

let solvers_return_valid () =
  let rng = Rng.create 41 in
  for _ = 1 to 15 do
    let n = 2 + Rng.int rng 15 in
    let inst = random_flp rng n in
    List.iter
      (fun (name, solve) ->
        let opens = solve inst in
        match Flp.validate inst opens with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: invalid solution: %s" name e)
      solvers
  done

(* Empirical approximation factors vs exhaustive optimum. The proven
   factors are 3 (JV, MP), 5+eps (local search), O(log n) (greedy); we
   assert the proven bound plus slack for greedy. *)
let solver_quality () =
  let rng = Rng.create 42 in
  for _ = 1 to 12 do
    let n = 3 + Rng.int rng 9 in
    let inst = random_flp rng n in
    let opt = Exact.opt_cost inst in
    List.iter
      (fun (name, solve, bound) ->
        let c = Flp.cost inst (solve inst) in
        Util.check_leq (Printf.sprintf "%s within factor %.1f" name bound) c
          ((bound *. opt) +. 1e-6))
      [
        ("local-search", (fun i -> Local_search.solve i), 5.2);
        ("jain-vazirani", Jain_vazirani.solve, 3.0);
        ("mettu-plaxton", Mettu_plaxton.solve, 3.0);
        ("greedy", Greedy.solve, 2.0 *. log (float_of_int n +. 2.0));
      ]
  done

let local_search_local_optimality () =
  (* no single add or drop improves the local search solution *)
  let rng = Rng.create 43 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 10 in
    let inst = random_flp rng n in
    let opens = Local_search.solve inst in
    let c = Flp.cost inst opens in
    for v = 0 to n - 1 do
      if not (List.mem v opens) then
        Util.check_leq "add does not improve much" c (Flp.cost inst (v :: opens) +. c *. 1e-2)
    done;
    List.iter
      (fun v ->
        let rest = List.filter (fun u -> u <> v) opens in
        if rest <> [] then
          Util.check_leq "drop does not improve much" c (Flp.cost inst rest +. c *. 1e-2))
      opens
  done

let mettu_plaxton_radii () =
  (* the defining equation: sum_j w_j max(0, r - d) = f *)
  let rng = Rng.create 44 in
  for _ = 1 to 10 do
    let n = 2 + Rng.int rng 12 in
    let inst = random_flp rng n in
    let r = Mettu_plaxton.radii inst in
    for v = 0 to n - 1 do
      if r.(v) < infinity then begin
        let paid = ref 0.0 in
        for j = 0 to n - 1 do
          paid :=
            !paid
            +. (inst.Flp.demand.(j) *. Float.max 0.0 (r.(v) -. Metric.d inst.Flp.metric v j))
        done;
        Util.check_cost "radius equation" inst.Flp.opening.(v) !paid
      end
    done
  done

let jain_vazirani_duals () =
  (* weak duality sanity: the duals cover the solution's connection cost
     scale; alpha_j >= d(j, nearest open) for served clients. *)
  let rng = Rng.create 45 in
  for _ = 1 to 8 do
    let n = 3 + Rng.int rng 9 in
    let inst = random_flp rng n in
    let opens, alpha = Jain_vazirani.duals inst in
    let opt = Exact.opt_cost inst in
    (* each client with demand reaches some open facility within alpha *)
    for j = 0 to n - 1 do
      if inst.Flp.demand.(j) > 0.0 then begin
        let _, d = Metric.nearest inst.Flp.metric j opens in
        Util.check_leq "client reaches opened facility within alpha" d (alpha.(j) +. 1e-6)
      end
    done;
    Util.check_leq "3-approximation" (Flp.cost inst opens) ((3.0 *. opt) +. 1e-6)
  done

let exact_brute_force_small () =
  (* hand instance: path of 3, expensive middle *)
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 1.0; 100.0; 1.0 |] ~demand:[| 10.0; 1.0; 10.0 |] in
  let opens = Exact.solve inst in
  Alcotest.(check (list int)) "both ends" [ 0; 2 ] (List.sort compare opens)

let zero_demand_instances () =
  let m = Metric.of_graph (Gen.path 3) in
  let inst = Flp.create m ~opening:[| 3.0; 1.0; 2.0 |] ~demand:[| 0.0; 0.0; 0.0 |] in
  List.iter
    (fun (name, solve) ->
      let opens = solve inst in
      match Flp.validate inst opens with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s zero-demand: %s" name e)
    solvers

let qcheck_mp_within_3 =
  QCheck.Test.make ~name:"Mettu-Plaxton within 3x optimum" ~count:40
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = random_flp rng n in
      let c = Flp.cost inst (Mettu_plaxton.solve inst) in
      c <= (3.0 *. Exact.opt_cost inst) +. 1e-6)

let qcheck_jv_within_3 =
  QCheck.Test.make ~name:"Jain-Vazirani within 3x optimum" ~count:40
    QCheck.(pair small_int (int_range 3 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let inst = random_flp rng n in
      let c = Flp.cost inst (Jain_vazirani.solve inst) in
      c <= (3.0 *. Exact.opt_cost inst) +. 1e-6)

(* ---------- Mettu-Plaxton tie order pinned against the old sort ---------- *)

(* The radius Mettu_plaxton computed before it walked the shared
   distance order: every site sorts boxed (distance, demand) pairs by
   distance alone, so tied distances come out in heap-sort order. *)
let sorted_radius inst v =
  let n = Flp.size inst in
  let pairs = Array.init n (fun j -> (Metric.d inst.Flp.metric v j, inst.Flp.demand.(j))) in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  let f = inst.Flp.opening.(v) in
  if f = 0.0 then 0.0
  else begin
    let rec go idx paid slope last_d =
      if idx >= n then if slope > 0.0 then last_d +. ((f -. paid) /. slope) else infinity
      else begin
        let d, w = pairs.(idx) in
        let paid' = paid +. (slope *. (d -. last_d)) in
        if paid' >= f && slope > 0.0 then last_d +. ((f -. paid) /. slope)
        else go (idx + 1) paid' (slope +. w) d
      end
    in
    go 0 0.0 0.0 0.0
  end

(* ... and the selection it fed, with its tuple comparator *)
let sorted_solve inst =
  let n = Flp.size inst in
  let r = Array.init n (sorted_radius inst) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (r.(a), a) (r.(b), b)) order;
  let chosen = ref [] in
  Array.iter
    (fun v ->
      if inst.Flp.opening.(v) < infinity && r.(v) < infinity then
        if not (List.exists (fun u -> Metric.d inst.Flp.metric u v <= 2.0 *. r.(v)) !chosen) then
          chosen := v :: !chosen)
    order;
  if !chosen = [] then begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if inst.Flp.opening.(i) < inst.Flp.opening.(!best) then best := i
    done;
    chosen := [ !best ]
  end;
  List.rev !chosen

(* Unit-weight paths, grids and complete graphs put many clients at
   each distance; a quarter of the cases are geometric graphs, whose
   inexact distances make the float operation sequence observable.
   Integer demands include zeros, and opening costs mix zero, finite
   and infinite (node 0 always storable). *)
let tie_heavy_case seed =
  let rng = Rng.create seed in
  let g =
    match Rng.int rng 4 with
    | 0 -> Gen.path (2 + Rng.int rng 15)
    | 1 -> Gen.grid (1 + Rng.int rng 4) (2 + Rng.int rng 4)
    | 2 -> Gen.complete (2 + Rng.int rng 10)
    | _ -> Gen.random_geometric rng (2 + Rng.int rng 14) 0.5
  in
  let n = Dmn_graph.Wgraph.n g in
  let opening =
    Array.init n (fun v ->
        match Rng.int rng 4 with
        | 0 -> 0.0
        | 1 when v > 0 -> infinity
        | _ -> float_of_int (1 + Rng.int rng 12) *. 0.75)
  in
  let fr = Array.init n (fun _ -> if Rng.int rng 3 = 0 then 0 else Rng.int rng 5) in
  let fw = Array.init n (fun _ -> if Rng.int rng 2 = 0 then 0 else Rng.int rng 3) in
  (g, opening, fr, fw)

let qcheck_mp_tie_order_pinned =
  QCheck.Test.make ~name:"Mettu-Plaxton walk == old sort, bit for bit, on tie-heavy metrics"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let g, opening, fr, fw = tie_heavy_case seed in
      let inst = Dmn_core.Instance.of_graph g ~cs:opening ~fr:[| fr |] ~fw:[| fw |] in
      let flp = Dmn_core.Instance.related_flp inst ~x:0 in
      let bits = Array.map Int64.bits_of_float in
      let old_r = Array.init (Flp.size flp) (sorted_radius flp) in
      if bits (Mettu_plaxton.radii flp) <> bits old_r then
        QCheck.Test.fail_reportf "radii differ from the sort-based reference";
      if Mettu_plaxton.solve flp <> sorted_solve flp then
        QCheck.Test.fail_reportf "opened sites differ from the sort-based reference";
      (* the whole pipeline, phase 1 swapped for the reference *)
      let module A = Dmn_core.Approx in
      let config = A.default_config in
      let rd = Dmn_core.Radii.compute inst ~x:0 in
      let reference =
        sorted_solve flp
        |> A.phase2 ~config inst ~x:0 rd
        |> A.phase3 ~config inst rd
        |> List.sort_uniq compare
      in
      A.place_object inst ~x:0 = reference)

let suite =
  [
    Alcotest.test_case "cost decomposition" `Quick cost_decomposition;
    Alcotest.test_case "solution validation" `Quick validate_checks;
    Alcotest.test_case "solvers return valid solutions" `Quick solvers_return_valid;
    Alcotest.test_case "solver quality vs optimum" `Quick solver_quality;
    Alcotest.test_case "local search local optimality" `Quick local_search_local_optimality;
    Alcotest.test_case "mettu-plaxton radius equation" `Quick mettu_plaxton_radii;
    Alcotest.test_case "jain-vazirani duals" `Quick jain_vazirani_duals;
    Alcotest.test_case "exact brute force" `Quick exact_brute_force_small;
    Alcotest.test_case "zero demand degenerate" `Quick zero_demand_instances;
    Util.qtest qcheck_mp_within_3;
    Util.qtest qcheck_jv_within_3;
    Util.qtest qcheck_mp_tie_order_pinned;
  ]
