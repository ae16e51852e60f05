open Dmn_prelude
open Dmn_graph

let create_rejects_bad_edges () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Wgraph.create: self-loop") (fun () ->
      ignore (Wgraph.create 3 [ (1, 1, 1.0) ]));
  (* duplicates carry a structured error naming the offending pair *)
  (match Wgraph.create 3 [ (0, 1, 1.0); (1, 0, 2.0) ] with
  | _ -> Alcotest.fail "duplicate edge accepted"
  | exception Err.Error e ->
      Alcotest.(check bool) "duplicate kind" true (e.Err.kind = Err.Validation);
      Alcotest.(check bool) "duplicate names the pair" true
        (let msg = e.Err.msg in
         let has s =
           let ls = String.length s and lm = String.length msg in
           let rec go i = i + ls <= lm && (String.sub msg i ls = s || go (i + 1)) in
           go 0
         in
         has "duplicate edge" && has "0-1"));
  Alcotest.check_raises "range" (Invalid_argument "Wgraph.create: endpoint out of range")
    (fun () -> ignore (Wgraph.create 2 [ (0, 2, 1.0) ]));
  let bad_weight = Invalid_argument "Wgraph.create: edge weight must be finite and non-negative" in
  Alcotest.check_raises "negative" bad_weight (fun () ->
      ignore (Wgraph.create 2 [ (0, 1, -1.0) ]));
  Alcotest.check_raises "nan" bad_weight (fun () ->
      ignore (Wgraph.create 2 [ (0, 1, Float.nan) ]));
  Alcotest.check_raises "infinite" bad_weight (fun () ->
      ignore (Wgraph.create 2 [ (0, 1, infinity) ]))

let adjacency_symmetric () =
  let g = Wgraph.create 4 [ (0, 1, 1.5); (1, 2, 2.5); (0, 3, 3.0) ] in
  Alcotest.(check int) "n" 4 (Wgraph.n g);
  Alcotest.(check int) "m" 3 (Wgraph.m g);
  Util.check_float "weight" 1.5 (Wgraph.edge_weight g 1 0);
  Util.check_float "weight sym" 1.5 (Wgraph.edge_weight g 0 1);
  Alcotest.(check int) "degree 0" 2 (Wgraph.degree g 0);
  Alcotest.(check int) "max degree" 2 (Wgraph.max_degree g);
  Alcotest.(check bool) "has_edge" true (Wgraph.has_edge g 2 1);
  Alcotest.(check bool) "no edge" false (Wgraph.has_edge g 2 3)

let connectivity () =
  let g = Wgraph.create 4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check bool) "disconnected" false (Wgraph.is_connected g);
  let g2 = Gen.path 5 in
  Alcotest.(check bool) "path connected" true (Wgraph.is_connected g2);
  Alcotest.(check bool) "path is tree" true (Wgraph.is_tree g2);
  Alcotest.(check bool) "cycle is not a tree" false (Wgraph.is_tree (Gen.ring 5))

let diameter () =
  Alcotest.(check int) "path diameter" 4 (Wgraph.unweighted_diameter (Gen.path 5));
  Alcotest.(check int) "ring diameter" 3 (Wgraph.unweighted_diameter (Gen.ring 6));
  Alcotest.(check int) "star diameter" 2 (Wgraph.unweighted_diameter (Gen.star 6));
  Alcotest.(check int) "complete diameter" 1 (Wgraph.unweighted_diameter (Gen.complete 6))

let generators_shapes () =
  let checks =
    [
      ("path", Gen.path 7, 7, 6);
      ("ring", Gen.ring 7, 7, 7);
      ("star", Gen.star 7, 7, 6);
      ("complete", Gen.complete 6, 6, 15);
      ("grid", Gen.grid 3 4, 12, 17);
      ("torus", Gen.torus 3 4, 12, 24);
      ("hypercube", Gen.hypercube 4, 16, 32);
    ]
  in
  List.iter
    (fun (name, g, n, m) ->
      Alcotest.(check int) (name ^ " n") n (Wgraph.n g);
      Alcotest.(check int) (name ^ " m") m (Wgraph.m g);
      Alcotest.(check bool) (name ^ " connected") true (Wgraph.is_connected g))
    checks

let balanced_tree_shape () =
  let g = Gen.balanced_tree ~arity:3 ~depth:2 in
  Alcotest.(check int) "nodes" 13 (Wgraph.n g);
  Alcotest.(check bool) "tree" true (Wgraph.is_tree g)

let random_generators_connected () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 30 in
    Alcotest.(check bool) "random tree" true (Wgraph.is_tree (Gen.random_tree rng n));
    Alcotest.(check bool) "er connected" true
      (Wgraph.is_connected (Gen.erdos_renyi rng n 0.1));
    Alcotest.(check bool) "geometric connected" true
      (Wgraph.is_connected (Gen.random_geometric rng n 0.3));
    Alcotest.(check bool) "caterpillar tree" true (Wgraph.is_tree (Gen.caterpillar rng n));
    Alcotest.(check bool) "clustered connected" true
      (Wgraph.is_connected (Gen.clustered rng ~clusters:3 ~per_cluster:4))
  done

let map_weights_rescale () =
  let g = Gen.path 4 in
  let g2 = Wgraph.map_weights (fun _ _ w -> 2.0 *. w) g in
  Util.check_float "doubled" (2.0 *. Wgraph.total_weight g) (Wgraph.total_weight g2)

let edge_list_roundtrip () =
  let rng = Rng.create 4 in
  for _ = 1 to 20 do
    let g = Gen.erdos_renyi rng (2 + Rng.int rng 20) 0.3 in
    let g2 = Wgraph.create (Wgraph.n g) (Wgraph.edges g) in
    Alcotest.(check int) "n" (Wgraph.n g) (Wgraph.n g2);
    Alcotest.(check int) "m" (Wgraph.m g) (Wgraph.m g2);
    List.iter2
      (fun (u, v, w) (u', v', w') ->
        Alcotest.(check int) "u" u u';
        Alcotest.(check int) "v" v v';
        Util.check_float "w" w w')
      (List.sort compare (Wgraph.edges g))
      (List.sort compare (Wgraph.edges g2))
  done

let qcheck_er_connected =
  QCheck.Test.make ~name:"erdos_renyi always connected" ~count:100
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      Wgraph.is_connected (Gen.erdos_renyi rng n 0.05))

let qcheck_tree_edge_count =
  QCheck.Test.make ~name:"random_tree has n-1 edges" ~count:200
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.random_tree rng n in
      Wgraph.m g = n - 1 && Wgraph.is_connected g)

let suite =
  [
    Alcotest.test_case "create validation" `Quick create_rejects_bad_edges;
    Alcotest.test_case "adjacency" `Quick adjacency_symmetric;
    Alcotest.test_case "connectivity" `Quick connectivity;
    Alcotest.test_case "diameters" `Quick diameter;
    Alcotest.test_case "generator shapes" `Quick generators_shapes;
    Alcotest.test_case "balanced tree" `Quick balanced_tree_shape;
    Alcotest.test_case "random generators connected" `Quick random_generators_connected;
    Alcotest.test_case "map_weights" `Quick map_weights_rescale;
    Alcotest.test_case "edge list round trip" `Quick edge_list_roundtrip;
    Util.qtest qcheck_er_connected;
    Util.qtest qcheck_tree_edge_count;
  ]
