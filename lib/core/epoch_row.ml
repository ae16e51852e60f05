type t = {
  index : int;
  events : int;
  reads : int;
  writes : int;
  serving : float;
  storage : float;
  migration : float;
  resolves : int;
  solve_retries : int;
  solve_fallbacks : int;
  solve_skipped : int;
  dirty : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  dropped : int;
  emergency : int;
  topo : int;
  copies : int;
  p50 : float;
  p95 : float;
  p99 : float;
}

type value = Int of int | Float of float

type field = {
  name : string;
  zero : value;
  get : t -> value;
  gauge : string;
  counter : string option;
  col : int;
  total : int option;
}

let int_field name ~gauge ?counter ~col ?total get =
  { name; zero = Int 0; get = (fun r -> Int (get r)); gauge; counter; col; total }

let float_field name ~gauge ~col ?total get =
  { name; zero = Float 0.0; get = (fun r -> Float (get r)); gauge; counter = None; col; total }

(* Registry order. [col] pins the v3 checkpoint column and [total] the
   totals-JSON key position; both orders predate this table and are
   part of the on-disk and JSON formats. *)
let fields =
  [|
    int_field "index" ~gauge:"epoch" ~col:0 (fun r -> r.index);
    int_field "events" ~gauge:"epoch_events" ~counter:"events_total" ~col:1 ~total:0 (fun r ->
        r.events);
    int_field "reads" ~gauge:"epoch_reads" ~counter:"reads_total" ~col:2 ~total:1 (fun r ->
        r.reads);
    int_field "writes" ~gauge:"epoch_writes" ~counter:"writes_total" ~col:3 ~total:2 (fun r ->
        r.writes);
    float_field "serving" ~gauge:"epoch_serving" ~col:11 ~total:4 (fun r -> r.serving);
    float_field "storage" ~gauge:"epoch_storage" ~col:12 ~total:5 (fun r -> r.storage);
    float_field "migration" ~gauge:"epoch_migration" ~col:13 ~total:6 (fun r -> r.migration);
    int_field "resolves" ~gauge:"epoch_resolves" ~counter:"resolves_total" ~col:4 ~total:7 (fun r ->
        r.resolves);
    int_field "solve_retries" ~gauge:"epoch_solve_retries" ~counter:"solve_retries" ~col:5 ~total:8
      (fun r -> r.solve_retries);
    int_field "solve_fallbacks" ~gauge:"epoch_solve_fallbacks" ~counter:"solve_fallbacks" ~col:6
      ~total:9 (fun r -> r.solve_fallbacks);
    int_field "solve_skipped" ~gauge:"epoch_solve_skipped" ~counter:"solve_skipped_total" ~col:17
      ~total:10 (fun r -> r.solve_skipped);
    int_field "dirty" ~gauge:"dirty_objects" ~col:18 (fun r -> r.dirty);
    int_field "cache_hits" ~gauge:"epoch_cache_hits" ~counter:"solve_cache_hits_total" ~col:19
      ~total:11 (fun r -> r.cache_hits);
    int_field "cache_misses" ~gauge:"epoch_cache_misses" ~counter:"solve_cache_misses_total" ~col:20
      ~total:12 (fun r -> r.cache_misses);
    int_field "cache_evictions" ~gauge:"epoch_cache_evictions"
      ~counter:"solve_cache_evictions_total" ~col:21 ~total:13 (fun r -> r.cache_evictions);
    int_field "dropped" ~gauge:"epoch_dropped" ~counter:"dropped_total" ~col:8 ~total:3 (fun r ->
        r.dropped);
    int_field "emergency" ~gauge:"epoch_emergency" ~counter:"emergency_total" ~col:9 ~total:14
      (fun r -> r.emergency);
    int_field "topo" ~gauge:"epoch_topo" ~counter:"topo_total" ~col:10 ~total:15 (fun r -> r.topo);
    int_field "copies" ~gauge:"copies" ~col:7 (fun r -> r.copies);
    float_field "p50" ~gauge:"request_cost_p50" ~col:14 (fun r -> r.p50);
    float_field "p95" ~gauge:"request_cost_p95" ~col:15 (fun r -> r.p95);
    float_field "p99" ~gauge:"request_cost_p99" ~col:16 (fun r -> r.p99);
  |]

(* the one place that maps table positions back to record fields *)
let make v =
  let vs = Array.map v fields in
  let kind_error k = invalid_arg ("Epoch_row.make: wrong kind for field " ^ fields.(k).name) in
  let i k = match vs.(k) with Int n -> n | Float _ -> kind_error k in
  let f k = match vs.(k) with Float x -> x | Int _ -> kind_error k in
  {
    index = i 0;
    events = i 1;
    reads = i 2;
    writes = i 3;
    serving = f 4;
    storage = f 5;
    migration = f 6;
    resolves = i 7;
    solve_retries = i 8;
    solve_fallbacks = i 9;
    solve_skipped = i 10;
    dirty = i 11;
    cache_hits = i 12;
    cache_misses = i 13;
    cache_evictions = i 14;
    dropped = i 15;
    emergency = i 16;
    topo = i 17;
    copies = i 18;
    p50 = f 19;
    p95 = f 20;
    p99 = f 21;
  }

let zero = make (fun fd -> fd.zero)

(* the fields that have a [key], in key order *)
let ordered key =
  List.filter_map (fun fd -> Option.map (fun p -> (p, fd)) (key fd)) (Array.to_list fields)
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd |> Array.of_list

let columns = ordered (fun fd -> Some fd.col)
let summed = ordered (fun fd -> fd.total)

let add acc r =
  make (fun fd ->
      match (fd.total, fd.get acc, fd.get r) with
      | Some _, Int a, Int b -> Int (a + b)
      | Some _, Float a, Float b -> Float (a +. b)
      | _ -> fd.zero)

let sum rows = List.fold_left add zero rows
