open Dmn_paths
module Err = Dmn_prelude.Err

(* Placement-versioned serve cache. The copy set is a sorted int array;
   every mutation bumps [version]. Derived data — the per-node nearest
   copy and the MST multicast weight — is memoized against the version
   it was computed at, so lookups after the first are O(1) and a
   placement change invalidates everything at the cost of one integer
   store. Stamps start below the initial version, so a fresh cache is
   fully cold without an O(n) fill.

   Under topology churn the metric itself mutates in place
   ({!Churn.metric} refreshes it to the closure of the current network
   and stamps a new {!Metric.version}); the cache records the metric version its memoized data was computed
   against and folds a mismatch into a placement-version bump, so the
   effective key is (placement version × metric version) at the cost of
   one extra int compare per query — a stale nearest-copy table can
   never survive a network change. *)
type t = {
  metric : Metric.t;
  x : int; (* object id, for error context only *)
  cached : bool;
  mutable copies : int array; (* sorted ascending, no duplicates *)
  mutable version : int;
  mutable metric_version : int; (* Metric.version the memos are valid at *)
  near_src : int array; (* valid at node v iff stamp.(v) = version *)
  near_d : float array;
  stamp : int array;
  mutable mst_version : int; (* version [mst] was computed at; 0 = never *)
  mutable mst : float;
}

let of_sorted_list copies = Array.of_list copies

let create ?(cached = true) metric ~x copies =
  let n = Metric.size metric in
  {
    metric;
    x;
    cached;
    copies = of_sorted_list copies;
    version = 1;
    metric_version = Metric.version metric;
    near_src = Array.make n (-1);
    near_d = Array.make n infinity;
    stamp = Array.make n 0;
    mst_version = 0;
    mst = 0.0;
  }

let copies t = Array.to_list t.copies
let copies_array t = t.copies
let copy_count t = Array.length t.copies
let version t = t.version

let mem t c =
  let lo = ref 0 and hi = ref (Array.length t.copies) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if t.copies.(mid) < c then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length t.copies && t.copies.(!lo) = c

let arrays_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let set_copies t copies =
  let arr = of_sorted_list copies in
  if not (arrays_equal arr t.copies) then begin
    t.copies <- arr;
    t.version <- t.version + 1
  end

let add_copy t c =
  let old = t.copies in
  let len = Array.length old in
  let arr = Array.make (len + 1) c in
  let i = ref 0 in
  while !i < len && old.(!i) < c do
    arr.(!i) <- old.(!i);
    incr i
  done;
  Array.blit old !i arr (!i + 1) (len - !i);
  t.copies <- arr;
  t.version <- t.version + 1

(* The scan replicates Strategy's historical fold: start at
   [(-1, infinity)], strict [<], copies in ascending order — so ties
   go to the smallest node id and the floats match bit for bit. *)
let scan t v =
  let cps = t.copies in
  let c = Array.length cps in
  if c = 0 then Err.failf Err.Internal "serve: object %d has an empty copy set" t.x;
  let r = Metric.row t.metric v in
  let bs = ref (-1) and bd = ref infinity in
  for i = 0 to c - 1 do
    let s = Array.unsafe_get cps i in
    let d = Metric.row_get r s in
    if d < !bd then begin
      bs := s;
      bd := d
    end
  done;
  (!bs, !bd)

(* fold a metric refresh into a placement-version bump: one branch per
   query keeps the (placement × metric) keying free of a wider stamp *)
let sync_metric t =
  let mv = Metric.version t.metric in
  if mv <> t.metric_version then begin
    t.metric_version <- mv;
    t.version <- t.version + 1
  end

let nearest t v =
  sync_metric t;
  if not t.cached then scan t v
  else if t.stamp.(v) = t.version then (t.near_src.(v), t.near_d.(v))
  else begin
    let ((s, d) as res) = scan t v in
    t.near_src.(v) <- s;
    t.near_d.(v) <- d;
    t.stamp.(v) <- t.version;
    res
  end

let compute_mst t =
  Dmn_span.Steiner.approx_weight_metric t.metric (Array.to_list t.copies)

let mst_weight t =
  sync_metric t;
  if not t.cached then compute_mst t
  else if t.mst_version = t.version then t.mst
  else begin
    let w = compute_mst t in
    t.mst <- w;
    t.mst_version <- t.version;
    w
  end

let serve_cost t ~node kind =
  let _, d = nearest t node in
  match kind with Stream.Read -> d | Stream.Write -> d +. mst_weight t
