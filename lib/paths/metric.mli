(** Finite metric spaces over node ids [0 .. n-1].

    The paper's cost function [ct] induces a metric as the shortest-path
    closure of the edge costs (Section 1.1); all placement algorithms
    are phrased against this abstraction so they also run on matrices
    and point sets. *)

open Dmn_graph

type t

(** A borrowed view of one source row of the flat distance storage (see
    {!row}); indexing through it is branch-free. *)
type row

val size : t -> int

(** [version m] is the metric's version: 1 at construction, restamped
    by every in-place {!refresh}. Consumers that memoize derived
    distance data key it on this counter so a topology change can never
    serve a stale table. *)
val version : t -> int

(** [copy m] is a private deep copy (same distances and version);
    in-place refreshes of the copy leave [m] untouched. *)
val copy : t -> t

(** [d m u v] is the distance; [d m v v = 0]. *)
val d : t -> int -> int -> float

(** [unsafe_d m u v] is [d m u v] without bounds checks. Both indices
    must be in [0, size m). *)
val unsafe_d : t -> int -> int -> float

(** [row m v] is the source row of [v]: distances are stored row-major
    in a single flat unboxed array, so a row is a contiguous slice.
    @raise Invalid_argument if [v] is out of range. *)
val row : t -> int -> row

(** [row_get r u] is [d m v u] for the row of [v] — unsafe-indexed: [u]
    must be in [0, size m). This is the serve path's inner read. *)
val row_get : row -> int -> float

(** [of_graph ?pool ?chunks g] is the shortest-path closure computed
    with one Dijkstra per node, fanned out in chunked batches over
    [?pool] (default {!Dmn_prelude.Pool.default}); each chunk reuses one
    Dijkstra scratch and writes its rows directly into the flat storage.
    [?chunks] tunes the batch count (see
    {!Dmn_prelude.Pool.parallel_chunks}). [g] must be connected. The
    result is bit-identical to the sequential closure at any domain or
    chunk count. *)
val of_graph : ?pool:Dmn_prelude.Pool.t -> ?chunks:int -> Wgraph.t -> t

(** [of_graph_floyd g] computes the same closure with Floyd–Warshall
    (used to cross-check the Dijkstra closure in tests). *)
val of_graph_floyd : Wgraph.t -> t

(** [of_matrix mat] wraps an explicit distance matrix.
    @raise Invalid_argument if it is not square, has a non-zero
    diagonal, negative entries, is asymmetric, or violates the triangle
    inequality beyond float slack. *)
val of_matrix : float array array -> t

(** [of_points pts] is the Euclidean metric over 2-d points.
    @raise Invalid_argument if any coordinate is NaN or infinite, naming
    the offending point index. *)
val of_points : (float * float) array -> t

(** [scale c m] multiplies every distance by [c >= 0]. *)
val scale : float -> t -> t

(** [to_matrix m] materializes the full matrix (row-major copy of the
    flat storage). *)
val to_matrix : t -> float array array

(** [nearest m v nodes] is [(u, d m v u)] minimizing the distance over
    [nodes]. @raise Invalid_argument on an empty list. *)
val nearest : t -> int -> int list -> int * float

(** [nearest_dists m nodes] is, for every node [v], the distance from
    [v] to the nearest element of [nodes] — the shared nearest-copy
    primitive of cost evaluation and phase 2.
    @raise Invalid_argument on an empty list. *)
val nearest_dists : t -> int list -> float array

(** [nearest_dists_into m nodes out] is {!nearest_dists} written into
    the first [size m] cells of a caller-owned buffer — the
    allocation-free variant for scratch-space reuse in chunked solves.
    @raise Invalid_argument on an empty list or a buffer shorter than
    [size m]. *)
val nearest_dists_into : t -> int list -> float array -> unit

(** [is_metric mat] checks the {!of_matrix} requirements and returns an
    explanation on failure. *)
val is_metric : float array array -> (unit, string) result

(** {2 Topology churn} *)

(** [refresh m g ~version] overwrites [m] in place with the
    shortest-path closure of [g]: one Dijkstra per source row, rows only
    (as {!of_graph} writes them, so a connected [g] refreshes to exactly
    [of_graph g]'s bits). Unlike {!of_graph} it accepts a disconnected
    [g] and stores unreachable pairs as [infinity] — the one way a
    [Metric.t] describes a partitioned network — runs sequentially and
    draws no fault coins. {!version} becomes [version], which the caller
    keeps distinct from every version [m] held before.
    @raise Invalid_argument on a size mismatch. *)
val refresh : t -> Wgraph.t -> version:int -> unit

(** [max_finite m] is the largest finite distance (0 for an empty or
    fully disconnected metric). *)
val max_finite : t -> float

(** [clamp_infinite m ~limit] is a fresh metric with every non-finite
    distance replaced by [limit] — the finite stand-in handed to the
    placement solver when re-optimizing over a partitioned network
    (the solver's cost sums must not see [infinity], which poisons
    zero-frequency products into NaN). *)
val clamp_infinite : t -> limit:float -> t

(** [hash64 m] is an order-sensitive 64-bit digest of the exact float
    bits of the distance matrix — the integrity stamp checkpoints use
    to prove a resumed run reconstructed the churned metric
    byte-identically. *)
val hash64 : t -> int64
