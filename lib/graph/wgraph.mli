(** Weighted undirected graphs with non-negative edge costs.

    Nodes are integers [0 .. n-1]. The structure is immutable after
    construction; adjacency is stored as arrays for cache-friendly
    traversal in the shortest-path and spanning-tree substrates. *)

type t

(** An undirected edge [(u, v, w)] with [u <> v] and [w >= 0]. *)
type edge = int * int * float

(** [create n edges] builds a graph on [n] nodes. A duplicate edge
    (same unordered endpoint pair listed twice) is rejected with a
    structured {!Dmn_prelude.Err.Error} (kind [Validation]) naming the
    pair; self-loops, non-finite (NaN or infinite) or negative weights
    and out-of-range endpoints raise [Invalid_argument]. *)
val create : int -> edge list -> t

val n : t -> int
val m : t -> int

(** [edges g] lists each undirected edge once, with [u < v]. *)
val edges : t -> edge list

(** [neighbors g v] is the array of [(neighbor, weight)] pairs of [v].
    The returned array must not be mutated. *)
val neighbors : t -> int -> (int * float) array

(** [csr g] is the flat CSR adjacency [(xadj, nodes, weights)]: the
    neighbors of [v] are [nodes.(i)] with weight [weights.(i)] for
    [xadj.(v) <= i < xadj.(v + 1)], in {!iter_neighbors} order. The
    arrays are the graph's own storage — do not mutate. *)
val csr : t -> int array * int array * float array

(** [iter_neighbors g v f] calls [f u w] for every edge [(v, u, w)]. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

val degree : t -> int -> int

(** [max_degree g] is 0 for an edgeless graph. *)
val max_degree : t -> int

(** [edge_weight g u v] is the weight of edge [(u, v)].
    @raise Not_found if absent. *)
val edge_weight : t -> int -> int -> float

val has_edge : t -> int -> int -> bool

(** [bfs_hops g src] is the hop distance from [src] to every node, [-1]
    for nodes unreachable from [src]. *)
val bfs_hops : t -> int -> int array

(** [is_connected g] holds when every node is reachable from node 0 (a
    graph with 0 nodes is connected). *)
val is_connected : t -> bool

(** [is_tree g] holds when [g] is connected with [n - 1] edges. *)
val is_tree : t -> bool

(** [map_weights f g] rebuilds the graph with [f u v w] as new weight of
    each edge. *)
val map_weights : (int -> int -> float -> float) -> t -> t

(** [total_weight g] sums all edge weights. *)
val total_weight : t -> float

(** [unweighted_diameter g] is the maximum over node pairs of the hop
    count of a shortest hop path; the graph must be connected. *)
val unweighted_diameter : t -> int
