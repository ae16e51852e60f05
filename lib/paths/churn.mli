(** Topology churn: a mutable view of a network whose edges and nodes
    fail, recover, and change weight over time.

    The state is the pristine graph plus a set of edge overrides and a
    node-liveness vector. Everything else is derived from that state
    alone, never from the history of events that produced it:
    - the {e current} graph is rebuilt with its edges sorted
      canonically, so the CSR layout (and with it every Dijkstra
      tie-break) is independent of event order and hash-table
      internals;
    - the metric is the shortest-path closure of the current graph
      ({!Metric.refresh}), with pairs a partition disconnects stored as
      [infinity]. An all-pristine state closes to exactly the bits of
      {!Metric.of_graph} on the pristine graph.

    {b Lazy contract.} {!apply} only validates the event and edits the
    state; the graph and metric go stale. {!graph} and {!metric}
    recompute them on first use after a change — one closure (one
    Dijkstra per node) however many events came before it. Between an
    {!apply} and the next {!metric} call the metric value still holds
    the {e previous} closure, unchanged version included, so a consumer
    holding it (a {!Dmn_dynamic.Serve_cache}) must call {!metric}
    before reading after events; the engine does so once per epoch
    boundary, before serving. *)

open Dmn_graph

(** One topology event. Endpoint pairs are unordered. *)
type event =
  | Edge_weight of { u : int; v : int; w : float }
      (** reweight an existing edge (up or down) *)
  | Edge_down of { u : int; v : int }  (** remove an existing edge *)
  | Edge_up of { u : int; v : int; w : float }
      (** add an edge that is currently absent (possibly one previously
          removed) *)
  | Node_down of int  (** fail a live node: all incident edges vanish *)
  | Node_up of int  (** revive a failed node: incident edges return *)

val event_to_string : event -> string

type t

(** [create g m] starts churn tracking from pristine graph [g] and its
    metric closure [m] (which is deep-copied — the caller's metric is
    never mutated). @raise Invalid_argument on a size mismatch. *)
val create : Wgraph.t -> Metric.t -> t

(** [apply t ev] applies one event to the override/liveness state and
    marks the graph and metric stale; it computes no distances.
    @raise Dmn_prelude.Err.Error (kind [Validation]) on an inconsistent
    event: out-of-range node, self-loop, bad weight, reweighting or
    removing an absent edge, adding a present edge, failing a dead node
    or reviving a live one. The state is unchanged on failure. *)
val apply : t -> event -> unit

(** [restore t ~overrides ~down ~events ~version] sets a handle no event
    has touched to a recorded state — the edge overrides and down set in
    {!overrides}/{!down_nodes} form, the number of events that produced
    it, and the metric version it carried — without replaying any event.
    The next {!metric} computes the closure and stamps [version].
    @raise Dmn_prelude.Err.Error (kind [Validation]) on an out-of-range
    node, a self-loop, a bad weight, a negative [events], or a
    [version] not above the pristine metric's. The state is unchanged
    on failure.
    @raise Invalid_argument if [t] has already applied events. *)
val restore :
  t ->
  overrides:((int * int) * float option) list ->
  down:int list ->
  events:int ->
  version:int ->
  unit

(** [graph t] is the current graph: pristine edges with overrides
    applied, minus every edge incident to a down node — rebuilt here if
    an event made it stale. *)
val graph : t -> Wgraph.t

(** [metric t] is the closure of the current graph, refreshed here if
    an event made it stale. Distances involving a down node, or between
    nodes a partition separates, are [infinity]. The same value
    (physically) is returned across events — it is refreshed in place,
    and its {!Metric.version} advances by one per applied event (from
    the restored version after {!restore}), so consumers key caches on
    that version. *)
val metric : t -> Metric.t

val alive : t -> int -> bool

(** [down_nodes t] lists currently-failed nodes in ascending order. *)
val down_nodes : t -> int list

val down_count : t -> int

(** [overrides t] lists the current edge overrides in canonical order:
    [((u, v), Some w)] for a reweighted or added edge, [((u, v), None)]
    for a removed one, with [u < v]. Used to serialize the topology
    delta into checkpoints. *)
val overrides : t -> ((int * int) * float option) list

(** [events_applied t] counts successfully applied events. *)
val events_applied : t -> int

(** [churned t] holds once any event has been applied. *)
val churned : t -> bool
