(** Placement-versioned serve cache for one object.

    The replay engine charges every event through the same two
    primitives: the distance to the nearest copy (reads and writes) and
    the MST multicast weight over the copy set (writes). Both depend
    only on the copy set, which changes rarely — at epoch re-solves,
    replications, and drops — while events arrive by the thousand. This
    cache stores the copy set as a sorted int array with a version
    counter; the per-node nearest copy and the MST weight are memoized
    against the version they were computed at, turning the per-event
    cost from an O(c) scan (and an O(c² log c) MST per write) into an
    O(1) lookup. Every mutation bumps the version, which invalidates
    all derived state at once.

    Memoization is {e pure}: the first computation at a version runs
    exactly the float operations the uncached path runs (ascending-order
    scan with a strict [<] fold seeded at [(-1, infinity)];
    {!Dmn_span.Steiner.approx_weight_metric} on the sorted copy list),
    so cached and uncached runs produce bit-identical costs.

    The cache also watches {!Dmn_paths.Metric.version}: when the metric
    is refreshed in place after a topology event, the next query folds
    the change into a placement-version bump, invalidating every memo —
    the effective cache key is (placement version × metric version), so
    a nearest-copy table computed before a network change can never be
    served after it. *)

type t

(** [create ?cached metric ~x copies] builds the cache for object [x]
    ([x] is used only in error messages) over [copies], which must be
    sorted ascending and duplicate-free — the invariant every caller in
    this repository already maintains. With [~cached:false] the
    structure keeps the same interface but recomputes every query — the
    honest uncached baseline the benchmarks compare against. *)
val create : ?cached:bool -> Dmn_paths.Metric.t -> x:int -> int list -> t

(** [copies t] is the sorted copy list (fresh list per call). *)
val copies : t -> int list

(** [copies_array t] is the cache's own sorted array — do not mutate. *)
val copies_array : t -> int array

val copy_count : t -> int

(** [mem t c] tests copy membership by binary search. *)
val mem : t -> int -> bool

(** [version t] is the current placement version (starts at 1; each
    mutation that actually changes the copy set increments it, as does
    the first query after an in-place metric refresh). *)
val version : t -> int

(** [set_copies t copies] replaces the copy set ([copies] sorted
    ascending, duplicate-free). A no-op — version included — when the
    new set equals the current one, so an epoch re-solve that confirms
    the placement keeps the memoized state warm. *)
val set_copies : t -> int list -> unit

(** [add_copy t c] inserts [c] (not already present) in sorted position
    and bumps the version. *)
val add_copy : t -> int -> unit

(** [nearest t v] is [(copy, distance)] for the copy nearest to node
    [v], ties to the smallest node id.
    @raise Dmn_prelude.Err.Error (kind [Internal], naming the object)
    if the copy set is empty. *)
val nearest : t -> int -> int * float

(** [mst_weight t] is the MST multicast weight over the copy set
    ({!Dmn_span.Steiner.approx_weight_metric}), memoized per version. *)
val mst_weight : t -> float

(** [serve_cost t ~node kind] is the event cost against the current
    copy set: a read pays the nearest-copy distance, a write that
    distance plus {!mst_weight}. *)
val serve_cost : t -> node:int -> Stream.kind -> float
