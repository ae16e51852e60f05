(** Shared distance-profile cache.

    The ascending order of [d(v, ·)] is object-independent, so the sort
    behind every request-distance profile is hoisted here and computed
    once per node — [O(n^2 log n)] total, fanned out over
    {!Dmn_prelude.Pool.default}. Per-object work that needs a node's
    clients by distance (Mettu–Plaxton charge radii, greedy UFL, the
    KRW radii and storage numbers) then becomes a linear scan.

    An order depends only on the metric, so one [t] can serve every
    instance over the same distances: each instance and each
    facility-location instance carries one, and the replay engine
    reuses one across epochs while the metric's hash is unchanged.

    Ties are broken by node id, so the order is deterministic and
    independent of the pool schedule. *)

type t

(** [build m] sorts, for every node [v], all nodes by [(d m v u, u)]
    ascending. *)
val build : Metric.t -> t

(** [order t v] is the shared sorted row for [v] — do not mutate. *)
val order : t -> int -> int array

val size : t -> int
