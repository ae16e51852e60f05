(** Uncapacitated facility location (UFL).

    The paper's phase 1 solves the "related facility location problem":
    every node is both a potential facility (opening cost [cs(v)]) and a
    client (demand [fr(v) + fw(v)]), with connection costs given by the
    [ct] metric. This module fixes the instance/solution vocabulary for
    all solvers. *)

open Dmn_paths

type instance = {
  metric : Metric.t;
  opening : float array;  (** per-site opening cost; [infinity] forbids a site *)
  demand : float array;  (** per-client demand weight, [>= 0] *)
  order : Profile_cache.t;
      (** [metric]'s shared distance order: every node's clients by
          [(distance, id)] ascending *)
}

(** [create ?order metric ~opening ~demand] validates the arrays'
    lengths against the metric size and value sanity. [order] must be
    [metric]'s {!Profile_cache}; when omitted it is built here, in
    [O(n^2 log n)]. Callers that solve many instances over one metric
    pass theirs to skip the sort. @raise Invalid_argument on a bad
    array or an [order] whose size differs from the metric's. *)
val create :
  ?order:Profile_cache.t -> Metric.t -> opening:float array -> demand:float array -> instance

val size : instance -> int

(** [total_demand inst] sums all demands. *)
val total_demand : instance -> float

(** [connection_cost inst opens] is the demand-weighted sum of distances
    from each client to its nearest open facility.
    @raise Invalid_argument if [opens] is empty. *)
val connection_cost : instance -> int list -> float

(** [opening_cost inst opens] sums opening fees (duplicates ignored). *)
val opening_cost : instance -> int list -> float

(** [cost inst opens] is the total UFL objective. *)
val cost : instance -> int list -> float

(** [assignment inst opens] maps each client to its nearest open
    facility. *)
val assignment : instance -> int list -> int array

(** [validate inst opens] checks the solution: non-empty, in-range,
    no forbidden site. *)
val validate : instance -> int list -> (unit, string) result
