(** Mettu–Plaxton radius-based UFL algorithm (3-approximation).

    For each site [v], the charge radius [r_v] solves
    [sum_j demand_j * max(0, r_v - d(v, j)) = opening_v]; sites are then
    scanned in non-decreasing [r] (ties by node id) and selected
    greedily subject to a [2 r] separation. Purely combinatorial and
    extremely fast, which makes it the default phase-1 solver for large
    instances.

    Complexity: a radius is one walk over the instance's shared
    distance order (the [order] field of {!Flp.instance}), stopping at
    the first distance where the paid charge reaches the opening cost —
    [O(n)] per site and [O(n^2)] for {!radii}, with no sort and no
    allocation beyond the result. {!solve} adds an [O(n log n)] sort of the radii
    and an [O(n * |opened|)] separation scan. The order itself is built
    once per metric by {!Dmn_paths.Profile_cache.build}.

    The walk visits clients by [(distance, id)]. Bit-identity with a
    per-site sort that orders tied distances arbitrarily relies on
    integer-valued demands: ties add [slope * 0] to the paid charge,
    and integer demands sum exactly in any order. Integer demands are
    the only ones [Instance.related_flp] produces. *)

(** [radii inst] computes all charge radii. A site with zero opening
    cost has radius [0]; a site with positive opening cost and zero
    total demand has radius [infinity]. *)
val radii : Flp.instance -> float array

val solve : Flp.instance -> int list
