(** The one schema of a per-epoch accounting row.

    The replay engine records one row per completed epoch: the paper's
    three costs (serving, storage, migration), the request mix, the
    re-solve and solve-cache counters, churn counters, the copy count
    and request-cost percentiles. That row is the replay engine's
    [epoch_stats], the checkpoint's {!Serial.Checkpoint.epoch_row}, and
    — replayed through a metrics registry — every epoch of the metrics
    JSON. {!fields} describes each field once; the engine's instruments,
    its recording loop, the run totals, the checkpoint's epoch-row codec
    and the totals JSON all walk that table, so adding a counter is one
    record field, one table entry and one line of {!make}.

    Run totals are the sum of the rows: {!sum} adds every field that has
    a totals position, in row order, from zero. *)

type t = {
  index : int;  (** 0-based epoch number *)
  events : int;
  reads : int;
  writes : int;  (** reads/writes count all consumed requests, dropped included *)
  serving : float;  (** served requests only *)
  storage : float;
  migration : float;  (** re-solve transfers plus emergency replication *)
  resolves : int;  (** objects successfully re-solved at this boundary *)
  solve_retries : int;
  solve_fallbacks : int;
  solve_skipped : int;
      (** active objects carried without re-solving (change score within
          [dirty_eps]); [resolves + solve_fallbacks + solve_skipped] is
          the epoch's active-object count under [Resolve] *)
  dirty : int;  (** objects classified dirty ([= resolves + solve_fallbacks]) *)
  cache_hits : int;  (** dirty objects satisfied from the solve cache *)
  cache_misses : int;
  cache_evictions : int;
  dropped : int;
      (** requests not served: the requester was dead, or partitioned
          away from every copy of the object *)
  emergency : int;  (** objects emergency-re-replicated at this boundary *)
  topo : int;  (** topology events applied at the start of this epoch *)
  copies : int;  (** total copies over all objects at the end of the epoch *)
  p50 : float;  (** percentiles over served requests; 0 if none was served *)
  p95 : float;
  p99 : float;
}

type value = Int of int | Float of float

type field = {
  name : string;  (** the record field's name, and its totals-JSON key *)
  zero : value;  (** [Int 0] or [Float 0.0]: the field's kind, and the identity of {!sum} *)
  get : t -> value;
  gauge : string;  (** per-epoch gauge name in the engine's metrics registry *)
  counter : string option;  (** cumulative counter name, for int fields that have one *)
  col : int;  (** column in a [dmnet-ckpt v3] epoch row *)
  total : int option;  (** position among the totals-JSON keys; [None] = not summed *)
}

(** Every field, in metrics-registry order: the engine registers the
    counters of this table in order, then its gauges in order. *)
val fields : field array

(** [make v] is the row whose field [f] holds [v f]; [v] is applied to
    {!fields} in table order.
    @raise Invalid_argument when [v f] is not of [f]'s kind. *)
val make : (field -> value) -> t

(** The all-zero row. *)
val zero : t

(** The fields in checkpoint column order ([columns.(c).col = c]). *)
val columns : field array

(** The summed fields in totals-JSON key order. *)
val summed : field array

(** [sum rows] adds the summed fields of [rows] in list order, starting
    from zero (floats accumulate left to right, so equal rows give
    bit-identical sums); every other field is zero. *)
val sum : t list -> t
