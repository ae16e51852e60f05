(** Plain-text serialization of instances and placements, for the CLI
    and for archiving experiment inputs — with validated ingestion and
    crash-safe file I/O.

    Instance format (whitespace-separated, [#] comments allowed):
    {v
    dmnet-instance v1
    <n> <objects> <m>
    u v w          (m edge lines)
    cs_0 .. cs_{n-1}
    fr_x0 .. fr_x{n-1}   (one line per object)
    fw_x0 .. fw_x{n-1}   (one line per object)
    v}

    {2 Error model}

    Every parser exists in two forms: a [Result]-based [_res] variant
    returning [('a, Err.t) result], and a thin raising wrapper (the
    historical API) that raises [Err.Error]. No input — however
    mangled — escapes as a bare stdlib [Failure] or [Invalid_argument]:
    syntactic damage is reported as {!Dmn_prelude.Err.Parse} and
    well-formed-but-invalid data (endpoint out of range, duplicate
    edge, non-finite weight or storage cost, negative count,
    disconnected graph, object-count mismatch) as
    {!Dmn_prelude.Err.Validation}, each carrying the source line and
    offending token where one exists. Declared counts are bounded
    against the input size before anything is allocated, so a tampered
    header cannot trigger a huge allocation. *)

val instance_to_string : Instance.t -> string

(** [instance_of_string_res ?file s] parses and fully validates [s].
    [file] is attached to errors for reporting. Only graph-backed,
    connected instances with finite storage costs round-trip. *)
val instance_of_string_res : ?file:string -> string -> (Instance.t, Dmn_prelude.Err.t) result

(** Raising wrapper over {!instance_of_string_res}.
    @raise Dmn_prelude.Err.Error on malformed or invalid input. *)
val instance_of_string : string -> Instance.t

val placement_to_string : Placement.t -> string

(** [placement_of_string_res ?file s] parses a placement and checks the
    declared object count against the number of copy rows. *)
val placement_of_string_res : ?file:string -> string -> (Placement.t, Dmn_prelude.Err.t) result

(** Raising wrapper over {!placement_of_string_res}.
    @raise Dmn_prelude.Err.Error on malformed or invalid input. *)
val placement_of_string : string -> Placement.t

(** {2 Crash-safe file I/O}

    [write_file] is atomic and durable: contents go to a temp file in
    the destination directory, are [fsync]'d, and are renamed over the
    destination (the directory is then fsync'd best-effort). A crash or
    injected fault at any point leaves either the complete old contents
    or the complete new contents — never a truncated file — and no temp
    file behind. Interrupted system calls ([EINTR]) are retried.

    Both operations carry {!Dmn_prelude.Fault} injection points:
    ["serial.read"], ["serial.write.open"], ["serial.write.write"],
    ["serial.write.fsync"], ["serial.write.rename"]. *)

val write_file_res :
  ?sync_dir:bool -> string -> string -> (unit, Dmn_prelude.Err.t) result
(** [write_file_res ?sync_dir path contents]. With [~sync_dir:false]
    the rename is left for a later [fsync] of the same directory to
    make durable — for a caller that writes another file there next
    and needs both renames durable only after the second. *)

(** [retry_eintr f] is [f ()], called again while it fails with [EINTR]. *)
val retry_eintr : (unit -> 'a) -> 'a

(** @raise Dmn_prelude.Err.Error with kind [Io] (or [Fault] under
    injection) on failure. *)
val write_file : string -> string -> unit

val read_file_res : string -> (string, Dmn_prelude.Err.t) result

(** @raise Dmn_prelude.Err.Error with kind [Io] on failure. *)
val read_file : string -> string

(** [load_instance path] reads and parses in one step, attaching [path]
    to any error. *)
val load_instance : string -> (Instance.t, Dmn_prelude.Err.t) result

val load_placement : string -> (Placement.t, Dmn_prelude.Err.t) result

(** {2 Streaming request traces}

    Text trace format (whitespace-separated, [#] comments allowed):
    {v
    dmnet-trace v1
    <nodes> <objects>
    r <node> <object>     (one line per item, in arrival order)
    w <node> <object>
    ew <u> <v> <w>        (topology: edge reweight)
    ed <u> <v>            (topology: edge down)
    eu <u> <v> <w>        (topology: edge up)
    nd <node>             (topology: node down)
    nu <node>             (topology: node up)
    v}

    Request lines and topology lines interleave freely; the topology
    kinds are only structurally validated here (endpoint ranges, weight
    finiteness) — consistency against the evolving network state is
    {!Dmn_paths.Churn.apply}'s job at replay time.

    Unlike the instance parser, traces are processed {e streamingly}:
    the reader hands back a lazy [Seq.t] that holds one line in memory
    at a time, and the writer drains a [Seq.t] to disk event by event —
    a million-event trace costs O(1) memory on both sides. The same
    error model applies: syntactic damage is {!Dmn_prelude.Err.Parse},
    out-of-range nodes/objects are {!Dmn_prelude.Err.Validation}, both
    carrying file and line. Fault points: ["trace.read"] at open,
    ["trace.read.event"] per event, ["trace.write.open"],
    ["trace.write.write"] (every 4096 events), ["trace.write.fsync"],
    ["trace.write.rename"]. *)

module Trace : sig
  type header = { nodes : int; objects : int }

  type event = { node : int; x : int; write : bool }

  (** A topology event embedded in a trace. *)
  type topo = Dmn_paths.Churn.event

  (** One trace item: a request or a topology event. *)
  type item = Req of event | Topo of topo

  (** [with_reader_res ?tolerate_truncation path f] opens [path],
      parses and validates the header, and runs [f header events].
      [events] is a {e one-shot, ephemeral} sequence: it reads from the
      file as it is forced and is only valid inside [f] (the file is
      closed when [f] returns). A malformed event encountered
      mid-stream raises [Err.Error] at the offending element; that
      error (and any raised by [f]) is returned as [Error]. A topology
      line raises {!Dmn_prelude.Err.Validation} naming the kind — this
      reader replays requests only; use {!with_items_res} for traces
      with churn.

      A final line with no terminating newline is the signature of a
      partial write (a crash mid-append). By default it is reported as
      a {!Dmn_prelude.Err.Parse} error naming the line and its byte
      offset; with [~tolerate_truncation:true] the stream stops cleanly
      at the last complete event instead (resume scenarios). Header
      truncation is never tolerated. *)
  val with_reader_res :
    ?tolerate_truncation:bool ->
    string ->
    (header -> event Seq.t -> 'a) ->
    ('a, Dmn_prelude.Err.t) result

  (** Raising wrapper over {!with_reader_res}.
      @raise Dmn_prelude.Err.Error on malformed input or I/O failure. *)
  val with_reader : ?tolerate_truncation:bool -> string -> (header -> event Seq.t -> 'a) -> 'a

  (** [with_items_res ?tolerate_truncation path f] is {!with_reader_res}
      over the full item grammar: request lines become [Req], topology
      lines become [Topo], both structurally validated against the
      header. The churn-aware replay engine reads traces through this
      interface. *)
  val with_items_res :
    ?tolerate_truncation:bool ->
    string ->
    (header -> item Seq.t -> 'a) ->
    ('a, Dmn_prelude.Err.t) result

  (** Raising wrapper over {!with_items_res}.
      @raise Dmn_prelude.Err.Error on malformed input or I/O failure. *)
  val with_items : ?tolerate_truncation:bool -> string -> (header -> item Seq.t -> 'a) -> 'a

  (** [write_res path header events] drains [events] to [path] with the
      same atomic, durable protocol as {!write_file} (temp file +
      [fsync] + rename), validating every event against [header].
      Returns the number of events written. The sequence is forced
      exactly once. *)
  val write_res : string -> header -> event Seq.t -> (int, Dmn_prelude.Err.t) result

  (** Raising wrapper over {!write_res}.
      @raise Dmn_prelude.Err.Error on invalid events or I/O failure. *)
  val write : string -> header -> event Seq.t -> int

  (** [write_items_res path header items] is {!write_res} over the full
      item grammar, emitting topology lines in place. Returns the
      number of items written. *)
  val write_items_res : string -> header -> item Seq.t -> (int, Dmn_prelude.Err.t) result

  (** Raising wrapper over {!write_items_res}.
      @raise Dmn_prelude.Err.Error on invalid items or I/O failure. *)
  val write_items : string -> header -> item Seq.t -> int

  (** [item_of_line_res ~header ?file ?line s] parses one wire line of
      the v1 trace grammar — the daemon's ingest protocol. Returns
      [Ok None] for non-items that may legitimately appear on a live
      stream: blank lines, [#] comments, a ["dmnet-trace v1"] banner,
      and a bare ["<nodes> <objects>"] count line matching [header]
      (so concatenated trace files can be piped in whole). A banner
      with a different version, a count line that contradicts the
      session's shape, or a malformed/out-of-range item is an error. *)
  val item_of_line_res :
    ?file:string ->
    ?line:int ->
    header:header ->
    string ->
    (item option, Dmn_prelude.Err.t) result

  (** Durable streaming trace writer — the serving daemon's ingest
      journal. Unlike {!write_items_res} (which buffers the whole
      stream into a temp file and atomically renames it at the end),
      an appender writes items as they arrive and makes them durable
      on demand: {!sync} flushes application buffers and [fsync]s, so
      after a crash the file is intact up to the last sync, plus at
      most one torn final line — exactly the damage the
      [?tolerate_truncation] reader shrugs off.

      Reopening with [~append:true] validates the existing header
      against the new one and {e repairs} a torn final line by
      truncating to the last complete one, so a journal survives any
      kill-and-restart cycle. *)
  module Appender : sig
    type t

    (** [create_res ?append path header] opens [path] for streaming
        item writes. Fresh files (and [append = false], the default)
        are truncated and given a v1 header, which is synced before
        returning — a journal that exists on disk always has a
        complete header. With [append = true] on an existing non-empty
        file, the header is read back and must equal [header], and a
        torn final line is truncated away. *)
    val create_res : ?append:bool -> string -> header -> (t, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!create_res}. *)
    val create : ?append:bool -> string -> header -> t

    (** [add_res t item] validates [item] against the header and
        appends its line to the OS buffer (durable only after
        {!sync_res}). *)
    val add_res : t -> item -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!add_res}. *)
    val add : t -> item -> unit

    (** [sync_res t] flushes and [fsync]s: every item added so far is
        durable. *)
    val sync_res : t -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!sync_res}. *)
    val sync : t -> unit

    (** [close_res t] syncs and closes; idempotent. *)
    val close_res : t -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!close_res}. *)
    val close : t -> unit

    (** Items appended through this handle (pre-existing items of an
        [append]ed file not included). *)
    val appended : t -> int

    val path : t -> string
    val header : t -> header
  end

  (** Rotating, prunable journal: a directory of appender segments
      ([seg-<start>.trace], [start] = the absolute index of the
      segment's first item, zero-padded so lexicographic order is
      chain order). The writer rotates to a fresh segment every
      [rotate_items] items; once a durable checkpoint covers a whole
      segment, {!prune_res} deletes it — so a soak's disk usage is
      bounded by [rotate_items × live segments], not by uptime. Resume
      and offline replay walk the surviving chain with
      {!read_chain_res}, which repairs nothing but tolerates (only) a
      torn tail on the {e final} segment — mid-chain damage is lost
      data and always an error.

      Fault points: the underlying {!Appender} points
      (["trace.append.open"/"write"/"sync"/"short"/"enospc"]) fire per
      segment operation. *)
  module Journal : sig
    type t

    (** [create_res ?append ?rotate_items dir header] opens (creating
        [dir] if needed) a journal. Fresh journals ([append = false],
        the default) remove any existing segments and start a
        [seg-0...] segment; with [append = true] the last existing
        segment is reopened — its header validated, a torn tail
        truncated away — and the chain continues where it stopped. *)
    val create_res :
      ?append:bool -> ?rotate_items:int -> string -> header -> (t, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!create_res}. *)
    val create : ?append:bool -> ?rotate_items:int -> string -> header -> t

    (** [add_res t item] appends one item, rotating to a new segment
        first when the active one is full. *)
    val add_res : t -> item -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!add_res}. *)
    val add : t -> item -> unit

    (** [sync_res t] makes every appended item durable; {!durable}
        then equals {!items_total}. *)
    val sync_res : t -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!sync_res}. *)
    val sync : t -> unit

    (** [close_res t] syncs and closes the active segment; idempotent. *)
    val close_res : t -> (unit, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!close_res}. *)
    val close : t -> unit

    (** [prune_res t ~covered] removes every segment whose entire item
        range lies below absolute index [covered] (a segment may go iff
        its successor starts at or before [covered]); the active
        segment is never removed. Returns the number of segments
        deleted. Call only with [covered] taken from a checkpoint that
        is itself durable — the pruned items' only other copy. *)
    val prune_res : t -> covered:int -> (int, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!prune_res}. *)
    val prune : t -> covered:int -> int

    (** Total items in the chain: the active segment's start plus its
        item count (pre-existing items of an appended journal
        included). Absolute — pruning does not change it. *)
    val items_total : t -> int

    (** Absolute item count covered by the last sync (or already on
        disk at open). *)
    val durable : t -> int

    val segments_res : t -> (int, Dmn_prelude.Err.t) result

    (** Segments currently on disk. *)
    val segments : t -> int

    val bytes_on_disk_res : t -> (int, Dmn_prelude.Err.t) result

    (** Bytes across all surviving segments. *)
    val bytes_on_disk : t -> int

    val dir : t -> string
    val header : t -> header

    (** The surviving chain, read eagerly: the common header, [base]
        (the absolute index of the first surviving item — 0 unless
        segments were pruned) and the items in order. *)
    type chain = { chain_header : header; base : int; chain_items : item list }

    (** [read_chain_res ?tolerate_truncation dir] validates contiguity
        (each segment starts where its predecessor ended) and header
        agreement while reading. [tolerate_truncation] (default
        [true]) applies to the final segment only. *)
    val read_chain_res : ?tolerate_truncation:bool -> string -> (chain, Dmn_prelude.Err.t) result

    (** Raising wrapper over {!read_chain_res}. *)
    val read_chain : ?tolerate_truncation:bool -> string -> chain

    (** [list_segments_res dir] is the chain's [(start, path)] list in
        chain order. *)
    val list_segments_res : string -> ((int * string) list, Dmn_prelude.Err.t) result

    type fsck_report = {
      f_segments : int;
      f_items : int;  (** complete items across the chain *)
      f_bytes : int;
      f_torn_tail : bool;  (** final segment ends mid-line *)
      f_repaired : bool;
    }

    (** [fsck_res ?repair dir] validates the chain offline: segment
        headers agree, the chain is contiguous, every line parses, and
        torn bytes appear (if anywhere) only at the final segment's
        tail. With [repair = true] a torn tail is truncated to the
        last complete item. Without [repair], a torn tail is reported
        in the (successful) report — it is exactly the damage resume
        handles — while any other inconsistency is an [Error]. *)
    val fsck_res : ?repair:bool -> string -> (fsck_report, Dmn_prelude.Err.t) result
  end
end

(** {2 Replay checkpoints}

    Versioned crash-safe snapshots of the replay engine's state, written
    by {!Ckpt_store} with the same atomic temp-file + [fsync] + rename
    protocol as {!write_file}. A checkpoint is a {e generation} plus a
    prefix of its directory's append-only {e row log}. The generation is
    line-oriented text:
    {v
    dmnet-ckpt v4
    section <name> <lines> <crc32>
    ...body lines...
    v}
    with seven sections — [meta] (policy, epoch geometry, progress, trace
    fingerprint, instance shape), [placements] (current copy set per
    object), [resolve] (per-object incremental-resolve state), [rows]
    (the row count, byte length and CRC-32 of the row-log prefix holding
    one accounting row per completed epoch, from which cumulative
    metrics are reconstructed), [histogram] (request cost distribution),
    [topology] (the churn delta: metric version and hash, down nodes,
    edge overrides — what a resumed run needs to rebuild the network
    state and prove it did so byte-identically) and [ops] (operational
    counters). Its size does not grow with the number of epochs. Each
    section header carries the CRC-32 of the exact body bytes, the
    prefix is checked against its recorded length and CRC-32, and each
    row line carries the CRC-32 of its own text: corruption anywhere
    yields a structured {!Dmn_prelude.Err.Validation} error naming the
    section, or the first bad byte of the row log (exit code 65 at the
    CLI), never a silently wrong resume.

    The {e fingerprint} is an order-sensitive hash over the trace header
    and every consumed event; [dmnet replay --resume] recomputes it
    while fast-forwarding the trace reader and refuses to resume
    against a trace that differs anywhere in the consumed prefix. *)

module Checkpoint : sig
  (** One completed epoch's accounting: the shared per-epoch schema.
      Rows are rendered and parsed column by column through
      {!Epoch_row.columns}. *)
  type epoch_row = Epoch_row.t

  (** Request-cost histogram state: parameters, sample sum, and the
      non-zero buckets as [(index, count)] in ascending index order. *)
  type hist_state = {
    h_lo : float;
    h_base : float;
    h_buckets : int;
    h_sum : float;
    h_counts : (int * int) list;
  }

  (** The topology delta at checkpoint time: applied-churn network
      state plus an integrity hash of the churned metric, so a resume
      that reconstructs a different matrix is refused. *)
  type topo_state = {
    metric_version : int;  (** {!Dmn_paths.Metric.version} of the churned metric *)
    metric_hash : int64;  (** {!Dmn_paths.Metric.hash64} of the churned metric *)
    down : int list;  (** failed nodes, strictly ascending *)
    edge_overrides : ((int * int) * float option) list;
        (** canonical [u < v]; [Some w] reweighted/added, [None] removed *)
  }

  (** The pristine-network topology state (version 1, no deltas) for
      runs without churn; its [metric_hash] of [0L] is a sentinel that
      resume does not check against a real metric. *)
  val no_topo : topo_state

  (** Per-object incremental-resolve state: the frequency vector the
      object last solved against (sparse [(node, count)] pairs, strictly
      ascending) and the {!Dmn_paths.Metric.hash64} of the network it
      solved on. Resume restores these so the dirty-set decisions of the
      continued run reproduce the original's exactly. An object that
      never solved carries [o_valid = false] and is forced dirty at its
      next active epoch. *)
  type obj_state = {
    o_valid : bool;
    o_mhash : int64;
    o_fr : (int * int) list;
    o_fw : (int * int) list;
  }

  (** The never-solved state ([o_valid = false], empty vectors). *)
  val no_obj_state : obj_state

  (** The row-log prefix a generation covers: [r_count] rows in its
      first [r_bytes] bytes, whose CRC-32 is [r_crc]. *)
  type rows_ref = { r_count : int; r_bytes : int; r_crc : int32 }

  (** The empty prefix. *)
  val no_rows : rows_ref

  type t = {
    policy : string;  (** engine policy name, e.g. ["resolve"] *)
    epoch_size : int;
    period : int;  (** storage accounting period *)
    dirty_eps : float;  (** the dirty-score threshold the run solved under *)
    next_epoch : int;  (** first epoch index the resumed run executes *)
    events_consumed : int;  (** trace request events consumed so far *)
    topo_consumed : int;  (** topology items consumed from the trace *)
    topo_applied : int;
        (** topology items already applied to the network ([<=
            topo_consumed]; the difference is the pending queue waiting
            for the next epoch boundary) *)
    fingerprint : int64;  (** trace-identity hash over the consumed prefix *)
    nodes : int;
    objects : int;
    placements : int list array;  (** current copy nodes per object *)
    resolve_state : obj_state array;  (** one per object, index-aligned *)
    epochs : epoch_row list;  (** chronological, one per completed epoch *)
    rows : rows_ref;
        (** the row-log prefix holding [epochs]; {!Ckpt_store.save_res}
            sets it when it appends the rows, whatever the caller
            passed *)
    hist : hist_state;
    topo : topo_state;  (** network state after [topo_applied] events *)
    checkpoints_written : int;  (** operational counter carried across resumes *)
    serve_retries : int;  (** operational counter carried across resumes *)
  }

  (** [fingerprint_init ~nodes ~objects] seeds the trace fingerprint
      from the header. *)
  val fingerprint_init : nodes:int -> objects:int -> int64

  (** [fingerprint_event h e] folds one consumed event into the hash.
      Order-sensitive. *)
  val fingerprint_event : int64 -> Trace.event -> int64

  (** [fingerprint_topo h t] folds one consumed topology item into the
      hash. Constructor codes live above bit 40 — disjoint from every
      request tag — and weights fold their exact float bits, so no
      request/topology confusion or weight edit can collide. *)
  val fingerprint_topo : int64 -> Trace.topo -> int64

  (** [fingerprint_item h it] dispatches to {!fingerprint_event} or
      {!fingerprint_topo}. *)
  val fingerprint_item : int64 -> Trace.item -> int64

  (** [to_string t] renders the generation: every section but the
      rows themselves, which {!t.rows} names in the row log. Its size
      does not grow with the number of epochs. *)
  val to_string : t -> string

  (** [render_rows rows] is the row-log text of [rows]: one line per
      row, the {!Epoch_row.columns} then the CRC-32 of that text. *)
  val render_rows : epoch_row list -> string

  (** [of_string_res ?file ?log_file ~log s] parses and fully validates
      generation [s] and the row-log prefix it covers in [log] (the
      whole row log; bytes past the prefix are ignored): section CRCs,
      count/range checks, the prefix's length and CRC, each row's own
      checksum, columns, non-negative ints and consecutive indices,
      [count = next_epoch], and the row sums against [events] and
      [topo_applied]. A damaged prefix is a {!Dmn_prelude.Err.Validation}
      error naming its first bad byte offset. [file] and [log_file]
      name the two files in errors. *)
  val of_string_res :
    ?file:string -> ?log_file:string -> log:string -> string -> (t, Dmn_prelude.Err.t) result

  (** [rows_ref_of_string_res ?file s] is the row reference of
      generation [s], validated as {!of_string_res} validates the
      generation, without reading the row log. *)
  val rows_ref_of_string_res : ?file:string -> string -> (rows_ref, Dmn_prelude.Err.t) result

  (** [rows_damage ~log r] is [None] when [log] holds [r]'s prefix
      intact (length and CRC), otherwise the offset of its first bad
      byte: the log's length when it is short, else the start of the
      first covered row that fails its own checksum or grammar ([0]
      when every row passes on its own, i.e. the prefix is another
      history's). *)
  val rows_damage : log:string -> rows_ref -> int option
end
