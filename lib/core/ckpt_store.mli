(** Generational checkpoint directory ("dmnet-ckptdir v1").

    A checkpoint {e directory} holds the last K checkpoint generations,
    an atomic [MANIFEST] naming them, and the append-only row log
    [rows.log] that holds every completed epoch's row:

    {v
    dmnet-ckptdir v1
    keep 3
    latest 42
    gens 40 41 42
    crc 1a2b3c4d
    v}

    The crc line is a CRC-32 over the body lines (everything between
    the magic and the crc line), so a torn manifest is detected rather
    than trusted. Each generation [gen-NNNNNN.ckpt] is a self-guarded
    [dmnet-ckpt v4] file ({!Serial.Checkpoint}) that names the prefix
    of the row log it covers by row count, byte length and CRC-32, so
    its size does not grow with the number of epochs.

    Write ordering on {!save_res}: the checkpoint's new rows appended to
    the row log and fsync'd, {e then} the new generation file (atomic
    tmp + rename), {e then} the manifest rewrite (atomic), {e then}
    pruning of dropped generations. A crash between any two steps
    leaves a loadable directory; stray generation files and uncovered
    row-log bytes from a crashed save are dropped by the next save or by
    {!fsck_res}[ ~repair].

    {!load_res} walks the manifest's generations newest-first and
    returns the first whose generation and row-log prefix pass every
    check, counting skipped generations (and a missing/corrupt
    manifest, which falls back to a directory scan) in [fallbacks] — a
    corrupt latest generation, or a damaged row in its prefix only,
    degrades to the previous one instead of failing. *)

val magic : string
(** First line of the manifest: ["dmnet-ckptdir v1"]. *)

val manifest_name : string
(** Manifest filename inside the directory: ["MANIFEST"]. *)

val rows_name : string
(** Row-log filename inside the directory: ["rows.log"]. *)

val gen_name : int -> string
(** [gen_name g] is the filename of generation [g], e.g.
    ["gen-000042.ckpt"]. *)

val parse_gen_name : string -> int option
(** Inverse of {!gen_name} on filenames ([None] for foreign files). *)

type manifest = {
  keep : int;  (** retention bound requested at the last save *)
  latest : int;  (** newest generation number *)
  gens : int list;  (** referenced generations, ascending; never empty *)
}

val manifest_to_string : manifest -> string

val manifest_of_string_res :
  ?file:string -> string -> (manifest, Dmn_prelude.Err.t) result
(** Parses and CRC-checks a manifest. Errors with kind [Parse] on any
    mismatch (bad magic, torn file, crc mismatch, non-ascending gens,
    [latest] not the last entry). *)

val read_manifest_res : string -> (manifest, Dmn_prelude.Err.t) result
(** [read_manifest_res dir] reads and validates [dir/MANIFEST]. *)

val save_res :
  string -> keep:int -> Serial.Checkpoint.t -> (int, Dmn_prelude.Err.t) result
(** [save_res dir ~keep ckpt] writes the next generation into [dir]
    (creating it if needed), updates the manifest, prunes generations
    beyond the newest [keep], and returns the new generation number.
    The generation's [rows] is the row-log prefix holding
    [ckpt.epochs], whatever [ckpt.rows] said.

    When [ckpt.epochs] extends the history this process last saved into
    [dir] — its row at the last saved index is that same (physically
    equal) row, as in the engine's append-only history — only the new
    rows are rendered and appended, at the fault points
    ["ckpt.rows.write"] (a torn append) and ["ckpt.rows.fsync"]. Any
    other history rewrites the whole log atomically.
    @raise Invalid_argument if [keep < 1]. *)

val save : string -> keep:int -> Serial.Checkpoint.t -> int
(** {!save_res}, raising [Err.Error]. *)

type loaded = {
  ckpt : Serial.Checkpoint.t;
  generation : int;  (** the generation that loaded cleanly *)
  fallbacks : int;
      (** corrupt/unreadable newer generations skipped to get here,
          plus 1 if the manifest itself was missing or corrupt *)
}

val load_res : string -> (loaded, Dmn_prelude.Err.t) result
(** [load_res dir] loads the newest valid generation, newest-first,
    with the rows of its row-log prefix in [epochs]. Errors only when
    no generation in [dir] passes validation. It writes nothing: the
    resumed engine's first save rewrites the row log, which drops any
    tail its generation does not cover. *)

val load_gen_res : string -> int -> (Serial.Checkpoint.t, Dmn_prelude.Err.t) result
(** [load_gen_res dir g] loads generation [g] of [dir] with its rows. *)

val load : string -> loaded
(** {!load_res}, raising [Err.Error]. *)

type fsck_report = {
  f_generations : int;  (** referenced generations that load cleanly *)
  f_latest : int;  (** newest valid generation *)
  f_corrupt : int;  (** referenced generations failing CRC/parse *)
  f_unreferenced : int;  (** gen files on disk the manifest omits *)
  f_manifest_ok : bool;
  f_rows_bad : int option;
      (** the first bad byte offset in a referenced generation's row-log
          prefix (the log's length when it is short), if one is damaged *)
  f_rows_tail : int;
      (** row-log bytes past every valid generation's prefix: the torn or
          uncovered tail a kill leaves, benign *)
  f_repaired : bool;  (** true iff [~repair] rewrote the directory *)
}

val fsck_res : ?repair:bool -> string -> (fsck_report, Dmn_prelude.Err.t) result
(** Offline validation of a checkpoint directory. Checks every
    referenced generation with its row-log prefix (length and CRC-32)
    and reports corrupt and unreferenced generations, the first bad
    byte of a damaged prefix and the uncovered log tail; with
    [~repair:true] rewrites the manifest over the valid set, deletes
    corrupt/unreferenced files and truncates the row log to the valid
    generations' coverage. Errors when no valid generation exists at
    all. A healthy directory yields [f_corrupt = 0],
    [f_unreferenced = 0], [f_manifest_ok = true], [f_rows_bad = None]. *)
