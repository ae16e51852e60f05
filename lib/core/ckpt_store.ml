open Dmn_prelude

(* Generational checkpoint directory ("dmnet-ckptdir v1").

   Layout:
     <dir>/MANIFEST          atomic pointer to the live generations
     <dir>/gen-000042.ckpt   one dmnet-ckpt v4 file per generation
     <dir>/rows.log          append-only epoch rows; each generation
                             covers a prefix of it (count, bytes, CRC)

   The manifest is the only mutable name; generations are written once
   (atomically, via {!Serial.write_file_res}) and then only ever
   deleted. Write ordering on save: new rows appended to the row log and
   fsync'd, generation file, manifest, pruning of old generations — so a
   crash between any two steps leaves either the previous manifest
   (pointing at intact older generations, whose log prefixes are
   untouched) or the new one (whose generations and rows are all
   durable). Unreferenced generation files and uncovered log bytes left
   by such a crash are benign: the next save drops or collects them, as
   does [fsck ~repair]. *)

module Ck = Serial.Checkpoint

let magic = "dmnet-ckptdir v1"
let manifest_name = "MANIFEST"
let rows_name = "rows.log"
let gen_name g = Printf.sprintf "gen-%06d.ckpt" g
let gen_path dir g = Filename.concat dir (gen_name g)
let rows_path dir = Filename.concat dir rows_name

(* Inverse of [gen_name]; wider counters still parse ("gen-1000000"),
   shorter ones do not exist because [gen_name] zero-pads. *)
let parse_gen_name name =
  let pre = "gen-" and suf = ".ckpt" in
  let lp = String.length pre and ls = String.length suf in
  let l = String.length name in
  if l > lp + ls && String.sub name 0 lp = pre && String.sub name (l - ls) ls = suf
  then
    let digits = String.sub name lp (l - lp - ls) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then int_of_string_opt digits
    else None
  else None

type manifest = {
  keep : int;  (** retention bound requested at the last save *)
  latest : int;  (** newest generation number *)
  gens : int list;  (** referenced generations, ascending *)
}

let manifest_body m =
  Printf.sprintf "keep %d\nlatest %d\ngens%s\n" m.keep m.latest
    (String.concat "" (List.map (Printf.sprintf " %d") m.gens))

let manifest_to_string m =
  let body = manifest_body m in
  Printf.sprintf "%s\n%scrc %s\n" magic body (Crc32.to_hex (Crc32.digest body))

let manifest_of_string_res ?file s =
  let fail fmt = Err.errorf ?file Err.Parse fmt in
  let lines = String.split_on_char '\n' s in
  match lines with
  | hd :: rest when hd = magic -> (
      (* body = everything between the magic line and the crc line *)
      let rec split acc = function
        | [ crc; "" ] | [ crc ] -> Some (List.rev acc, crc)
        | l :: tl -> split (l :: acc) tl
        | [] -> None
      in
      match split [] rest with
      | None -> fail "manifest truncated: missing crc line"
      | Some (body_lines, crc_line) -> (
          let body = String.concat "" (List.map (fun l -> l ^ "\n") body_lines) in
          match String.split_on_char ' ' crc_line with
          | [ "crc"; hex ] -> (
              match Crc32.of_hex_opt hex with
              | None -> fail "manifest crc line is not 8 hex digits: %S" crc_line
              | Some want ->
                  let got = Crc32.digest body in
                  if got <> want then
                    fail "manifest crc mismatch: stored %s, computed %s" (Crc32.to_hex want)
                      (Crc32.to_hex got)
                  else
                    let keep = ref None and latest = ref None and gens = ref None in
                    let parse_line l =
                      match String.split_on_char ' ' l with
                      | "keep" :: [ v ] -> (
                          match int_of_string_opt v with
                          | Some k when k >= 1 -> Ok (keep := Some k)
                          | _ -> fail "manifest: bad keep %S" v)
                      | "latest" :: [ v ] -> (
                          match int_of_string_opt v with
                          | Some g when g >= 0 -> Ok (latest := Some g)
                          | _ -> fail "manifest: bad latest %S" v)
                      | "gens" :: vs -> (
                          let rec ints acc = function
                            | [] -> Some (List.rev acc)
                            | v :: tl -> (
                                match int_of_string_opt v with
                                | Some g when g >= 0 -> ints (g :: acc) tl
                                | _ -> None)
                          in
                          match ints [] vs with
                          | Some l -> Ok (gens := Some l)
                          | None -> fail "manifest: bad gens line %S" l)
                      | _ -> fail "manifest: unknown line %S" l
                    in
                    let rec go = function
                      | [] -> Ok ()
                      | l :: tl -> ( match parse_line l with Ok () -> go tl | Error e -> Error e)
                    in
                    Result.bind (go body_lines) (fun () ->
                        match (!keep, !latest, !gens) with
                        | Some keep, Some latest, Some gens ->
                            let sorted = List.sort_uniq compare gens in
                            if sorted <> gens then fail "manifest: gens not ascending"
                            else if gens = [] then fail "manifest: empty gens list"
                            else if List.nth gens (List.length gens - 1) <> latest then
                              fail "manifest: latest %d is not the last generation" latest
                            else Ok { keep; latest; gens }
                        | _ -> fail "manifest: missing keep/latest/gens line"))
          | _ -> fail "manifest: last line is not a crc line: %S" crc_line))
  | hd :: _ -> fail "bad manifest magic: %S (want %S)" hd magic
  | [] -> fail "empty manifest"

let manifest_path dir = Filename.concat dir manifest_name

let read_manifest_res dir =
  let path = manifest_path dir in
  Result.bind (Serial.read_file_res path) (manifest_of_string_res ~file:path)

let write_manifest_res dir m = Serial.write_file_res (manifest_path dir) (manifest_to_string m)

let ensure_dir_res dir =
  match Unix.stat dir with
  | { Unix.st_kind = Unix.S_DIR; _ } -> Ok ()
  | _ -> Err.errorf ~file:dir Err.Io "checkpoint directory path exists but is not a directory"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
      match Unix.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
      | exception Unix.Unix_error (e, _, _) ->
          Err.errorf ~file:dir Err.Io "cannot create checkpoint directory: %s" (Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) ->
      Err.errorf ~file:dir Err.Io "cannot stat checkpoint directory: %s" (Unix.error_message e)

(* All gen-*.ckpt files on disk, ascending. *)
let scan_gens_res dir =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.filter_map parse_gen_name
      |> List.sort_uniq compare |> Result.ok
  | exception Sys_error msg -> Err.errorf ~file:dir Err.Io "cannot list checkpoint directory: %s" msg

(* ----- the row log ----- *)

(* The whole row log; a directory without one has no rows yet. *)
let read_rows_res dir =
  let path = rows_path dir in
  if Sys.file_exists path then Serial.read_file_res path else Ok ""

let load_gen_with ~log dir g =
  let file = gen_path dir g in
  Result.bind (Serial.read_file_res file) (Ck.of_string_res ~file ~log_file:(rows_path dir) ~log)

let load_gen_res dir g = Result.bind (read_rows_res dir) (fun log -> load_gen_with ~log dir g)

(* What this process last made durable in a directory's row log: the
   covered prefix and the newest row in it. A save whose history holds
   that very row (physically — the engine's rows are immutable and only
   ever appended) at the same index extends it, so only its new rows
   are rendered, appended and fsync'd. Anything else — the first save
   in this process, a resumed engine (its rows were parsed anew), a
   different history, a failed append — rewrites the whole log
   atomically from the checkpoint's rows. That happens once per
   process, and it drops any uncovered tail a crash or a fallback to
   an older generation left behind. *)
type tail = { covered : Ck.rows_ref; newest : Epoch_row.t }

let tails : (string, tail) Hashtbl.t = Hashtbl.create 4
let tails_lock = Mutex.create ()

(* [rows] past the [covered] prefix, if [newest] is its last row *)
let past t rows =
  let rec go k = function
    | r :: rest when k = 1 -> if r == t.newest then Some rest else None
    | _ :: rest -> go (k - 1) rest
    | [] -> None
  in
  if t.covered.r_count = 0 then Some rows else go t.covered.r_count rows

let extend (r : Ck.rows_ref) rows text =
  {
    Ck.r_count = r.r_count + List.length rows;
    r_bytes = r.r_bytes + String.length text;
    r_crc = Crc32.update r.r_crc text;
  }

(* Append [fresh] after [t.covered], truncating anything past it first;
   [None] when the file no longer holds the covered prefix. *)
let append path t fresh =
  let fd =
    Serial.retry_eintr (fun () ->
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size and base = t.covered.r_bytes in
      if size < base then None
      else begin
        if size > base then Serial.retry_eintr (fun () -> Unix.ftruncate fd base);
        if fresh = [] then Some t.covered
        else begin
          let text = Ck.render_rows fresh in
          let len = String.length text in
          ignore (Unix.lseek fd base Unix.SEEK_SET);
          (* injected torn append: a prefix of the new rows reaches the
             disk, then the write fails *)
          let stop = if Fault.fires "ckpt.rows.write" then len / 2 else len in
          let rec loop off =
            if off < stop then
              loop
                (off + Serial.retry_eintr (fun () -> Unix.write_substring fd text off (stop - off)))
          in
          loop 0;
          if stop < len then
            Err.failf Err.Fault "injected torn row-log append (%d of %d bytes)" stop len;
          Fault.check "ckpt.rows.fsync";
          Serial.retry_eintr (fun () -> Unix.fsync fd);
          Some (extend t.covered fresh text)
        end
      end)

(* Steps 1-2 of a save: every row of the checkpoint durable in the log. *)
let append_rows_res dir rows =
  let path = rows_path dir in
  let cached =
    Mutex.protect tails_lock (fun () ->
        let t = Hashtbl.find_opt tails dir in
        Hashtbl.remove tails dir;
        t)
  in
  let rewrite () =
    let text = Ck.render_rows rows in
    Result.map (fun () -> (extend Ck.no_rows rows text, Epoch_row.zero, rows))
      (Serial.write_file_res path text)
  in
  let result =
    match Option.bind cached (fun t -> Option.map (fun fresh -> (t, fresh)) (past t rows)) with
    | None -> rewrite ()
    | Some (t, fresh) -> (
        match append path t fresh with
        | Some covered -> Ok (covered, t.newest, fresh)
        | None -> rewrite ()
        | exception Err.Error e -> Error (Err.with_file path e)
        | exception Unix.Unix_error (err, op, _) ->
            Err.errorf ~file:path Err.Io "%s: %s" op (Unix.error_message err))
  in
  Result.map
    (fun (covered, newest, fresh) ->
      let newest = List.fold_left (fun _ r -> r) newest fresh in
      Mutex.protect tails_lock (fun () -> Hashtbl.replace tails dir { covered; newest });
      covered)
    result

type loaded = { ckpt : Ck.t; generation : int; fallbacks : int }

let load_res dir =
  (* Candidates newest-first: the manifest's list when it is intact, a
     directory scan when it is missing or corrupt (that too is a
     fallback worth surviving). *)
  let from_manifest = Result.map (fun m -> m.gens) (read_manifest_res dir) in
  let manifest_penalty, candidates =
    match from_manifest with
    | Ok gens -> (0, List.rev gens)
    | Error _ -> (1, Result.fold ~ok:List.rev ~error:(fun _ -> []) (scan_gens_res dir))
  in
  if candidates = [] then
    Err.errorf ~file:dir Err.Io "no checkpoint generations found%s"
      (if manifest_penalty > 0 then " (manifest missing or corrupt)" else "")
  else
    Result.bind (read_rows_res dir) @@ fun log ->
    (* when every generation fails, the newest one's error says why *)
    let rec try_gens newest skipped = function
      | [] ->
          let e = Option.get newest in
          Err.errorf ?file:e.Err.file e.Err.kind
            "all %d checkpoint generations in %s are corrupt or unreadable; the newest: %s"
            (List.length candidates) dir e.Err.msg
      | g :: rest -> (
          match load_gen_with ~log dir g with
          | Ok ckpt -> Ok { ckpt; generation = g; fallbacks = manifest_penalty + skipped }
          | Error e -> try_gens (Some (Option.value newest ~default:e)) (skipped + 1) rest)
    in
    try_gens None 0 candidates

let remove_gen dir g = try Sys.remove (gen_path dir g) with Sys_error _ -> ()

let save_res dir ~keep ckpt =
  if keep < 1 then invalid_arg "Ckpt_store.save: keep must be >= 1";
  Result.bind (ensure_dir_res dir) @@ fun () ->
  (* Previous state: intact manifest if we have one, otherwise whatever
     generations survive on disk (never trust a corrupt manifest to
     name the retention set). *)
  let prev_gens =
    match read_manifest_res dir with
    | Ok m -> m.gens
    | Error _ -> Result.fold ~ok:Fun.id ~error:(fun _ -> []) (scan_gens_res dir)
  in
  let next = match List.rev prev_gens with g :: _ -> g + 1 | [] -> 0 in
  Result.bind (append_rows_res dir ckpt.Ck.epochs) @@ fun rows ->
  (* The manifest write's directory fsync makes this rename durable
     too, and nothing is removed before it. *)
  Result.bind
    (Serial.write_file_res ~sync_dir:false (gen_path dir next) (Ck.to_string { ckpt with rows }))
  @@ fun () ->
  let all = prev_gens @ [ next ] in
  let drop = max 0 (List.length all - keep) in
  let kept = List.filteri (fun i _ -> i >= drop) all in
  let dropped = List.filteri (fun i _ -> i < drop) all in
  Result.bind (write_manifest_res dir { keep; latest = next; gens = kept }) @@ fun () ->
  (* Only after the manifest durably stopped referencing them. Also
     collect stray files from earlier crashed saves. *)
  List.iter (remove_gen dir) dropped;
  (match scan_gens_res dir with
  | Ok on_disk -> List.iter (fun g -> if not (List.mem g kept) then remove_gen dir g) on_disk
  | Error _ -> ());
  Ok next

type fsck_report = {
  f_generations : int;  (** referenced generations that load cleanly *)
  f_latest : int;  (** newest valid generation *)
  f_corrupt : int;  (** referenced generations that fail CRC/parse *)
  f_unreferenced : int;  (** gen files on disk the manifest does not list *)
  f_manifest_ok : bool;
  f_rows_bad : int option;  (** first bad byte of a covered row-log prefix *)
  f_rows_tail : int;  (** row-log bytes past every valid generation's prefix *)
  f_repaired : bool;
}

let fsck_res ?(repair = false) dir =
  Result.bind (scan_gens_res dir) @@ fun on_disk ->
  Result.bind (read_rows_res dir) @@ fun log ->
  let manifest = read_manifest_res dir in
  let manifest_ok = Result.is_ok manifest in
  let referenced = match manifest with Ok m -> m.gens | Error _ -> on_disk in
  let keep = match manifest with Ok m -> m.keep | Error _ -> max 1 (List.length on_disk) in
  (* each referenced generation: its covered prefix when it loads, or
     the first bad byte of the row log when that is why it does not *)
  let checked =
    List.map
      (fun g ->
        match Serial.read_file_res (gen_path dir g) with
        | Error _ -> (g, Error None)
        | Ok s -> (
            match Ck.of_string_res ~log s with
            | Ok c -> (g, Ok c.Ck.rows.r_bytes)
            | Error _ ->
                (g, Error (Result.fold ~ok:(Ck.rows_damage ~log) ~error:(fun _ -> None)
                             (Ck.rows_ref_of_string_res s)))))
      referenced
  in
  let valid = List.filter_map (function g, Ok _ -> Some g | _, Error _ -> None) checked in
  let corrupt = List.filter_map (function g, Error _ -> Some g | _, Ok _ -> None) checked in
  let covered = List.fold_left (fun acc -> function _, Ok b -> max acc b | _ -> acc) 0 checked in
  let rows_bad =
    List.fold_left
      (fun acc -> function
        | _, Error (Some at) -> Some (match acc with Some a -> min a at | None -> at)
        | _ -> acc)
      None checked
  in
  let rows_tail = String.length log - covered in
  let unreferenced = List.filter (fun g -> not (List.mem g referenced)) on_disk in
  match List.rev valid with
  | [] ->
      if manifest_ok || on_disk <> [] then
        Err.errorf ~file:dir Err.Parse "no valid checkpoint generation (%d corrupt, %d on disk)%s"
          (List.length corrupt) (List.length on_disk)
          (match rows_bad with
          | Some at -> Printf.sprintf "; row log damaged at byte offset %d" at
          | None -> "")
      else Err.errorf ~file:dir Err.Io "not a checkpoint directory: no manifest, no generations"
  | latest :: _ ->
      let report repaired =
        {
          f_generations = List.length valid;
          f_latest = latest;
          f_corrupt = List.length corrupt;
          f_unreferenced = List.length unreferenced;
          f_manifest_ok = manifest_ok;
          f_rows_bad = rows_bad;
          f_rows_tail = rows_tail;
          f_repaired = repaired;
        }
      in
      let needs_repair =
        (not manifest_ok) || corrupt <> [] || unreferenced <> [] || rows_tail > 0
      in
      if repair && needs_repair then
        (* Rewrite the manifest over the valid set first, then drop the
           no-longer-referenced files and the uncovered log tail. *)
        Result.bind (write_manifest_res dir { keep; latest; gens = valid }) @@ fun () ->
        List.iter (remove_gen dir) corrupt;
        List.iter (remove_gen dir) unreferenced;
        match if rows_tail > 0 then Unix.truncate (rows_path dir) covered with
        | () -> Ok (report true)
        | exception Unix.Unix_error (err, op, _) ->
            Err.errorf ~file:(rows_path dir) Err.Io "%s: %s" op (Unix.error_message err)
      else Ok (report false)

let save dir ~keep ckpt = Err.get_ok (save_res dir ~keep ckpt)
let load dir = Err.get_ok (load_res dir)
