(* Generational durability: checkpoint-directory manifests, fallback
   past a corrupt newest generation, journal segment rotation with
   torn-tail repair at a segment boundary, tmp-file hygiene of the
   atomic writer under injected faults, and the disk-chaos property —
   kill at an injected fault, resume, byte-identical to offline replay
   of the surviving journal at 1 and 4 domains. *)

open Dmn_prelude
module I = Dmn_core.Instance
module A = Dmn_core.Approx
module S = Dmn_core.Serial
module Trace = Dmn_core.Serial.Trace
module J = Dmn_core.Serial.Trace.Journal
module Cs = Dmn_core.Ckpt_store
module Ck = Dmn_core.Serial.Checkpoint
module Row = Dmn_core.Epoch_row
module St = Dmn_dynamic.Stream
module En = Dmn_engine.Engine
module Srv = Dmn_server.Server

let tmp_name =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dmnet-test-durability-%d-%d-%s" (Unix.getpid ()) !counter suffix)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* a fresh directory path — created by the code under test *)
let with_tmp_dir suffix f =
  let path = tmp_name suffix in
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let small_instance ?(objects = 2) ?(n = 12) seed =
  let rng = Rng.create seed in
  let g = Dmn_graph.Gen.random_geometric rng n 0.5 in
  let nn = Dmn_graph.Wgraph.n g in
  let cs = Array.init nn (fun _ -> Rng.float_in rng 1.0 5.0) in
  let { Dmn_workload.Freq.fr; fw } =
    Dmn_workload.Freq.mix rng ~objects ~n:nn ~total:(6 * nn) ~write_fraction:0.25
  in
  I.of_graph g ~cs ~fr ~fw

let sample_checkpoint ~events_consumed ~next_epoch =
  {
    Ck.policy = "resolve"; epoch_size = 100; period = 400; next_epoch; events_consumed;
    topo_consumed = 0; topo_applied = 0;
    fingerprint = Int64.of_int (events_consumed * 7919); nodes = 5; objects = 2;
    placements = [| [ 0; 3 ]; [ 2 ] |];
    epochs =
      List.init next_epoch (fun index ->
          {
            Row.index; events = 100; reads = 80; writes = 20; resolves = 1; solve_retries = 0;
            solve_fallbacks = 0; copies = 3; dropped = 0; emergency = 0; topo = 0;
            serving = 12.5; storage = 3.25; migration = 0.5;
            p50 = 1.0; p95 = 2.0; p99 = 4.0;
            solve_skipped = 0; dirty = 1; cache_hits = 0; cache_misses = 0; cache_evictions = 0;
          });
    rows = Ck.no_rows;
    dirty_eps = 0.0;
    resolve_state = [| Ck.no_obj_state; Ck.no_obj_state |];
    hist = { Ck.h_lo = 1.0; h_base = 2.0; h_buckets = 8; h_sum = 0.0; h_counts = [] };
    topo = Ck.no_topo;
    checkpoints_written = next_epoch; serve_retries = 0;
  }

(* ---------- manifest grammar ---------- *)

let qcheck_manifest_roundtrip =
  let open QCheck.Gen in
  let gen_manifest =
    let* keep = int_range 1 9 in
    let* first = int_range 0 1000 in
    let* steps = list_size (int_range 0 5) (int_range 1 9) in
    let gens =
      List.rev
        (List.fold_left (fun acc step -> (List.hd acc + step) :: acc) [ first ] steps)
    in
    return { Cs.keep; latest = List.hd (List.rev gens); gens }
  in
  QCheck.Test.make ~name:"Ckpt_store manifest round-trips through its grammar" ~count:200
    (QCheck.make ~print:Cs.manifest_to_string gen_manifest)
    (fun m ->
      match Cs.manifest_of_string_res (Cs.manifest_to_string m) with
      | Ok m' -> m' = m
      | Error e -> QCheck.Test.fail_reportf "rejected its own output: %s" (Err.to_string e))

let manifest_corruption_detected () =
  let m = { Cs.keep = 3; latest = 12; gens = [ 10; 11; 12 ] } in
  let s = Cs.manifest_to_string m in
  let flip i =
    let b = Bytes.of_string s in
    Bytes.set b i (if Bytes.get b i = '1' then '2' else '1');
    Bytes.to_string b
  in
  (* flip a digit inside the body: the crc line must catch it *)
  let body_digit = String.index_from s (String.length Cs.magic) '1' in
  (match Cs.manifest_of_string_res (flip body_digit) with
  | Error e -> Alcotest.(check bool) "parse kind" true (e.Err.kind = Err.Parse)
  | Ok _ -> Alcotest.fail "flipped manifest body accepted");
  (* a torn manifest (truncated mid-file) is rejected, not trusted *)
  match Cs.manifest_of_string_res (String.sub s 0 (String.length s / 2)) with
  | Error e -> Alcotest.(check bool) "torn manifest rejected" true (e.Err.kind = Err.Parse)
  | Ok _ -> Alcotest.fail "torn manifest accepted"

(* ---------- generation retention and fallback ---------- *)

let store_keeps_k_and_falls_back () =
  with_tmp_dir "ckptdir" @@ fun dir ->
  let gens =
    List.map
      (fun i -> Cs.save dir ~keep:3 (sample_checkpoint ~events_consumed:(100 * i) ~next_epoch:i))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "generation numbers are sequential" [ 0; 1; 2; 3; 4 ] gens;
  let m = Err.get_ok (Cs.read_manifest_res dir) in
  Alcotest.(check (list int)) "only the last keep=3 survive" [ 2; 3; 4 ] m.Cs.gens;
  Alcotest.(check bool) "pruned generation gone" false
    (Sys.file_exists (Filename.concat dir (Cs.gen_name 0)));
  let l = Cs.load dir in
  Alcotest.(check int) "clean load picks the newest" 4 l.Cs.generation;
  Alcotest.(check int) "no fallbacks on a clean load" 0 l.Cs.fallbacks;
  Alcotest.(check int) "payload is the newest" 500 l.Cs.ckpt.Ck.events_consumed;
  (* corrupt the newest generation: a torn write leaves half a file *)
  let latest = Filename.concat dir (Cs.gen_name 4) in
  let body = In_channel.with_open_bin latest In_channel.input_all in
  Out_channel.with_open_bin latest (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  let l = Cs.load dir in
  Alcotest.(check int) "falls back one generation" 3 l.Cs.generation;
  Alcotest.(check int) "fallback counted" 1 l.Cs.fallbacks;
  Alcotest.(check int) "previous payload served" 400 l.Cs.ckpt.Ck.events_consumed;
  (* fsck sees the damage; repair rewrites the directory over the valid set *)
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "fsck counts the corrupt generation" 1 r.Cs.f_corrupt;
  let r = Err.get_ok (Cs.fsck_res ~repair:true dir) in
  Alcotest.(check bool) "repair rewrote" true r.Cs.f_repaired;
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "healthy after repair" 0 r.Cs.f_corrupt;
  Alcotest.(check bool) "manifest ok after repair" true r.Cs.f_manifest_ok;
  Alcotest.(check int) "latest is the fallback generation" 3 r.Cs.f_latest;
  (* destroying every generation is the unrecoverable case *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  match Cs.load_res dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an empty directory loaded"

(* ---------- the row log ---------- *)

let rows_of dir = S.read_file (Filename.concat dir Cs.rows_name)
let gen_size dir g = (Unix.stat (Filename.concat dir (Cs.gen_name g))).Unix.st_size

(* Batches of [size] requests: what [En.run_items] cuts at [epoch = size]. *)
let rec batches size = function
  | [] -> []
  | items ->
      let batch = List.filteri (fun i _ -> i < size) items in
      batch :: batches size (List.filteri (fun i _ -> i >= size) items)

(* A generation names its row-log prefix instead of holding the rows,
   so at 10,000 epochs it is as large as at 1,000 up to the digits its
   counters gained. *)
let generation_size_is_flat () =
  let inst = small_instance 5 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Static; epoch = 5 } in
  with_tmp_dir "flat-ckpt" @@ fun dir ->
  let events = St.stationary_seq (Rng.create 3) inst ~length:50_000 in
  let r =
    En.run_items ~config ~ckpt:{ En.dir; every = 1000; keep = 10 } inst placement
      (St.items_of_events events)
  in
  Alcotest.(check int) "10,000 epochs" 10_000 (List.length r.En.epochs);
  let epoch_of g = (Err.get_ok (Cs.load_gen_res dir g)).Ck.next_epoch in
  Alcotest.(check (pair int int)) "generations 0 and 9" (1_000, 10_000) (epoch_of 0, epoch_of 9);
  let grew = gen_size dir 9 - gen_size dir 0 in
  if grew < 0 || grew > 64 then
    Alcotest.failf "generation grew by %d bytes from 1,000 to 10,000 epochs" grew;
  Alcotest.(check bool) "the rows are in the log" true
    (String.length (rows_of dir) > 100 * 10_000)

(* A save that dies after its rows reached the log but before its
   generation did leaves an uncovered tail: fsck reports it as benign,
   and the resumed run drops it and ends byte-identical. *)
let kill_between_row_append_and_generation () =
  let inst = small_instance 7 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 40 } in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 11) inst ~length:800))
  in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  with_tmp_dir "kill-ckpt" @@ fun dir ->
  let ckpt = { En.dir; every = 1; keep = 3 } in
  let eng = En.create ~config ~ckpt inst placement in
  let bs = batches 40 items in
  List.iteri (fun i b -> if i < 8 then En.step eng b) bs;
  let covered = String.length (rows_of dir) in
  (Fun.protect ~finally:Fault.disable @@ fun () ->
   Fault.configure ~seed:1 ~rate:1.0 ~points:[ "serial.write.open" ] ();
   match En.step eng (List.nth bs 8) with
   | () -> Alcotest.fail "the generation write survived an injected failure"
   | exception Err.Error _ -> ());
  Alcotest.(check bool) "the ninth row reached the log" true
    (String.length (rows_of dir) > covered);
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "no corrupt generation" 0 r.Cs.f_corrupt;
  Alcotest.(check int) "uncovered tail reported" (String.length (rows_of dir) - covered)
    r.Cs.f_rows_tail;
  let loaded = Cs.load dir in
  Alcotest.(check int) "resumes after epoch 8" 8 loaded.Cs.ckpt.Ck.next_epoch;
  let resumed = En.run_items ~config ~ckpt ~resume:loaded.Cs.ckpt inst placement (List.to_seq items) in
  Alcotest.(check string) "metrics byte-identical" reference (En.metrics_json inst resumed);
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "tail gone" 0 r.Cs.f_rows_tail;
  Alcotest.(check int) "every row once" 20 (List.length (String.split_on_char '\n' (rows_of dir)) - 1)

(* A damaged generation sends resume to an older one whose prefix is
   shorter than the log; the resumed run truncates the log to that
   prefix before appending, and everything it writes equals the
   uninterrupted run's. *)
let fallback_resume_truncates_row_log () =
  let inst = small_instance 7 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 40 } in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 13) inst ~length:800))
  in
  with_tmp_dir "fallback-full" @@ fun full_dir ->
  with_tmp_dir "fallback-ckpt" @@ fun dir ->
  let ckpt dir = { En.dir; every = 1; keep = 3 } in
  let reference =
    En.metrics_json inst (En.run_items ~config ~ckpt:(ckpt full_dir) inst placement (List.to_seq items))
  in
  ignore
    (En.run_items ~config ~ckpt:(ckpt dir) inst placement
       (List.to_seq (List.filteri (fun i _ -> i < 600) items)));
  let m = Err.get_ok (Cs.read_manifest_res dir) in
  let latest = Filename.concat dir (Cs.gen_name m.Cs.latest) in
  let body = S.read_file latest in
  S.write_file latest (String.sub body 0 (String.length body / 2));
  let loaded = Cs.load dir in
  Alcotest.(check int) "one fallback" 1 loaded.Cs.fallbacks;
  Alcotest.(check int) "the older generation" 14 loaded.Cs.ckpt.Ck.next_epoch;
  Alcotest.(check bool) "the log runs past its prefix" true
    (String.length (rows_of dir) > loaded.Cs.ckpt.Ck.rows.Ck.r_bytes);
  let resumed =
    En.run_items ~config ~ckpt:(ckpt dir) ~resume:loaded.Cs.ckpt inst placement (List.to_seq items)
  in
  Alcotest.(check string) "metrics byte-identical" reference (En.metrics_json inst resumed);
  Alcotest.(check string) "row log byte-identical" (rows_of full_dir) (rows_of dir);
  let newest d = (Cs.load d).Cs.generation in
  Alcotest.(check string) "newest generation byte-identical"
    (S.read_file (Filename.concat full_dir (Cs.gen_name (newest full_dir))))
    (S.read_file (Filename.concat dir (Cs.gen_name (newest dir))))

(* A flipped byte in the row log invalidates exactly the generations
   whose prefix holds it: resume falls back past them, or fails with a
   structured Validation error when every prefix holds it; fsck names
   the damaged row's offset, and repair cuts the log back to the
   intact generations' coverage. *)
let row_log_damage_is_never_silent () =
  let inst = small_instance 7 in
  let placement = A.solve inst in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 40 } in
  let items = St.items_of_events (St.stationary_seq (Rng.create 17) inst ~length:400) in
  with_tmp_dir "flip-ckpt" @@ fun dir ->
  ignore (En.run_items ~config ~ckpt:{ En.dir; every = 1; keep = 3 } inst placement items);
  let log = rows_of dir in
  let path = Filename.concat dir Cs.rows_name in
  let flip at =
    let b = Bytes.of_string log in
    Bytes.set b at (if Bytes.get b at = '1' then '2' else '1');
    S.write_file path (Bytes.to_string b)
  in
  (* the last row: only the newest generation covers it *)
  let last = String.rindex_from log (String.length log - 2) '\n' + 1 in
  flip (last + 2);
  let l = Cs.load dir in
  Alcotest.(check int) "falls back one generation" 1 l.Cs.fallbacks;
  Alcotest.(check int) "to the previous epoch" 9 l.Cs.ckpt.Ck.next_epoch;
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check int) "one corrupt generation" 1 r.Cs.f_corrupt;
  Alcotest.(check (option int)) "fsck names the damaged row" (Some last) r.Cs.f_rows_bad;
  (* the first row: every generation covers it *)
  flip 3;
  (match Cs.load_res dir with
  | Ok _ -> Alcotest.fail "resumed from a damaged row log"
  | Error e ->
      Alcotest.(check bool) "validation kind" true (e.Err.kind = Err.Validation);
      Alcotest.(check bool) "names the offset" true
        (let needle = "first bad byte at offset 0" in
         let n = String.length needle and m = String.length e.Err.msg in
         let rec go i = i + n <= m && (String.sub e.Err.msg i n = needle || go (i + 1)) in
         go 0));
  (match Cs.fsck_res dir with
  | Ok _ -> Alcotest.fail "fsck passed a damaged row log"
  | Error _ -> ());
  (* repair after a damaged last row: the log is cut to the intact prefix *)
  S.write_file path log;
  flip (last + 2);
  let r = Err.get_ok (Cs.fsck_res ~repair:true dir) in
  Alcotest.(check bool) "repaired" true r.Cs.f_repaired;
  Alcotest.(check int) "log cut to the intact prefix" last (String.length (rows_of dir));
  let r = Err.get_ok (Cs.fsck_res dir) in
  Alcotest.(check (pair int int)) "healthy after repair" (0, 0) (r.Cs.f_corrupt, r.Cs.f_rows_tail);
  Alcotest.(check (option int)) "no damage left" None r.Cs.f_rows_bad

(* ---------- journal: torn tail at a segment boundary ---------- *)

let journal_repairs_torn_tail_at_boundary () =
  with_tmp_dir "journal" @@ fun dir ->
  let header = { Trace.nodes = 4; objects = 2 } in
  let item k = Trace.Req { Trace.node = k mod 4; x = k mod 2; write = k mod 3 = 0 } in
  let j = J.create ~rotate_items:4 dir header in
  (* exactly two full segments: the active one ends on the boundary *)
  for k = 0 to 7 do
    J.add j (item k)
  done;
  J.close j;
  let segs = Err.get_ok (J.list_segments_res dir) in
  Alcotest.(check int) "two segments" 2 (List.length segs);
  let _, last_seg = List.nth segs 1 in
  (* crash mid-append: torn bytes land at the tail of a full segment *)
  let oc = open_out_gen [ Open_append ] 0o644 last_seg in
  output_string oc "w 3";
  close_out oc;
  (* reopen for append: the torn tail is truncated, the boundary is
     honoured — the next durable item starts a fresh segment *)
  let j = J.create ~append:true ~rotate_items:4 dir header in
  Alcotest.(check int) "no durable item lost to the repair" 8 (J.items_total j);
  for k = 8 to 10 do
    J.add j (item k)
  done;
  J.close j;
  let segs = Err.get_ok (J.list_segments_res dir) in
  Alcotest.(check (list int)) "segment starts" [ 0; 4; 8 ] (List.map fst segs);
  let chain = J.read_chain dir in
  Alcotest.(check int) "base" 0 chain.J.base;
  Alcotest.(check bool) "every item exactly once, in order" true
    (chain.J.chain_items = List.init 11 item);
  let r = Err.get_ok (J.fsck_res dir) in
  Alcotest.(check int) "fsck items" 11 r.J.f_items;
  Alcotest.(check bool) "no torn tail after repair" false r.J.f_torn_tail

(* ---------- pruning: covered segments go, the chain stays valid ---------- *)

let journal_prunes_covered_segments () =
  with_tmp_dir "journal-prune" @@ fun dir ->
  let header = { Trace.nodes = 4; objects = 2 } in
  let item k = Trace.Req { Trace.node = k mod 4; x = 0; write = false } in
  let j = J.create ~rotate_items:5 dir header in
  for k = 0 to 16 do
    J.add j (item k)
  done;
  J.sync j;
  Alcotest.(check int) "segments before" 4 (J.segments j);
  (* covered = 11: segments [0,5) and [5,10) go, [10,15) survives *)
  Alcotest.(check int) "two segments pruned" 2 (J.prune j ~covered:11);
  Alcotest.(check int) "segments after" 2 (J.segments j);
  Alcotest.(check int) "absolute total unchanged" 17 (J.items_total j);
  J.close j;
  let chain = J.read_chain dir in
  Alcotest.(check int) "base advanced to the first survivor" 10 chain.J.base;
  Alcotest.(check bool) "surviving items intact" true
    (chain.J.chain_items = List.init 7 (fun k -> item (k + 10)));
  (* the pruned prefix is only reachable through a checkpoint *)
  let inst = small_instance 3 in
  match
    En.run_items ~base:chain.J.base inst (A.solve inst)
      (List.to_seq (List.map En.of_trace_item chain.J.chain_items))
  with
  | exception Err.Error e ->
      Alcotest.(check bool) "resume-required error" true (e.Err.kind = Err.Validation)
  | _ -> Alcotest.fail "a pruned chain replayed without a checkpoint"

(* ---------- atomic writer hygiene under injected faults ---------- *)

let write_file_unlinks_tmp_on_failure () =
  with_tmp_dir "writer" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let target = Filename.concat dir "out.txt" in
  Fun.protect ~finally:Fault.disable @@ fun () ->
  List.iter
    (fun point ->
      Fault.configure ~seed:1 ~rate:1.0 ~points:[ point ] ();
      Fault.reset_counters ();
      (match S.write_file_res target "payload\n" with
      | Ok () -> Alcotest.failf "%s: write succeeded under rate-1.0 injection" point
      | Error _ -> ());
      Fault.disable ();
      (* no target, and — the regression — no orphaned tmp file either *)
      Alcotest.(check bool)
        (point ^ ": target absent") false (Sys.file_exists target);
      Alcotest.(check (array string)) (point ^ ": directory empty") [||] (Sys.readdir dir))
    [
      "serial.write.open"; "serial.write.write"; "serial.write.short"; "serial.write.enospc";
      "serial.write.fsync"; "serial.write.rename";
    ];
  (* and with injection off the same call lands atomically *)
  S.write_file target "payload\n";
  Alcotest.(check bool) "clean write lands" true (Sys.file_exists target);
  Alcotest.(check (array string)) "no droppings" [| "out.txt" |] (Sys.readdir dir)

(* ---------- disk chaos: kill at a fault, resume byte-identically ---------- *)

let fault_points =
  [
    "trace.append.write"; "trace.append.sync"; "trace.append.short"; "serial.write.write";
    "serial.write.fsync"; "serial.write.rename";
    "ckpt.rows.write"; "ckpt.rows.fsync";
  ]

let chaos_kill_resume_identical () =
  let inst = small_instance 17 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 43) inst ~length:3000))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 50 } in
  let clean_prefix = 800 in
  let run_at domains =
    with_tmp_dir "chaos-journal" @@ fun journal ->
    with_tmp_dir "chaos-ckpt" @@ fun ckpt ->
    Fun.protect ~finally:Fault.disable @@ fun () ->
    Pool.with_pool ~domains @@ fun pool ->
    let cfg =
      {
        Srv.default_config with
        Srv.engine = config;
        journal = Some journal;
        ckpt = Some { En.dir = ckpt; every = 2; keep = 3 };
        queue_cap = 65536;
      }
    in
    let core = Srv.Core.create ~pool cfg inst placement in
    let fed = ref 0 in
    let crashed = ref false in
    (try
       List.iter
         (fun it ->
           incr fed;
           (* arm the faults only past a clean prefix, so a durable
              checkpoint exists at the kill *)
           if !fed = clean_prefix then begin
             Fault.configure ~seed:7 ~rate:0.004 ~points:fault_points ();
             Fault.reset_counters ()
           end;
           ignore (Srv.Core.push core it);
           if !fed mod 200 = 0 then Srv.Core.maybe_step core)
         items;
       Srv.Core.maybe_step core
     with Err.Error _ -> crashed := true);
    Fault.disable ();
    Alcotest.(check bool) "a disk fault killed the daemon" true !crashed;
    (* the core is abandoned without shutdown — a kill -9. Only what
       reached the journal and checkpoint directory survives. *)
    let loaded = Cs.load ckpt in
    let offline =
      En.metrics_json inst
        (En.run_trace ~pool ~config ~resume:loaded.Cs.ckpt inst placement journal)
    in
    let resumed = Srv.Core.create ~pool { cfg with Srv.resume = Some ckpt } inst placement in
    Srv.Core.maybe_step resumed;
    Srv.Core.flush resumed;
    let daemon = En.metrics_json inst (Srv.Core.result resumed) in
    Srv.Core.shutdown resumed;
    Alcotest.(check string)
      (Printf.sprintf "resumed daemon == offline replay at %d domains" domains)
      offline daemon;
    (* the surviving state passes fsck: torn tails and unreferenced
       generations are legal kill artifacts, not integrity damage *)
    (match Cs.fsck_res ckpt with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "checkpoint fsck failed: %s" (Err.to_string e));
    (match J.fsck_res journal with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "journal fsck failed: %s" (Err.to_string e));
    (!fed, daemon)
  in
  let fed1, json1 = run_at 1 in
  let fed4, json4 = run_at 4 in
  Alcotest.(check int) "same deterministic kill point at 1 and 4 domains" fed1 fed4;
  Alcotest.(check string) "identical metrics at 1 and 4 domains" json1 json4

(* ---------- fallback is surfaced by the serving daemon ---------- *)

let server_counts_ckpt_fallbacks () =
  let inst = small_instance 29 in
  let placement = A.solve inst in
  let items =
    List.of_seq (St.items_of_events (St.stationary_seq (Rng.create 19) inst ~length:900))
  in
  let config = { En.default_config with En.policy = En.Resolve; epoch = 100 } in
  let reference = En.metrics_json inst (En.run_items ~config inst placement (List.to_seq items)) in
  with_tmp_dir "fallback-journal" @@ fun journal ->
  with_tmp_dir "fallback-ckpt" @@ fun ckpt ->
  let cfg =
    {
      Srv.default_config with
      Srv.engine = config;
      journal = Some journal;
      ckpt = Some { En.dir = ckpt; every = 1; keep = 3 };
    }
  in
  let first = Srv.Core.create cfg inst placement in
  List.iteri (fun i it -> if i < 537 then ignore (Srv.Core.push first it)) items;
  Srv.Core.maybe_step first;
  Srv.Core.shutdown first;
  (* torn write: the newest generation survives only as half a file *)
  let m = Err.get_ok (Cs.read_manifest_res ckpt) in
  let latest = Filename.concat ckpt (Cs.gen_name m.Cs.latest) in
  let body = In_channel.with_open_bin latest In_channel.input_all in
  Out_channel.with_open_bin latest (fun oc ->
      Out_channel.output_string oc (String.sub body 0 (String.length body / 2)));
  let resumed = Srv.Core.create { cfg with Srv.resume = Some ckpt } inst placement in
  Alcotest.(check int) "fallback counted" 1 (Srv.Core.ckpt_fallbacks resumed);
  let has_needle ~needle s =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "health surfaces the fallback" true
    (has_needle ~needle:"ckpt_fallbacks=1" (Srv.Core.health resumed));
  Alcotest.(check bool) "stats surfaces the fallback" true
    (has_needle ~needle:"\"ckpt_fallbacks\":1" (Srv.Core.stats resumed));
  (* and the degraded resume still reproduces the uninterrupted run *)
  List.iteri (fun i it -> if i >= 537 then ignore (Srv.Core.push resumed it)) items;
  Srv.Core.maybe_step resumed;
  Srv.Core.flush resumed;
  Alcotest.(check string) "metrics byte-identical despite the fallback" reference
    (En.metrics_json inst (Srv.Core.result resumed));
  Srv.Core.shutdown resumed

let suite =
  [
    Util.qtest qcheck_manifest_roundtrip;
    Alcotest.test_case "manifest corruption detected" `Quick manifest_corruption_detected;
    Alcotest.test_case "store keeps K generations, falls back" `Quick
      store_keeps_k_and_falls_back;
    Alcotest.test_case "generation size flat from 1k to 10k epochs" `Quick
      generation_size_is_flat;
    Alcotest.test_case "kill between row append and generation" `Quick
      kill_between_row_append_and_generation;
    Alcotest.test_case "fallback resume truncates the row log" `Quick
      fallback_resume_truncates_row_log;
    Alcotest.test_case "row-log damage is never silent" `Quick row_log_damage_is_never_silent;
    Alcotest.test_case "torn tail repaired at a segment boundary" `Quick
      journal_repairs_torn_tail_at_boundary;
    Alcotest.test_case "covered segments pruned, chain stays valid" `Quick
      journal_prunes_covered_segments;
    Alcotest.test_case "write_file unlinks tmp on every failure path" `Quick
      write_file_unlinks_tmp_on_failure;
    Alcotest.test_case "disk chaos: kill+resume == offline replay (1/4 domains)" `Quick
      chaos_kill_resume_identical;
    Alcotest.test_case "daemon counts and survives a ckpt fallback" `Quick
      server_counts_ckpt_fallbacks;
  ]
