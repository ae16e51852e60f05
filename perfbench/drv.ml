(* perfbench driver: the in-process half of the benchmark.

   Every subcommand reads the instance and trace files that run.py
   generated, drives the library through its public functions, and
   prints one JSON object on stdout. run.py turns those objects into the
   benchmark's metrics. Subcommands:

     gen-trace    write a seeded trace (drifting | diurnal | stationary)
     replay       untraced replays of a trace file, as [dmnet replay --trace]
     traced       split-phase replay with per-layer spans, plus kernel
                  and churn probes on the trace's own epochs
     serve-probe  in-process Server.Core feed with per-layer spans, plus
                  journal and checkpoint probes
     verify-serve offline replay of what a daemon was sent, compared with
                  its --metrics-out and its journal chain
     kernel       time the host-speed reference kernel on request (stdin)

   Arguments are [--key value] pairs. The engine runs on one domain. *)

open Dmn_prelude
module I = Dmn_core.Instance
module A = Dmn_core.Approx
module Serial = Dmn_core.Serial
module Trace = Dmn_core.Serial.Trace
module Ckpt = Dmn_core.Serial.Checkpoint
module Ckpt_store = Dmn_core.Ckpt_store
module E = Dmn_engine.Engine
module Srv = Dmn_server.Server
module Stream = Dmn_dynamic.Stream

(* ---------- arguments and output ---------- *)

let args = Hashtbl.create 16

let parse_args argv =
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | a :: _ -> failwith ("drv: bad argument " ^ a)
  in
  go argv

let arg k =
  match Hashtbl.find_opt args k with Some v -> v | None -> failwith ("drv: missing --" ^ k)

let int_arg k = int_of_string (arg k)
let float_arg k = float_of_string (arg k)
let now = Unix.gettimeofday

(* A flat JSON object, fields in insertion order. *)
let fields : (string * string) list ref = ref []
let put k v = fields := (k, v) :: !fields
let put_f k f = put k (Printf.sprintf "%.17g" f)
let put_i k i = put k (string_of_int i)
let put_b k b = put k (if b then "true" else "false")
let put_s k s = put k (Printf.sprintf "%S" s)
let put_fl k l = put k ("[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") l) ^ "]")
let put_sl k l = put k ("[" ^ String.concat "," (List.map (Printf.sprintf "%S") l) ^ "]")

let emit () =
  let body = List.rev_map (fun (k, v) -> Printf.sprintf "%S:%s" k v) !fields in
  print_string ("{" ^ String.concat "," body ^ "}\n")

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* VmHWM (peak resident set) of this process, in kB. *)
let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      scan ())

let file_digest path = Digest.to_hex (Digest.file path)

(* Whether one more repetition as long as the [last] one still ends
   within [seconds] of [t_start]. *)
let fits ~t_start ~seconds ~last = now () -. t_start +. last <= seconds

(* ---------- shared set-up: what [dmnet replay]/[dmnet serve] do ---------- *)

let load_instance path = Err.get_ok (Serial.load_instance path)

(* [--algo approx-mp], the CLI default initial placement *)
let initial_placement inst =
  Dmn_core.Placement.make
    (Array.init (I.objects inst) (fun x ->
         A.place_object ~config:{ A.default_config with A.solver = A.Mettu_plaxton } inst ~x))

(* The CLI's engine config at its defaults: epoch 1000, --retries 2,
   --dirty-eps 0.3, no solve cache. *)
let cli_config policy =
  { E.default_config with E.policy; epoch = 1000; storage_period = None; attempts = 3;
    dirty_eps = 0.3; solve_cache = 0 }

let check_header path (h : Trace.header) inst =
  if h.Trace.nodes <> I.n inst || h.Trace.objects <> I.objects inst then
    failwith (path ^ ": trace header does not match the instance")

(* Pull one epoch: [epoch] requests plus interleaved topology items, the
   chunking [Engine.run_items] uses. *)
let pull epoch seq =
  let rec go seq m acc =
    if m = epoch then (List.rev acc, m, seq)
    else
      match Seq.uncons seq with
      | None -> (List.rev acc, m, Seq.empty)
      | Some ((Stream.Topo _ as it), rest) -> go rest m (it :: acc)
      | Some ((Stream.Req _ as it), rest) -> go rest (m + 1) (it :: acc)
  in
  go seq 0 []

(* ---------- gen-trace ---------- *)

let gen_trace () =
  let inst = load_instance (arg "inst") in
  let events = int_arg "events" and phases = int_arg "phases" in
  let write_fraction = float_arg "write-fraction" in
  let rng = Rng.create (int_arg "seed") in
  let items =
    match arg "scenario" with
    | "drifting" ->
        Stream.items_of_events
          (Stream.drifting_seq rng inst ~phases ~phase_length:(max 1 (events / max 1 phases))
             ~write_fraction)
    | "diurnal" ->
        Dmn_workload.Adversary.diurnal rng inst ~days:(max 1 phases)
          ~day_length:(max 2 (events / max 1 phases))
          ~write_fraction
    | "stationary" -> Stream.items_of_events (Stream.stationary_seq rng inst ~length:events)
    | s -> failwith ("drv: unknown scenario " ^ s)
  in
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  let to_trace = function
    | Stream.Req { Stream.node; x; kind } -> Trace.Req { Trace.node; x; write = kind = Stream.Write }
    | Stream.Topo t -> Trace.Topo t
  in
  let n = Trace.write_items (arg "out") header (Seq.map to_trace items) in
  put_i "items" n;
  emit ()

(* ---------- host-speed reference ---------- *)

(* The shared host's speed drifts by tens of percent within seconds,
   and the program's speed follows it. A fixed kernel that links
   nothing of dmnet and allocates nothing (so it never runs the
   program's GC work) is timed at every epoch boundary of an untraced
   replay, outside the replay's own time, and around each set-up:
   all-pairs shortest paths on a seeded 80-node matrix. run.py scales
   each replay's and set-up's time by the kernel's mean time near it. *)
let ref_n = 80

let ref_base =
  let st = Random.State.make [| 42 |] in
  Array.init ref_n (fun _ -> Array.init ref_n (fun _ -> Random.State.float st 100.0))

let ref_work = Array.map Array.copy ref_base

let reference_kernel () =
  let t0 = now () in
  let d = ref_work in
  for i = 0 to ref_n - 1 do
    Array.blit ref_base.(i) 0 d.(i) 0 ref_n
  done;
  for k = 0 to ref_n - 1 do
    let dk = d.(k) in
    for i = 0 to ref_n - 1 do
      let di = d.(i) in
      let dik = di.(k) in
      for j = 0 to ref_n - 1 do
        let c = dik +. dk.(j) in
        if c < di.(j) then di.(j) <- c
      done
    done
  done;
  now () -. t0

let kernel_mean k =
  let k = max 1 k in
  List.fold_left ( +. ) 0.0 (List.init k (fun _ -> reference_kernel ())) /. float_of_int k

(* [kernel]: a long-lived reference for the serve workload. Each line
   on stdin is a count k; it runs the kernel k times and answers with
   the mean time in seconds. It exits at end of input. *)
let kernel () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
        Printf.printf "%.17g\n%!" (kernel_mean (int_of_string (String.trim line)));
        loop ()
  in
  loop ()

(* ---------- replay (untraced) ---------- *)

(* One replay of [path] along [Engine.run_trace]'s file path
   (with_items, header check, run_items), timed from opening the trace
   to the metrics JSON on disk. The item sequence is wrapped to read
   the clock at epoch boundaries only: an epoch's commit latency is the
   time from the engine pulling its last request to pulling the next
   item. With [~reference], the reference kernel runs right after each
   commit latency is read. Its runs are left out of the replay's wall,
   and their mean time is the last component (0 without). *)
let replay_once ?(reference = false) ~config inst placement path out =
  let epoch = config.E.epoch in
  let lat = ref [] in
  let reqs = ref 0 in
  let t_last = ref 0.0 in
  let kernel_s = ref 0.0 and kernel_runs = ref 0 in
  let rec wrap s () =
    if !reqs > 0 && !reqs mod epoch = 0 && !t_last > 0.0 then begin
      lat := (now () -. !t_last) :: !lat;
      t_last := 0.0;
      if reference then begin
        kernel_s := !kernel_s +. reference_kernel ();
        incr kernel_runs
      end
    end;
    match s () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons ((Stream.Req _ as it), rest) ->
        incr reqs;
        if !reqs mod epoch = 0 then t_last := now ();
        Seq.Cons (it, wrap rest)
    | Seq.Cons (it, rest) -> Seq.Cons (it, wrap rest)
  in
  let t0 = now () in
  let r =
    Trace.with_items path (fun h items ->
        check_header path h inst;
        E.run_items ~config inst placement (wrap (Seq.map E.of_trace_item items)))
  in
  E.write_metrics out inst r;
  let wall = now () -. t0 -. !kernel_s in
  let kernel_avg = if !kernel_runs = 0 then 0.0 else !kernel_s /. float_of_int !kernel_runs in
  (r, wall, Array.of_list (List.rev_map (fun s -> s *. 1000.0) !lat), kernel_avg)

let replay () =
  let inst_path = arg "inst" and path = arg "trace" and out = arg "metrics-out" in
  let seconds = float_arg "seconds" and setups = int_arg "setups" in
  let config = cli_config E.Resolve in
  (* each set-up with the kernel's mean over 5 runs before and 5 after it *)
  let setup_s =
    List.init setups (fun _ ->
        let k0 = kernel_mean 5 in
        let t0 = now () in
        let inst = load_instance inst_path in
        ignore (initial_placement inst);
        let s = now () -. t0 in
        (s, (k0 +. kernel_mean 5) /. 2.0))
  in
  let inst = load_instance inst_path in
  let placement = initial_placement inst in
  let t_start = now () in
  (* Peak RSS is read after the first replay, as one [dmnet replay] would
     leave it. Later replays may grow the heap a step, and how many of
     them fit in [seconds] depends on the host's speed. *)
  let hwm = ref 0 in
  let rec reps acc =
    let i = List.length acc in
    let file = if i = 0 then out else Printf.sprintf "%s.%d" out i in
    let r, wall, lat, kernel_s = replay_once ~reference:true ~config inst placement path file in
    if i = 0 then hwm := vmhwm_kb ();
    let d = file_digest file in
    if i > 0 then Sys.remove file;
    let acc = (r, wall, lat, d, kernel_s) :: acc in
    if fits ~t_start ~seconds ~last:wall || List.length acc < 2 then reps acc else List.rev acc
  in
  let runs = reps [] in
  let r, _, _, _, _ = List.hd runs in
  let t = r.E.totals in
  put_fl "setup_s" (List.map fst setup_s);
  put_fl "setup_kernel_s" (List.map snd setup_s);
  put_fl "wall_s" (List.map (fun (_, w, _, _, _) -> w) runs);
  put_fl "kernel_s" (List.map (fun (_, _, _, _, k) -> k) runs);
  put_fl "commit_ms" (List.concat_map (fun (_, _, l, _, _) -> Array.to_list l) runs);
  put_sl "digests" (List.map (fun (_, _, _, d, _) -> d) runs);
  put_i "requests" t.E.events;
  put_f "total_cost" (E.total_cost t);
  put_i "solve_fallbacks" t.E.solve_fallbacks;
  put_i "vmhwm_kb" !hwm;
  emit ()

(* ---------- traced split-phase replay + kernel/churn probes ---------- *)

type spans = {
  mutable parse : float;
  mutable sbegin : float;
  mutable solve : float;
  mutable commit : float;
  mutable finish : float;
  mutable calls : int;
}

let traced_once ~config inst placement path out =
  let sp = { parse = 0.0; sbegin = 0.0; solve = 0.0; commit = 0.0; finish = 0.0; calls = 0 } in
  let items = ref 0 in
  let t0 = now () in
  let r =
    Trace.with_items path (fun h raw ->
        check_header path h inst;
        let eng = E.create ~config inst placement in
        let rec go seq =
          let ta = now () in
          let chunk, m, rest = pull config.E.epoch seq in
          let tb = now () in
          sp.parse <- sp.parse +. (tb -. ta);
          if chunk <> [] then begin
            items := !items + List.length chunk;
            let p = E.step_begin eng chunk in
            let tc = now () in
            sp.calls <- sp.calls + E.pending_solves p;
            E.solve_pending eng p;
            let td = now () in
            E.step_commit eng p;
            let te = now () in
            sp.sbegin <- sp.sbegin +. (tc -. tb);
            sp.solve <- sp.solve +. (td -. tc);
            sp.commit <- sp.commit +. (te -. td);
            if m = config.E.epoch then go rest
          end
        in
        go (Seq.map E.of_trace_item raw);
        let tf = now () in
        let r = E.finish eng in
        sp.finish <- now () -. tf;
        r)
  in
  let tw = now () in
  E.write_metrics out inst r;
  sp.finish <- sp.finish +. (now () -. tw);
  (r, now () -. t0, sp, !items)

(* Kernel and churn probes on the trace's own epochs: every [stride]-th
   epoch's observed instance is rebuilt with [Instance.of_metric] (fees
   scaled to the epoch's share of the storage period, as the engine
   does) and each object with traffic runs phase 1, [Radii.compute] and
   phases 2-3 separately. Every topology event is applied to a
   [Churn] handle over the instance graph. *)
let probe_kernels inst path ~stride ~budget_s =
  let n = I.n inst and k = I.objects inst in
  let period = ref 0 in
  for x = 0 to k - 1 do
    period := !period + I.total_requests inst ~x
  done;
  let churn =
    match I.graph inst with Some g -> Some (Dmn_paths.Churn.create g (I.metric inst)) | None -> None
  in
  let cfg = { A.default_config with A.solver = A.Mettu_plaxton } in
  let of_metric = ref [] and ph1 = ref [] and radii = ref [] and ph23 = ref [] in
  let churn_us = ref [] in
  let t_start = now () in
  Trace.with_items path (fun _ items ->
      let fr = Array.make_matrix k n 0 and fw = Array.make_matrix k n 0 in
      let m = ref 0 and ep = ref 0 in
      let close_epoch () =
        if !ep mod stride = 0 && now () -. t_start < budget_s then begin
          let metric =
            match churn with Some c -> Dmn_paths.Churn.metric c | None -> I.metric inst
          in
          let frac = float_of_int !m /. float_of_int (max 1 !period) in
          let cs = Array.init n (fun v -> I.cs inst v *. frac) in
          let t0 = now () in
          let einst = I.of_metric metric ~cs ~fr ~fw in
          of_metric := (now () -. t0) :: !of_metric;
          for x = 0 to k - 1 do
            if I.total_requests einst ~x > 0 then begin
              let t0 = now () in
              let copies = A.phase1 ~config:cfg einst ~x in
              let t1 = now () in
              let rd = Dmn_core.Radii.compute einst ~x in
              let t2 = now () in
              ignore (A.phase3 ~config:cfg einst rd (A.phase2 ~config:cfg einst ~x rd copies));
              let t3 = now () in
              ph1 := (t1 -. t0) :: !ph1;
              radii := (t2 -. t1) :: !radii;
              ph23 := (t3 -. t2) :: !ph23
            end
          done
        end;
        Array.iter (fun a -> Array.fill a 0 n 0) fr;
        Array.iter (fun a -> Array.fill a 0 n 0) fw;
        m := 0;
        incr ep
      in
      Seq.iter
        (function
          | Trace.Req { Trace.node; x; write } ->
              if write then fw.(x).(node) <- fw.(x).(node) + 1
              else fr.(x).(node) <- fr.(x).(node) + 1;
              incr m;
              if !m = 1000 then close_epoch ()
          | Trace.Topo ev -> (
              match churn with
              | Some c ->
                  let t0 = now () in
                  Dmn_paths.Churn.apply c ev;
                  churn_us := (now () -. t0) :: !churn_us
              | None -> ()))
        items;
      if !m > 0 then close_epoch ());
  let ms l = 1000.0 *. mean l in
  put_f "approx.phase1_ms" (ms !ph1);
  put_f "radii.compute_ms" (ms !radii);
  put_f "approx.phase23_ms" (ms !ph23);
  put_f "instance.of_metric_ms" (ms !of_metric);
  put_f "churn.apply_us" (1e6 *. mean !churn_us);
  put_i "churn.events" (List.length !churn_us)

type traced_rep = {
  result : E.result;
  traced_wall : float;
  sp : spans;
  items : int;
  plain_wall : float;
  plain_lat : float array;
  digests : string list;
}

let traced () =
  let inst_path = arg "inst" and path = arg "trace" and out = arg "metrics-out" in
  let seconds = float_arg "seconds" in
  let config = cli_config E.Resolve in
  let inst = load_instance inst_path in
  let placement = initial_placement inst in
  (* alternate untraced and traced replays so both see the same machine *)
  let t_start = now () in
  let rec reps acc =
    let i = List.length acc in
    let plain = Printf.sprintf "%s.plain.%d" out i in
    let _, plain_wall, plain_lat, _ = replay_once ~config inst placement path plain in
    let file = if i = 0 then out else Printf.sprintf "%s.%d" out i in
    let result, traced_wall, sp, items = traced_once ~config inst placement path file in
    let digests = [ file_digest file; file_digest plain ] in
    Sys.remove plain;
    if i > 0 then Sys.remove file;
    let acc = { result; traced_wall; sp; items; plain_wall; plain_lat; digests } :: acc in
    if fits ~t_start ~seconds:(seconds *. 0.6) ~last:(traced_wall +. plain_wall)
       || List.length acc < 2
    then reps acc
    else List.rev acc
  in
  let runs = reps [] in
  let first = List.hd runs in
  let med f = median (List.map f runs) in
  let solve = med (fun r -> r.sp.solve) in
  let calls = first.sp.calls in
  let t = first.result.E.totals in
  let active = t.E.resolves + t.E.solve_fallbacks + t.E.solve_skipped in
  put_f "trace.parse_s" (med (fun r -> r.sp.parse));
  put_i "trace.items" first.items;
  put_f "engine.step_begin_s" (med (fun r -> r.sp.sbegin));
  put_f "engine.solve_pending_s" solve;
  put_f "engine.step_commit_s" (med (fun r -> r.sp.commit));
  put_f "engine.finish_write_s" (med (fun r -> r.sp.finish));
  put_i "engine.epochs" (List.length first.result.E.epochs);
  put_i "engine.solver_calls" calls;
  put_f "engine.solve_ms_per_call" (if calls = 0 then 0.0 else 1000.0 *. solve /. float_of_int calls);
  put_f "engine.solve_skip_frac"
    (if active = 0 then 0.0 else float_of_int t.E.solve_skipped /. float_of_int active);
  put_i "engine.solve_fallbacks" t.E.solve_fallbacks;
  put_f "traced_wall_s" (med (fun r -> r.traced_wall));
  put_f "plain_wall_s" (med (fun r -> r.plain_wall));
  put_i "requests" t.E.events;
  put_sl "digests" (List.concat_map (fun r -> r.digests) runs);
  put_fl "commit_ms" (List.concat_map (fun r -> Array.to_list r.plain_lat) runs);
  probe_kernels inst path ~stride:(int_arg "stride") ~budget_s:(seconds *. 0.3);
  emit ()

(* ---------- serve-probe: Server.Core in process ---------- *)

let read_lines path count =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      ignore (input_line ic);
      ignore (input_line ic);
      Array.init count (fun _ -> input_line ic))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let serve_config ~journal ~ckpt =
  { Srv.default_config with
    Srv.engine = cli_config E.Static;
    ckpt = Some { E.dir = ckpt; every = 1; keep = 3 };
    journal = Some journal;
    queue_cap = 16384 }

let newest_gen_bytes dir =
  match Ckpt_store.read_manifest_res dir with
  | Ok m -> (Unix.stat (Filename.concat dir (Ckpt_store.gen_name m.Ckpt_store.latest))).Unix.st_size
  | Error _ -> 0

(* Feed [lines] through a fresh core epoch by epoch. With [~spans] the
   push_line batch and the maybe_step call of every epoch are timed,
   and queue depth, journal bytes and checkpoint sizes are sampled
   outside the spans. *)
type feed = {
  wall : float;
  push : float;
  steps : float list;
  qmax : int;
  jpeak : int;
  ckpt_first : int;
  ckpt_last : int;
  shed : int;
}

let feed_core ~work ~spans inst placement lines =
  let jdir = Filename.concat work "journal" and cdir = Filename.concat work "ckpt" in
  rm_rf jdir;
  rm_rf cdir;
  let core = Srv.Core.create (serve_config ~journal:jdir ~ckpt:cdir) inst placement in
  let push = ref 0.0 and steps = ref [] and qmax = ref 0 and jpeak = ref 0 in
  let ckpt_first = ref 0 in
  let n = Array.length lines in
  let t0 = now () in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + 1000) in
    let ta = now () in
    for j = !i to hi - 1 do
      ignore (Srv.Core.push_line core lines.(j))
    done;
    let tb = now () in
    let q = Srv.Core.queue_depth core in
    Srv.Core.maybe_step core;
    let tc = now () in
    if spans then begin
      push := !push +. (tb -. ta);
      steps := (tc -. tb) :: !steps;
      qmax := max !qmax q;
      if !ckpt_first = 0 then ckpt_first := newest_gen_bytes cdir;
      if hi / 1000 mod 10 = 0 then jpeak := max !jpeak (Srv.Core.journal_bytes core)
    end;
    i := hi
  done;
  let wall = now () -. t0 in
  let ckpt_last = newest_gen_bytes cdir in
  let shed = Srv.Core.shed core in
  Srv.Core.shutdown core;
  { wall; push = !push; steps = List.rev !steps; qmax = !qmax; jpeak = !jpeak;
    ckpt_first = !ckpt_first; ckpt_last; shed }

let time_reps reps f =
  let l = List.init reps (fun _ -> let t0 = now () in f (); now () -. t0) in
  1000.0 *. median l

let serve_probe () =
  let work = arg "work" and seconds = float_arg "seconds" in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let inst = load_instance (arg "inst") in
  let placement = initial_placement inst in
  let lines = read_lines (arg "trace") (int_arg "count") in
  let t_start = now () in
  let rec reps acc =
    let plain = feed_core ~work ~spans:false inst placement lines in
    let traced = feed_core ~work ~spans:true inst placement lines in
    let acc = (plain, traced) :: acc in
    if fits ~t_start ~seconds:(seconds *. 0.6) ~last:(plain.wall +. traced.wall) then reps acc
    else List.rev acc
  in
  let runs = reps [] in
  let med f = median (List.map f runs) in
  let wall = med (fun (_, t) -> t.wall) and plain = med (fun (p, _) -> p.wall) in
  let push = med (fun (_, t) -> t.push) in
  let step = med (fun (_, t) -> List.fold_left ( +. ) 0.0 t.steps) in
  let _, t0 = List.hd runs in
  let nl = float_of_int (Array.length lines) in
  put_f "server.push_line_us" (1e6 *. push /. nl);
  put_f "server.maybe_step_ms" (1000.0 *. step /. float_of_int (List.length t0.steps));
  put_i "server.shed" t0.shed;
  put_i "server.queue_depth_max" t0.qmax;
  put_i "journal.bytes_peak" t0.jpeak;
  put_i "ckpt.bytes_first" t0.ckpt_first;
  put_i "ckpt.bytes_last" t0.ckpt_last;
  put_f "push_s" push;
  put_f "step_s" step;
  put_f "traced_wall_s" wall;
  put_f "plain_wall_s" plain;
  (* checkpoint layer, timed on the run's own newest generation *)
  let ckpt = (Ckpt_store.load (Filename.concat work "ckpt")).Ckpt_store.ckpt in
  let sdir = Filename.concat work "ckpt-probe" in
  put_f "ckpt.serialize_ms" (time_reps 20 (fun () -> ignore (Ckpt.to_string ckpt)));
  put_f "ckpt.save_ms" (time_reps 20 (fun () -> ignore (Ckpt_store.save sdir ~keep:3 ckpt)));
  (* journal layer: the same items appended to a fresh journal, synced
     once per epoch as the daemon does before each checkpoint *)
  let header = { Trace.nodes = I.n inst; objects = I.objects inst } in
  let items =
    Array.map
      (fun l -> match Trace.item_of_line_res ~header l with Ok (Some it) -> it | _ -> failwith l)
      lines
  in
  let jdir = Filename.concat work "journal-probe" in
  rm_rf jdir;
  let j = Trace.Journal.create jdir header in
  let add = ref 0.0 and syncs = ref [] in
  Array.iteri
    (fun i it ->
      let t0 = now () in
      Trace.Journal.add j it;
      add := !add +. (now () -. t0);
      if (i + 1) mod 1000 = 0 then begin
        let t0 = now () in
        Trace.Journal.sync j;
        syncs := (now () -. t0) :: !syncs
      end)
    items;
  Trace.Journal.close j;
  put_f "journal.add_us" (1e6 *. !add /. nl);
  put_f "journal.sync_ms" (1000.0 *. mean !syncs);
  emit ()

(* ---------- verify-serve ---------- *)

let verify_serve () =
  let inst = load_instance (arg "inst") in
  let placement = initial_placement inst in
  let path = arg "trace" and count = int_arg "count" in
  let r =
    Trace.with_items path (fun _ items ->
        E.run_items ~config:(cli_config E.Static) inst placement
          (Seq.map E.of_trace_item (Seq.take count items)))
  in
  let offline = E.metrics_json inst r ^ "\n" in
  let daemon = Serial.read_file (arg "metrics") in
  let chain = Trace.Journal.read_chain (arg "journal") in
  let base = chain.Trace.Journal.base in
  let journal_match =
    Trace.with_items path (fun _ items ->
        let sent = Seq.drop base (Seq.take count items) in
        Seq.equal ( = ) sent (List.to_seq chain.Trace.Journal.chain_items))
  in
  put_b "metrics_match" (offline = daemon);
  put_b "journal_match" journal_match;
  put_s "offline_digest" (Digest.to_hex (Digest.string offline));
  put_s "daemon_digest" (Digest.to_hex (Digest.string daemon));
  put_i "journal_base" base;
  put_i "journal_items" (List.length chain.Trace.Journal.chain_items);
  put_i "requests" r.E.totals.E.events;
  put_f "total_cost" (E.total_cost r.E.totals);
  put_i "solve_fallbacks" r.E.totals.E.solve_fallbacks;
  emit ()

let () =
  Pool.set_default_domains 1;
  match Array.to_list Sys.argv with
  | _ :: cmd :: rest -> (
      parse_args rest;
      match cmd with
      | "gen-trace" -> gen_trace ()
      | "replay" -> replay ()
      | "traced" -> traced ()
      | "serve-probe" -> serve_probe ()
      | "verify-serve" -> verify_serve ()
      | "kernel" -> kernel ()
      | c -> failwith ("drv: unknown command " ^ c))
  | _ -> failwith "usage: drv <command> [--key value]..."
