(* The end-to-end benchmark.

     e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
             [--trace-dir DIR] [--out FILE] [--smoke]
     e2e.exe compare OLD[,OLD...] NEW[,NEW...]

   Without --workload every workload runs, one after another, each in a
   fresh child process of this executable so that heap, hot-team pool,
   runtime counters and peak RSS belong to one workload.  A run sets up
   its inputs, warms up for a second, times operations for --seconds and
   checks each one's output, then times set-up again.  Tables go to
   stderr; stdout carries the report (schema zigomp-e2e/1) and, for a
   single workload, ends with the one-line result: every end-to-end
   metric, or with --trace 1 every per-layer metric, by median. *)

open Perfbench

let threads = 2
let warm_up_seconds = 1.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f"
              (fun kb -> kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let metric = Workloads.metric
let scalar = Workloads.scalar

(* Each metric of a breakdown, as samples over repeated breakdowns. *)
let transpose (runs : (string * string * float) list list) =
  match runs with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i (name, unit_, _) ->
          metric name unit_
            (Array.of_list
               (List.map
                  (fun r ->
                    let _, _, v = List.nth r i in
                    v)
                  runs)))
        first

let runtime_counters ~ops ~profiled_ops =
  let per n count = if n = 0 then 0. else float_of_int count /. float_of_int n in
  let snap = Omprt.Profile.snapshot () in
  let construct c =
    List.find_opt (fun (s : Omprt.Profile.snapshot) -> s.construct = c) snap
  in
  let count c =
    per profiled_ops (Option.fold ~none:0 ~some:(fun s -> s.Omprt.Profile.count) (construct c))
  in
  let total c =
    Option.fold ~none:0. ~some:(fun s -> s.Omprt.Profile.total) (construct c)
    /. float_of_int (max 1 profiled_ops)
  in
  let pool = Omprt.Profile.pool_stats () in
  let barrier = Omprt.Profile.barrier_stats () in
  let bc = Omprt.Profile.bc_stats () in
  let task = Omprt.Profile.task_stats () in
  let c name v = scalar name "count/op" (per ops v) in
  (if profiled_ops = 0 then []
   else
     let open Omprt.Profile in
     [ scalar "omprt.regions" "count/op" (count Region);
       scalar "omprt.barrier_waits" "count/op" (count Barrier_wait);
       scalar "omprt.static_loops" "count/op" (count Static_loop);
       scalar "omprt.single_claims" "count/op" (count Single_claim);
       scalar "omprt.region_s" "s/op" (total Region);
       scalar "omprt.barrier_wait_s" "s/op" (total Barrier_wait) ])
  @ [ c "omprt.pool.forks_served" pool.forks_served;
      c "omprt.pool.spin_parks" pool.spin_parks;
      c "omprt.pool.block_parks" pool.block_parks;
      c "omprt.barrier.spin_waits" barrier.spin_waits;
      c "omprt.barrier.block_waits" barrier.block_waits;
      c "omprt.task.spawned" task.tasks_spawned;
      c "omprt.task.undeferred" task.tasks_undeferred;
      c "omprt.task.local_pops" task.task_local_pops;
      c "omprt.task.steals" task.task_steals;
      c "interp.bc.entered" bc.bc_entered;
      c "interp.bc.bailouts" bc.bc_bailouts;
      c "interp.bc.guard_elided" bc.bc_guard_elided ]

(* Share of the traced operations' time spent in each layer's own code. *)
let self_shares spans =
  let roots = List.filter (fun (s : Trace.span) -> s.parent < 0) spans in
  let total = List.fold_left (fun acc s -> acc +. Trace.duration s) 0. roots in
  let self = Trace.self_by_layer spans in
  List.map
    (fun layer ->
      let v = Option.value ~default:0. (Hashtbl.find_opt self layer) in
      scalar ("self." ^ layer ^ "_pct") "%"
        (if total > 0. then 100. *. v /. total else 0.))
    [ "preproc"; "interp"; "analyze"; "check"; "npb"; "bench" ]

let run_workload ~(w : Workloads.t) ~seed ~seconds ~smoke ~traced ~trace_dir =
  Zigomp.set_num_threads threads;
  Trace.enabled := traced;
  let errors = ref [] in
  let note msg = if not (List.mem msg !errors) then errors := msg :: !errors in
  let attempted = ref 0 and failed = ref 0 in
  let after check =
    incr attempted;
    let ok = try check () with e -> note (Printexc.to_string e); false in
    if not ok then incr failed
  in
  let safe_op (s : Workloads.session) () =
    match s.op () with
    | check -> check
    | exception e ->
        let msg = Printexc.to_string e in
        fun () -> note msg; false
  in
  let report metrics =
    { Report.workload = w.name; traced;
      correct = !failed = 0 && !errors = [] && !attempted > 0;
      ops = max 1 !attempted; failed_ops = (if !attempted = 0 then 1 else !failed);
      errors = List.rev !errors; metrics }
  in
  (* Each set-up with its time in seconds at the host's nominal speed:
     over the mean of the references timed just before and just after it
     (the median of five each; set-up runs on one thread), times the
     reference's nominal time.  Each starts from a freshly collected
     heap, so that no set-up pays for the garbage of another. *)
  let setups ~seconds ~min_runs =
    let reference () =
      Timing.median (List.init 5 (fun _ -> Timing.reference ~domains:1))
    in
    Gc.full_major ();
    let refs = ref [ reference () ] in
    let runs =
      Timing.repeat_for ~seconds ~min_runs
        ~after:(fun _ ->
          refs := reference () :: !refs;
          Gc.full_major ())
        (fun () ->
          Trace.span ~layer:"bench" "setup" (fun () -> w.setup ~smoke ~seed))
    in
    let refs = Array.of_list (List.rev !refs) in
    List.mapi
      (fun i (s, dt) ->
        (s, 2. *. dt /. (refs.(i) +. refs.(i + 1)) *. Timing.reference_nominal_s))
      runs
  in
  match setups ~seconds:0. ~min_runs:1 with
  | exception e ->
      note ("set-up failed: " ^ Printexc.to_string e);
      report []
  | first_setup ->
      let session = fst (List.hd first_setup) in
      let breakdown (prefix, sources) =
        let runs =
          Timing.repeat_for
            ~seconds:(if smoke then 0. else 0.3)
            ~min_runs:(if smoke then 1 else 3)
            (fun () ->
              Trace.span ~layer:"bench" "frontend breakdown" (fun () ->
                  let st = Pipeline.fresh () in
                  List.iter
                    (fun (name, src) ->
                      let pre = Pipeline.breakdown st ~name src in
                      if pre <> Zigomp.preprocess ~name src then
                        note ("stage-by-stage preprocessing differs for " ^ name))
                    sources;
                  Pipeline.metrics st))
        in
        List.map
          (fun (m : Workloads.metric) -> { m with name = prefix ^ m.name })
          (transpose (List.map fst runs))
      in
      let breakdown =
        if traced then List.concat_map breakdown session.sources else []
      in
      ignore
        (Timing.repeat_for
           ~seconds:(if smoke then 0. else warm_up_seconds)
           ~min_runs:(if smoke then 0 else 1)
           ~after (safe_op session));
      session.reset ();
      Omprt.Profile.reset ();
      let mark = Trace.mark () in
      let count = ref 0 in
      let timed_op () =
        let traced_op = traced && !count mod 2 = 0 in
        incr count;
        if traced_op then Omprt.Profile.enable ();
        let check =
          Trace.with_tracing traced_op (fun () ->
              Trace.span ~layer:"bench" ("op " ^ w.name) (safe_op session))
        in
        if traced_op then Omprt.Profile.disable ();
        (traced_op, check)
      in
      (* A team's operations are divided by the reference on both
         domains, run before the first operation and after each one, at
         least three times and for about a twentieth of the operation's
         time (its median is kept), and averaged over the operation's two
         sides.  A one-thread operation is divided by the reference
         sampled inside it (Timing.Sampler), every 10 ms, less its time. *)
      let reference ~after_s =
        Timing.median
          (List.map fst
             (Timing.repeat_for ~seconds:(0.05 *. after_s) ~min_runs:3
                (fun () -> Timing.reference ~domains:threads)))
      in
      let refs = ref (if w.team then [ reference ~after_s:0. ] else []) in
      let spans = ref [] in
      let last_op_s = ref 0. in
      (* The GC's work during the operations alone: the reference
         allocates, and what it allocates between operations or inside
         them (Sampler.words) is not the operations'.  A minor collection
         on each side of an operation, untimed, empties the minor heap, so
         that each starts with none of the reference's garbage and every
         domain's counts are up to date when read. *)
      let minor_words = ref 0. and promoted_words = ref 0. in
      let minor_collections = ref 0 and major_collections = ref 0 in
      if not w.team then Timing.Sampler.start ~period:0.01;
      let samples =
        Timing.repeat_for ~seconds
          ~min_runs:(if smoke && traced then 2 else 1)
          ~stop_ok:session.stop_ok
          ~after:(fun ((_, check), _) ->
            after check;
            if w.team then refs := reference ~after_s:!last_op_s :: !refs)
          (fun () ->
            Gc.minor ();
            let g0 = Gc.quick_stat () and words = !Timing.Sampler.words in
            let spent = !Timing.Sampler.spent in
            let t0 = Timing.now_ns () in
            let r = timed_op () in
            let t1 = Timing.now_ns () in
            last_op_s :=
              Timing.seconds_between t0 t1 -. (!Timing.Sampler.spent -. spent);
            Gc.minor ();
            let g1 = Gc.quick_stat () in
            spans := (t0, t1) :: !spans;
            minor_words :=
              !minor_words +. g1.minor_words -. g0.minor_words
              -. (!Timing.Sampler.words -. words);
            promoted_words := !promoted_words +. g1.promoted_words -. g0.promoted_words;
            minor_collections :=
              !minor_collections + g1.minor_collections - g0.minor_collections;
            major_collections :=
              !major_collections + g1.major_collections - g0.major_collections;
            (r, !last_op_s))
      in
      Timing.Sampler.stop ();
      let samples = List.map fst samples in
      let refs =
        if w.team then
          let r = Array.of_list (List.rev !refs) in
          Array.init (Array.length r - 1) (fun i -> (r.(i) +. r.(i + 1)) /. 2.)
        else
          Array.of_list
            (List.rev_map (fun (t0, t1) -> Timing.Sampler.around ~k:5 t0 t1) !spans)
      in
      let rss = peak_rss_mb () in
      let timed_spans = Trace.since mark in
      let times = Array.of_list (List.map snd samples) in
      let ops = Array.length times in
      let profiled_ops = List.length (List.filter (fun ((t, _), _) -> t) samples) in
      let counters = runtime_counters ~ops ~profiled_ops in
      (* set-up is timed again once the process is warm: the first one
         also pays for heap growth and page faults, which drift *)
      let setup_s =
        Array.of_list
          (List.map snd
             (if smoke then first_setup
              else
                try setups ~seconds:0.5 ~min_runs:5
                with e ->
                  note ("set-up failed: " ^ Printexc.to_string e);
                  first_setup))
      in
      let per_op v = v /. float_of_int ops in
      let gc =
        [ scalar "gc.minor_words" "words/op" (per_op !minor_words);
          scalar "gc.promoted_words" "words/op" (per_op !promoted_words);
          scalar "gc.minor_collections" "count/op"
            (per_op (float_of_int !minor_collections));
          scalar "gc.major_collections" "count/op"
            (per_op (float_of_int !major_collections)) ]
      in
      let extras = try session.extras times with e -> note (Printexc.to_string e); [] in
      let traced_metrics =
        if not traced then []
        else begin
          let part want =
            List.filter_map (fun ((t, _), s) -> if t = want then Some s else None) samples
          in
          let overhead =
            match (part true, part false) with
            | (_ :: _ as t), (_ :: _ as u) ->
                100. *. ((Timing.median t /. Timing.median u) -. 1.)
            | _ -> 0.
          in
          let layers =
            try session.layers times with e -> note (Printexc.to_string e); []
          in
          let probes =
            Trace.span ~layer:"bench" "probes" (fun () ->
                Probes.run ~seconds:(if smoke then 0. else 0.1) ~threads)
          in
          self_shares timed_spans
          @ [ scalar "trace_overhead_pct" "%" overhead ]
          @ breakdown
          @ List.map (fun (n, u, v) -> scalar n u v) probes
          @ layers
        end
      in
      if traced then begin
        (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
        Trace.write (Filename.concat trace_dir (w.name ^ ".trace.json"))
      end;
      report
        ([ metric "op_ms" "ms" (Array.map Workloads.ms times);
           metric "op_ref" "ref"
             (Array.mapi
                (fun i t ->
                  if w.team then t /. refs.(i)
                  else Timing.Sampler.per_reference t refs.(i))
                times);
           metric "ref_ms" "ms" (Array.map Workloads.ms refs);
           metric "setup_s" "s" setup_s; scalar "peak_rss_mb" "MB" rss ]
        @ extras @ gc @ counters @ traced_metrics)

(* ------------------------------- CLI ------------------------------ *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  trace_dir : string;
  out : string option;
  smoke : bool;
}

let usage () =
  prerr_string
    "usage: e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--trace-dir DIR] [--out FILE] [--smoke]\n\
    \       e2e.exe compare OLD[,OLD...] NEW[,NEW...]\n\
     workloads:\n";
  List.iter
    (fun (w : Workloads.t) -> Printf.eprintf "  %-15s %s\n" w.name w.why)
    Workloads.all;
  exit 2

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if Workloads.find w = None then begin
          Printf.eprintf "unknown workload %S\n" w;
          usage ()
        end;
        go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with traced = v = "1" } rest
    | "--trace-dir" :: d :: rest -> go { o with traced = true; trace_dir = d } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true; seconds = 0. } rest
    | a :: _ ->
        Printf.eprintf "unexpected argument %S\n" a;
        usage ()
  in
  try
    go
      { workload = None; seed = 1; seconds = 25.; traced = false;
        trace_dir = "_perfbench"; out = None; smoke = false }
      args
  with Failure _ -> usage ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Run one workload in a child process; its first stdout line is its
   report. *)
let run_child o (w : Workloads.t) =
  let args =
    [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds ]
    @ (if o.traced then [ "--trace-dir"; o.trace_dir ] else [])
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  ignore (Unix.close_process_in ic);
  match lines with
  | first :: _ when String.length first > 0 && first.[0] = '{' -> (
      match (Report.of_json (Json.of_string first)).workloads with
      | [ r ] -> r
      | _ -> failwith "child report holds no workload")
  | _ ->
      { Report.workload = w.name; traced = o.traced; correct = false; ops = 1;
        failed_ops = 1; errors = [ "child process printed no report" ];
        metrics = [] }

let main o =
  (* the metric definitions are read first: a run without them is wasted *)
  let specs = Report.load_specs () in
  let nproc = Domain.recommended_domain_count () in
  if nproc < threads then
    Printf.eprintf
      "perfbench: %d core(s) for a team of %d: timings are oversubscribed\n%!"
      nproc threads;
  let workloads =
    match o.workload with
    | Some name ->
        let w = Option.get (Workloads.find name) in
        let r =
          run_workload ~w ~seed:o.seed ~seconds:o.seconds ~smoke:o.smoke
            ~traced:o.traced ~trace_dir:o.trace_dir
        in
        Report.print_table stderr r;
        [ r ]
    | None -> List.map (run_child o) Workloads.all
  in
  let t = { Report.seed = o.seed; nproc; threads; smoke = o.smoke; workloads } in
  let json = Json.to_string (Report.to_json t) in
  Option.iter (fun f -> write_file f (json ^ "\n")) o.out;
  print_endline json;
  (match workloads with
   | [ r ] when o.workload <> None -> (
       (* a run whose set-up failed has no metrics to print *)
       match Report.result_line specs r with
       | line -> print_endline line
       | exception Failure msg -> prerr_endline ("perfbench: " ^ msg))
   | _ -> ());
  exit (if List.for_all (fun (r : Report.workload_report) -> r.correct) workloads then 0 else 1)

let compare_main olds news =
  let load spec =
    List.map (fun f -> Report.of_json (Json.read_file f)) (String.split_on_char ',' spec)
  in
  let ok =
    Report.compare_reports stdout (Report.load_specs ()) (load olds) (load news)
  in
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; olds; news ] -> compare_main olds news
  | "compare" :: _ -> usage ()
  | args -> main (parse args)
