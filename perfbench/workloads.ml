(* The workloads.  Each one sets up its inputs from the seed, then
   exposes one operation that the runner times over and over; every
   operation's output is checked against a reference that does not come
   from the code under test (official NPB values, an OCaml model, or the
   answers pinned in Manifest). *)

module V = Zigomp.Value
module Report = Zigomp.Checker.Report

type metric = { name : string; unit_ : string; samples : float array }

let metric name unit_ samples = { name; unit_; samples }
let scalar name unit_ v = metric name unit_ [| v |]
let ms s = 1e3 *. s

type session = {
  op : unit -> unit -> bool;
      (** run one operation; the result checks its output, untimed *)
  stop_ok : unit -> bool;
      (** may sampling stop now? (a unit of work is complete) *)
  reset : unit -> unit;  (** called once between warm-up and timing *)
  sources : (string * (string * string) list) list;
      (** the Zr programs it compiles, in groups: a traced run times
          each group's frontend stage by stage, under metric names
          prefixed with the group's prefix *)
  extras : float array -> metric list;
      (** workload metrics derived from the timed operations' seconds *)
  layers : float array -> metric list;
      (** workload-specific metrics of a traced run, given the seconds of
          its timed operations *)
}

let session ?(stop_ok = fun () -> true) ?(reset = ignore)
    ?(extras = fun _ -> []) ?(layers = fun _ -> []) ~sources op =
  { op; stop_ok; reset; sources; extras; layers }

type t = {
  name : string;
  why : string;
  team : bool;  (** operations run on a team of threads, not one *)
  setup : smoke:bool -> seed:int -> session;
}

let call_span prog fname args =
  Trace.span ~layer:"interp" ("interp.call " ^ fname) (fun () ->
      Zigomp.call prog fname args)

(* -------------------------------- NPB ----------------------------- *)

(* The paper's other two kernels, run whole by a traced run: their times
   varied too much from run to run for an end-to-end bound (EP S by up
   to 13%, IS W by up to 2x), so they are per-layer rows. *)
let npb_ep_is ~smoke =
  let verified what (r : Npb.Result.t) =
    if not (Npb.Result.verified r) then failwith (what ^ " run failed verification");
    r.Npb.Result.time
  in
  let runs what n f =
    Array.init (if smoke then 1 else n) (fun _ ->
        Trace.span ~layer:"npb" ("npb." ^ what ^ "_run") (fun () -> verified what (f ())))
  in
  [ metric "npb.ep_s_s" "s"
      (runs "ep" 3 (fun () ->
           Harness.Zr_ep.run ~backend:`Bytecode ~cls:Npb.Classes.S ~nthreads:2 ()));
    metric "npb.is_w_s" "s"
      (runs "is" 5 (fun () ->
           Harness.Zr_is.run ~backend:`Bytecode
             ~cls:(if smoke then Npb.Classes.S else Npb.Classes.W)
             ~nthreads:2 ())) ]

(* CG with conj_grad in Zr, as Harness.Zr_cg.run, one timed iteration
   per operation; every [niter] iterations make one NPB run, verified
   against the class's official zeta.  Class W: at class S a third of
   an iteration is barrier wake-ups, whose latency the host sets. *)
let npb_cg ~smoke ~seed:_ =
  let p =
    Npb.Classes.Cg.params (if smoke then Npb.Classes.S else Npb.Classes.W)
  in
  let n = p.Npb.Classes.Cg.na in
  let rng = Npb.Randlc.create 314159265.0 in
  ignore (Npb.Randlc.draw rng);
  let m =
    Trace.span ~layer:"npb" "npb.make_matrix" (fun () ->
        Npb.Cg.make_matrix p rng)
  in
  let prog =
    Pipeline.compile ~backend:`Bytecode ~name:"conj_grad.zr"
      Harness.Zr_cg.conj_grad_src
  in
  let x = Array.make n 1.0 in
  let z = Array.make n 0. in
  let args =
    [ V.VInt n; V.VIntArr m.Npb.Cg.rowstr; V.VIntArr m.Npb.Cg.colidx;
      V.VFloatArr m.Npb.Cg.a; V.VFloatArr x; V.VFloatArr z;
      V.VFloatArr (Array.make n 0.); V.VFloatArr (Array.make n 0.);
      V.VFloatArr (Array.make n 0.) ]
  in
  let normalise () =
    let n1 = ref 0. and n2 = ref 0. in
    for j = 0 to n - 1 do
      n1 := !n1 +. (x.(j) *. z.(j));
      n2 := !n2 +. (z.(j) *. z.(j))
    done;
    let scale = 1.0 /. sqrt !n2 in
    for j = 0 to n - 1 do x.(j) <- scale *. z.(j) done;
    !n1
  in
  let it = ref 0 in
  let calls = ref [] and first_call = ref None in
  let op () =
    if !it = 0 then Array.fill x 0 n 1.0;
    let rnorm, call_s =
      Timing.time (fun () -> call_span prog "conj_grad" args)
    in
    if !first_call = None then first_call := Some call_s;
    calls := call_s :: !calls;
    let n1 = Trace.span ~layer:"npb" "npb.normalise" normalise in
    let zeta = p.Npb.Classes.Cg.shift +. (1.0 /. n1) in
    incr it;
    let last = !it = p.Npb.Classes.Cg.niter in
    if last then it := 0;
    fun () ->
      (match rnorm with V.VFloat f -> Float.is_finite f | _ -> false)
      && ((not last)
         || Float.abs (zeta -. p.Npb.Classes.Cg.zeta_verify)
            <= Npb.Cg.zeta_epsilon)
  in
  let extras samples =
    let niter = p.Npb.Classes.Cg.niter in
    let calls = Array.of_list (List.rev !calls) in
    let runs = Array.length samples / niter in
    let run_sum a k = Array.fold_left ( +. ) 0. (Array.sub a (k * niter) niter) in
    let call_med = Timing.median (Array.to_list calls) in
    [ metric "cg_run_s" "s" (Array.init runs (run_sum samples));
      metric "npb.cg_host_s" "s"
        (Array.init runs (fun k -> run_sum samples k -. run_sum calls k));
      metric "interp.cg_call_ms" "ms" (Array.map ms calls);
      scalar "interp.bc_first_call_ms" "ms"
        (ms (Option.value ~default:call_med !first_call -. call_med)) ]
  in
  session
    ~sources:[ ("", [ ("conj_grad.zr", Harness.Zr_cg.conj_grad_src) ]) ]
    ~stop_ok:(fun () -> !it = 0)
    ~reset:(fun () ->
      it := 0;
      calls := [])
    ~extras
    ~layers:(fun _ -> npb_ep_is ~smoke)
    op

(* ------------------------------ tasking --------------------------- *)

let task_fib_src =
  {|
fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    var a: i64 = 0;
    var b: i64 = 0;
    //$omp task shared(a) firstprivate(n)
    { a = fib(n - 1); }
    //$omp task shared(b) firstprivate(n)
    { b = fib(n - 2); }
    //$omp taskwait
    return a + b;
}

fn fibmain(n: i64) i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        { r = fib(n); }
    }
    return r;
}
|}

let serial_fib_src =
  {|
fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

fn fibmain(n: i64) i64 {
    return fib(n);
}
|}

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

let taskloop_sweep_src =
  {|
fn sweep(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a, b)
    {
        //$omp single
        {
            var i: i64 = 1;
            //$omp taskloop grainsize(256)
            while (i < n - 1) : (i += 1) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
        }
    }
    return b[1];
}
|}

let staticfor_sweep_src =
  {|
fn sweep(n: i64, a: []f64, b: []f64) f64 {
    var i: i64 = 1;
    //$omp parallel for shared(a, b)
    while (i < n - 1) : (i += 1) {
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    return b[1];
}
|}

(* One operation is a task fib(20) call (21,890 tasks), checked against
   fib in OCaml, then the taskloop stencil sweep over seeded values,
   checked against the same arithmetic in OCaml.  The two run on the
   compiled tier and spend their time in the runtime's tasking: spawn,
   deque pop and steal, taskwait, per-task allocation.  A traced run
   also times their serial and static-for twins, which must agree. *)
let tasking ~smoke ~seed =
  let fib_n = if smoke then 12 else 20 in
  let fib_expected = V.VInt (fib fib_n) in
  let fib_args = [ V.VInt fib_n ] in
  let fib_prog =
    Pipeline.compile ~backend:`Compiled ~name:"task_fib.zr" task_fib_src
  in
  let n = if smoke then 4_096 else 65_536 in
  let rng = Random.State.make [| seed |] in
  let a = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let b = Array.make n 0. in
  let reference =
    Array.init n (fun i ->
        if i = 0 || i = n - 1 then 0.
        else (0.25 *. a.(i - 1)) +. (0.5 *. a.(i)) +. (0.25 *. a.(i + 1)))
  in
  let sweep_args = [ V.VInt n; V.VFloatArr a; V.VFloatArr b ] in
  let sweep_prog =
    Pipeline.compile ~backend:`Compiled ~name:"taskloop_sweep.zr"
      taskloop_sweep_src
  in
  let matches () =
    let ok = b = reference in
    Array.fill b 0 n 0.;
    ok
  in
  (* seconds of each part, newest first *)
  let fib_s = ref [] and sweep_s = ref [] in
  let op () =
    let r, f = Timing.time (fun () -> call_span fib_prog "fibmain" fib_args) in
    let (), s =
      Timing.time (fun () -> ignore (call_span sweep_prog "sweep" sweep_args))
    in
    fib_s := f :: !fib_s;
    sweep_s := s :: !sweep_s;
    fun () -> r = fib_expected && matches ()
  in
  let in_ms l = Array.of_list (List.rev_map ms !l) in
  let extras _ =
    [ metric "fib_task_ms" "ms" (in_ms fib_s);
      metric "taskloop_ms" "ms" (in_ms sweep_s) ]
  in
  let layers _ =
    let serial =
      Pipeline.compile ~backend:`Compiled ~name:"serial_fib.zr" serial_fib_src
    in
    let serial_runs =
      Timing.repeat_for ~seconds:(if smoke then 0. else 0.5) (fun () ->
          call_span serial "fibmain" fib_args)
    in
    if List.exists (fun (r, _) -> r <> fib_expected) serial_runs then
      failwith "serial fib twin diverged";
    let twin =
      Pipeline.compile ~backend:`Compiled ~name:"staticfor_sweep.zr"
        staticfor_sweep_src
    in
    let twin_runs =
      Timing.repeat_for ~seconds:(if smoke then 0. else 0.5)
        ~after:(fun () ->
          if not (matches ()) then failwith "static-for twin diverged")
        (fun () -> ignore (call_span twin "sweep" sweep_args))
    in
    (* words allocated per task by the task fib alone, over whole
       minor collections so that the worker's count is up to date *)
    let words_per_task =
      Gc.minor ();
      let w0 = (Gc.quick_stat ()).minor_words in
      let calls = if smoke then 1 else 10 in
      for _ = 1 to calls do ignore (Zigomp.call fib_prog "fibmain" fib_args) done;
      Gc.minor ();
      (* every call fib(k) with k >= 2 spawns two *)
      let tasks = 2 * (fib (fib_n + 1) - 1) in
      ((Gc.quick_stat ()).minor_words -. w0) /. float_of_int (calls * tasks)
    in
    let runs_ms runs = Array.of_list (List.map (fun (_, s) -> ms s) runs) in
    [ scalar "omprt.task.minor_words_per_task" "words" words_per_task;
      metric "tasking.fib_serial_ms" "ms" (runs_ms serial_runs);
      scalar "tasking.fib_overhead_ratio" "x"
        (Timing.median !fib_s /. Timing.median (List.map snd serial_runs));
      metric "tasking.taskloop_static_ms" "ms" (runs_ms twin_runs) ]
  in
  session
    ~sources:
      [ ("",
         [ ("task_fib.zr", task_fib_src);
           ("taskloop_sweep.zr", taskloop_sweep_src) ]) ]
    ~reset:(fun () ->
      fib_s := [];
      sweep_s := [])
    ~extras ~layers op

(* ------------------------------ frontend -------------------------- *)

let proven_ids (r : Zigomp.Analyzer.result) =
  List.filter_map
    (fun (f : Report.finding) ->
      if f.Report.verdict = Some Report.Proven then Some f.Report.id else None)
    r.Zigomp.Analyzer.report.Report.findings
  |> List.sort_uniq compare

(* A frontend pass over [sources]: compile every source for the bytecode
   tier, then analyse it.  The first compilation, part of set-up, is the
   reference every later pass must reproduce exactly; the PROVEN ids
   must equal [expected_proven].  [run] times one pass and returns its
   check, which raises on a mismatch; each pass's two times are kept,
   newest first. *)
type frontend_pass = {
  run : unit -> unit -> unit;
  compile_s : float list ref;
  analyze_s : float list ref;
}

let frontend_pass ~expected_proven sources =
  let compile_all () =
    List.map
      (fun (name, src) ->
        Zigomp.preprocessed_source (Pipeline.compile ~backend:`Bytecode ~name src))
      sources
  in
  let analyze_all () =
    List.map (fun (name, src) -> proven_ids (Pipeline.analyze ~name src)) sources
  in
  let reference = compile_all () in
  let compile_s = ref [] and analyze_s = ref [] in
  let run () =
    let texts, c_s = Timing.time compile_all in
    let ids, a_s = Timing.time analyze_all in
    compile_s := c_s :: !compile_s;
    analyze_s := a_s :: !analyze_s;
    fun () ->
      List.iter2
        (fun ((name, _), (text, first)) proven ->
          if text <> first then
            failwith (name ^ ": preprocessed text differs from the first pass");
          if proven <> expected_proven name then
            failwith
              (Printf.sprintf "%s: PROVEN ids [%s]" name
                 (String.concat "; " proven)))
        (List.combine sources (List.combine texts reference))
        ids
  in
  { run; compile_s; analyze_s }

let read_file = Zigomp.Corpus.read_file

(* One operation is a pass over the pinned fixtures plus the three NPB
   Zr kernels, in seeded order, then a pass over the seeded synthetic
   program, whose size shows the scaling the small fixtures hide. *)
let frontend ~smoke ~seed =
  Lazy.force Manifest.warn_unlisted;
  let fixtures =
    List.map (fun p -> (p, read_file p)) Manifest.frontend_fixtures
    @ Zigomp.Corpus.kernel_sources
    |> Synthetic.shuffle (Random.State.make [| seed |])
  in
  let synthetic =
    [ ("synthetic.zr",
       Synthetic.program ~seed ~constructs:(if smoke then 20 else 200)) ]
  in
  let small = frontend_pass ~expected_proven:Manifest.expected_proven fixtures in
  let large = frontend_pass ~expected_proven:(fun _ -> []) synthetic in
  let op () =
    let check_small = small.run () in
    let check_large = large.run () in
    fun () ->
      check_small ();
      check_large ();
      true
  in
  let extras _ =
    let per_pass l = Array.of_list (List.rev_map ms !l) in
    [ metric "compile_ms" "ms" (per_pass small.compile_s);
      metric "analyze_ms" "ms" (per_pass small.analyze_s);
      metric "compile_large_ms" "ms" (per_pass large.compile_s);
      metric "analyze_large_ms" "ms" (per_pass large.analyze_s) ]
  in
  session
    ~sources:[ ("", fixtures); ("large.", synthetic) ]
    ~reset:(fun () ->
      List.iter
        (fun p ->
          p.compile_s := [];
          p.analyze_s := [])
        [ small; large ])
    ~extras op

(* ---------------------------- check corpus ------------------------ *)

let entry_group path =
  if Manifest.is_kernel path then "npb"
  else if Filename.basename (Filename.dirname path) = "transform" then
    "transform"
  else "rest"

(* CI's corpus check minus the slow entries (but with one long traced
   execution, interchange_colmajor), in manifest order, as
   Corpus.run_entry and Corpus.kernel_entry do it: dynamic DPOR check,
   static analysis, then the merge.  Every entry's exit code and finding
   ids must equal the pinned ones.  Set-up reads every entry. *)
let check_corpus ~smoke ~seed:_ =
  Lazy.force Manifest.warn_unlisted;
  let entries =
    List.filter
      (fun (e : Manifest.check_entry) ->
        if smoke then List.mem e.path Manifest.smoke_check_paths
        else not e.slow)
      Manifest.check_entries
  in
  if not smoke then begin
    let races =
      List.concat_map (fun (e : Manifest.check_entry) -> e.ids) entries
      |> List.filter_map (fun id ->
             if String.length id > 5 && String.sub id 0 5 = "race|" then
               Some (String.sub id 5 (String.length id - 5))
             else None)
      |> List.sort_uniq compare
    in
    if races <> Manifest.ci_race_ids then
      failwith "check corpus entries no longer cover CI's race-id set"
  end;
  let source (e : Manifest.check_entry) =
    if Manifest.is_kernel e.path then List.assoc e.path Zigomp.Corpus.kernel_sources
    else read_file e.path
  in
  let entries = List.map (fun e -> (e, source e)) entries in
  let config =
    { Zigomp.Checker.default_config with
      exploration =
        Zigomp.Checker.Dpor
          { max_execs = (if smoke then 4 else 16); preempt_bound = 2 } }
  in
  (* seconds in the dynamic check and in the static analysis, this pass *)
  let dynamic_s = ref 0. and static_s = ref 0. in
  let check_one ((e : Manifest.check_entry), src) =
    let name = e.path in
    let dynamic, d =
      Timing.time (fun () ->
          Trace.span ~layer:"check" "check.dynamic" (fun () ->
              if Manifest.is_kernel name then
                (Zigomp.Corpus.kernel_entry ~mode:Zigomp.Corpus.Mcheck ~config
                   ~no_static:true (name, src))
                  .Zigomp.Corpus.report
              else Zigomp.Checker.check_source ~name ~config src))
    in
    let static, st =
      Timing.time (fun () -> (Pipeline.analyze ~name src).Zigomp.Analyzer.report)
    in
    dynamic_s := !dynamic_s +. d;
    static_s := !static_s +. st;
    Report.merge ~static ~dynamic
  in
  (* the pinned answer, or a failure naming the entry that drifted *)
  let verify ((e : Manifest.check_entry), report) =
    let ids =
      List.sort_uniq compare
        (List.map (fun (f : Report.finding) -> f.Report.id) report.Report.findings)
    in
    let exit = Report.exit_code report in
    if exit <> e.exit || ids <> e.ids then
      failwith
        (Printf.sprintf "%s: exit %d, ids [%s]; pinned exit %d, ids [%s]"
           e.path exit (String.concat "; " ids) e.exit
           (String.concat "; " e.ids))
  in
  let executions = ref [] and entry_ms = ref [] and verdicts = ref [] in
  let split = ref [] in
  let op () =
    dynamic_s := 0.;
    static_s := 0.;
    let results =
      List.map
        (fun ((e : Manifest.check_entry), src) ->
          let report, s =
            Timing.time (fun () ->
                Trace.span ~layer:"bench" ("entry " ^ e.path) (fun () ->
                    check_one (e, src)))
          in
          (e, report, s))
        entries
    in
    executions :=
      List.fold_left
        (fun acc (_, r, _) -> acc + Zigomp.Corpus.executions r)
        0 results
      :: !executions;
    entry_ms := results :: !entry_ms;
    split := (!dynamic_s, !static_s) :: !split;
    verdicts := results;
    fun () ->
      List.iter (fun (e, r, _) -> verify (e, r)) results;
      true
  in
  let extras samples =
    let passes = List.rev !entry_ms in
    let group g =
      metric ("check.entry_ms." ^ g) "ms"
        (Array.of_list
           (List.map
              (fun rs ->
                List.fold_left
                  (fun acc ((e : Manifest.check_entry), _, s) ->
                    if entry_group e.path = g then acc +. ms s else acc)
                  0. rs)
              passes))
    in
    let execs = Array.of_list (List.rev_map float_of_int !executions) in
    let count_verdict v =
      float_of_int
        (List.length
           (List.filter
              (fun (_, r, _) ->
                match r.Report.exploration with
                | Some x -> Report.exploration_verdict x = v
                | None -> false)
              !verdicts))
    in
    let split = Array.of_list (List.rev !split) in
    [ metric "check.executions" "count/op" execs;
      metric "check.dynamic_ms" "ms" (Array.map (fun (d, _) -> ms d) split);
      metric "check.static_ms" "ms" (Array.map (fun (_, st) -> ms st) split);
      metric "check.ms_per_exec" "ms"
        (Array.mapi (fun i s -> ms s /. Float.max 1. execs.(i)) samples);
      scalar "check.complete_entries" "count" (count_verdict "COMPLETE");
      scalar "check.bounded_entries" "count" (count_verdict "BOUNDED");
      group "transform"; group "npb"; group "rest" ]
  in
  let layers _ =
    let (), lint_s =
      Timing.time (fun () ->
          List.iter
            (fun ((e : Manifest.check_entry), src) ->
              if not (Manifest.is_kernel e.path) then
                ignore (Zigomp.Checker.Lint.run ~name:e.path src))
            entries)
    in
    [ scalar "check.lint_ms" "ms" (ms lint_s) ]
  in
  session
    ~sources:
      [ ("", List.map (fun ((e : Manifest.check_entry), s) -> (e.path, s)) entries) ]
    ~reset:(fun () ->
      executions := [];
      entry_ms := [];
      split := [])
    ~extras ~layers op

let all =
  [ { name = "npb_cg";
      why =
        "NPB CG class W, conj_grad on the bytecode tier: static \
         worksharing, barriers, reductions and single in the VM and runtime";
      team = true;
      setup = npb_cg };
    { name = "tasking";
      why =
        "task fib(20) and a taskloop grainsize(256) stencil sweep over 65536 \
         seeded doubles: task spawn, deque pop/steal, taskwait, per-task \
         allocation";
      team = true;
      setup = tasking };
    { name = "frontend";
      why =
        "compile and analyse 28 pinned fixtures, 3 NPB kernels and a seeded \
         200-construct program: tokenizer, parser, preprocessor, staging, \
         analyser";
      team = false;
      setup = frontend };
    { name = "check_corpus";
      why =
        "DPOR race check of 21 pinned corpus entries, one a long trace, on 4 \
         simulated threads: traced walker executions, vector clocks";
      team = false;
      setup = check_corpus } ]

let find name = List.find_opt (fun w -> w.name = name) all
