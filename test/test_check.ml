(* The [zrc --check] race detector, end to end: the racy fixtures under
   examples/zr/racy must each produce findings that name both
   conflicting source locations, their race-free twins under
   examples/zr/clean (and the stock examples) must come back clean, and
   a fixed configuration must be deterministic across runs.  The
   fixture files are build dependencies of the test (see test/dune). *)

module Checker = Zigomp.Checker
module Report = Checker.Report

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples_dir =
  (* the test binary runs in _build/default/test *)
  Filename.concat (Filename.concat ".." "examples") "zr"

let dpor_config ?(nthreads = 2) ?(max_execs = 256) ?(preempt_bound = 2) () =
  { Checker.nthreads; lint = true;
    exploration = Checker.Dpor { max_execs; preempt_bound } }

(* The fixture tests' small budget: seven executions at four threads. *)
let config ?(max_execs = 7) () = dpor_config ~nthreads:4 ~max_execs ()

let check_file ?config:(cfg = config ()) name =
  let path = Filename.concat examples_dir name in
  Zigomp.check ~name ~config:cfg (read_file path)

let lines_of (r : Report.t) =
  List.map (fun (f : Report.finding) -> f.Report.line) r.Report.findings

let contains = Astring_contains.contains

(* ---- racy fixtures ------------------------------------------------ *)

(* Every race line must cite both conflicting accesses, each with a
   line:col position: "race v: <rw>@l:c vs <rw>@l:c :: ...". *)
let both_locations line =
  match String.index_opt line '@' with
  | None -> false
  | Some i ->
      contains line " vs "
      && String.index_from_opt line (i + 1) '@' <> None

let test_racy_fixtures () =
  List.iter
    (fun name ->
      let r = check_file (Filename.concat "racy" name) in
      Alcotest.(check bool) (name ^ ": reported") false (Report.clean r);
      let races = Report.races r in
      Alcotest.(check bool) (name ^ ": at least one race") true
        (List.length races >= 1);
      List.iter
        (fun (f : Report.finding) ->
          Alcotest.(check bool)
            (name ^ ": both locations in " ^ f.Report.line)
            true
            (both_locations f.Report.line))
        races)
    [ "missing_reduction.zr"; "shared_counter.zr"; "nowait_useafter.zr";
      "task_no_taskwait.zr" ]

let test_reduction_suggestion () =
  let r = check_file "racy/missing_reduction.zr" in
  Alcotest.(check bool) "suggests reduction(+: s)" true
    (List.exists (fun l -> contains l "suggest reduction(+: s)")
       (lines_of r))

let test_nowait_lint () =
  let r = check_file "racy/nowait_useafter.zr" in
  Alcotest.(check bool) "dynamic race on q" true
    (List.exists
       (fun (f : Report.finding) ->
         contains f.Report.line "race q")
       (Report.races r));
  Alcotest.(check bool) "nowait-dependent-read lint" true
    (List.exists (fun l -> contains l "nowait-dependent-read") (lines_of r))

(* ---- clean programs ----------------------------------------------- *)

let test_clean_twins () =
  List.iter
    (fun name ->
      let r = check_file (Filename.concat "clean" name) in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (lines_of r))
    [ "reduction.zr"; "atomic_counter.zr"; "nowait_barrier.zr";
      "task_taskwait.zr" ]

let test_stock_examples_clean () =
  (* a two-execution budget keeps the test quick; the CI job checks
     every example with a larger one *)
  let cfg = config ~max_execs:2 () in
  List.iter
    (fun name ->
      let r = check_file ~config:cfg name in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (lines_of r))
    [ "histogram.zr"; "jacobi.zr" ]

let test_mandelbrot_clean () =
  let cfg = config ~max_execs:2 () in
  let r = check_file ~config:cfg "mandelbrot.zr" in
  Alcotest.(check (list string)) "mandelbrot.zr: no findings" []
    (lines_of r)

(* ---- lint-only sources -------------------------------------------- *)

let divergent_src = {|
fn main() i64 {
    var n: i64 = 8;
    //$omp parallel firstprivate(n)
    {
        if (omp.get_thread_num() == 0) {
            //$omp barrier
            n = 1;
        }
    }
    return 0;
}
|}

let test_divergent_barrier () =
  let r = Zigomp.check ~name:"divergent.zr" ~config:(config ()) divergent_src in
  let ls = lines_of r in
  Alcotest.(check bool) "divergent-barrier lint" true
    (List.exists (fun l -> contains l "divergent-barrier") ls);
  Alcotest.(check bool) "dynamic divergence observed" true
    (List.exists (fun l -> contains l "divergence") ls)

let default_none_src = {|
fn main() i64 {
    var n: i64 = 4;
    var s: i64 = 0;
    //$omp parallel default(none) shared(s)
    {
        //$omp critical
        { s = s + n; }
    }
    return s;
}
|}

let test_default_none_lint () =
  let r =
    Zigomp.check ~name:"defnone.zr" ~config:(config ()) default_none_src
  in
  Alcotest.(check bool) "default-none lint names the variable" true
    (List.exists
       (fun l -> contains l "default-none" && contains l "n")
       (lines_of r));
  (* static finding: nothing executes *)
  Alcotest.(check int) "no executions explored" 0 (Report.executions r)

(* ---- determinism -------------------------------------------------- *)

let test_deterministic () =
  let once () = Report.to_string (check_file "racy/shared_counter.zr") in
  Alcotest.(check string) "identical report across two runs" (once ())
    (once ())

(* ---- DPOR exploration --------------------------------------------- *)

let executions (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete { executions }) -> executions
  | Some (Report.Bounded { executions; _ }) -> executions
  | _ -> 0

let is_complete (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete _) -> true
  | _ -> false

let is_systematic (r : Report.t) =
  match r.Report.exploration with
  | Some (Report.Complete _) | Some (Report.Bounded _) -> true
  | _ -> false

(* Every racy fixture must be caught by the systematic search too, with
   an honest verdict (COMPLETE, or BOUNDED when the budget truncates). *)
let test_dpor_racy_fixtures () =
  List.iter
    (fun name ->
      let cfg = dpor_config ~max_execs:64 () in
      let r = check_file ~config:cfg (Filename.concat "racy" name) in
      Alcotest.(check bool) (name ^ ": race found under DPOR") true
        (Report.races r <> []);
      Alcotest.(check bool) (name ^ ": systematic verdict") true
        (is_systematic r))
    [ "missing_reduction.zr"; "shared_counter.zr"; "nowait_useafter.zr";
      "task_no_taskwait.zr" ]

(* The race-free twins must come back COMPLETE and clean: the reduced
   interleaving space is exhausted, not merely sampled, at both 2 and 3
   threads. *)
let test_dpor_clean_twins_complete () =
  List.iter
    (fun nthreads ->
      List.iter
        (fun name ->
          let cfg = dpor_config ~nthreads () in
          let r = check_file ~config:cfg (Filename.concat "clean" name) in
          let label = Printf.sprintf "%s at %d threads" name nthreads in
          Alcotest.(check (list string)) (label ^ ": no findings") []
            (lines_of r);
          Alcotest.(check bool) (label ^ ": COMPLETE") true (is_complete r))
        [ "reduction.zr"; "atomic_counter.zr"; "nowait_barrier.zr";
          "task_taskwait.zr" ])
    [ 2; 3 ]

(* hidden_handoff.zr only races when thread 0 wins a critical-section
   handoff although it makes 32 traced writes before its acquire: only a
   lock-handoff reorder exposes the race.  DPOR must find it; the
   lock-ordered twin must be COMPLETE-clean. *)
let test_dpor_hidden_handoff () =
  let r = check_file ~config:(dpor_config ()) "dpor/hidden_handoff.zr" in
  Alcotest.(check bool) "DPOR reports the race on data" true
    (List.exists
       (fun (f : Report.finding) -> contains f.Report.line "race data")
       (Report.races r));
  Alcotest.(check bool) "and the search still completes" true
    (is_complete r);
  let twin = check_file ~config:(dpor_config ()) "dpor/hidden_handoff_clean.zr" in
  Alcotest.(check (list string)) "lock-ordered twin is clean" []
    (lines_of twin);
  Alcotest.(check bool) "twin COMPLETE" true (is_complete twin)

(* Same seed, same program, same budget: identical report text and
   identical execution counts.  The whole engine — replay, backtrack-set
   computation, frontier order — must be deterministic. *)
let test_dpor_deterministic () =
  let once name =
    let r = check_file ~config:(dpor_config ~max_execs:64 ()) name in
    (Report.to_string r, executions r)
  in
  List.iter
    (fun name ->
      let s1, n1 = once name and s2, n2 = once name in
      Alcotest.(check string) (name ^ ": identical report") s1 s2;
      Alcotest.(check int) (name ^ ": identical execution count") n1 n2;
      Alcotest.(check bool) (name ^ ": explored something") true (n1 >= 1))
    [ "racy/shared_counter.zr"; "dpor/hidden_handoff.zr" ]

(* Exit-code discipline: findings -> 2; a clean but truncated search is
   only a partial proof -> 1; a clean COMPLETE run -> 0. *)
let test_dpor_exit_codes () =
  let code ?config:(cfg = dpor_config ()) name =
    Report.exit_code (check_file ~config:cfg name)
  in
  Alcotest.(check int) "COMPLETE clean -> 0" 0 (code "clean/reduction.zr");
  Alcotest.(check int) "findings -> 2" 2 (code "dpor/hidden_handoff.zr");
  Alcotest.(check int) "BOUNDED clean -> 1" 1
    (code
       ~config:(dpor_config ~nthreads:3 ~max_execs:4 ())
       "clean/atomic_counter.zr")

(* ---- differential property: DPOR vs random schedules -------------- *)

module G = QCheck2.Gen

(* Small random parallel programs over two shared counters: every
   statement template either races, synchronises, or is gated to a
   single thread.  The SPMD body keeps barriers convergent. *)
type op =
  | Plain of string           (* v = v + 1;               racy rmw  *)
  | Crit of string            (* critical { v = v + 1; }  ordered   *)
  | Atomic of string          (* atomic v += 1;           commuting *)
  | Gated of string * int     (* one thread writes        *)
  | Copyv of string * string  (* dst = src;               read+write *)
  | Barrier

let render_op = function
  | Plain v -> Printf.sprintf "        %s = %s + 1;" v v
  | Crit v ->
      Printf.sprintf "        //$omp critical\n        { %s = %s + 1; }" v v
  | Atomic v -> Printf.sprintf "        //$omp atomic\n        %s += 1;" v
  | Gated (v, t) ->
      Printf.sprintf "        if (omp.get_thread_num() == %d) { %s = %s + 1; }"
        t v v
  | Copyv (d, s) -> Printf.sprintf "        %s = %s;" d s
  | Barrier -> "        //$omp barrier"

let op_gen =
  let var = G.oneofl [ "x"; "y" ] in
  G.oneof
    [ G.map (fun v -> Plain v) var;
      G.map (fun v -> Crit v) var;
      G.map (fun v -> Atomic v) var;
      G.map2 (fun v t -> Gated (v, t)) var (G.int_range 0 1);
      G.map2 (fun d s -> Copyv (d, s)) var var;
      G.pure Barrier ]

let program_gen =
  G.map
    (fun ops ->
      Printf.sprintf
        "fn main() i64 {\n\
        \    var x: i64 = 0;\n\
        \    var y: i64 = 0;\n\
        \    //$omp parallel shared(x, y)\n\
        \    {\n\
         %s\n\
        \    }\n\
        \    return x + y;\n\
         }\n"
        (String.concat "\n" (List.map render_op ops)))
    (G.list_size (G.int_range 2 4) op_gen)

let race_ids r =
  List.sort_uniq compare
    (List.map (fun (f : Report.finding) -> f.Report.id) (Report.races r))

(* Race ids of one execution at two threads under a forced decision
   prefix.  A forced choice that is not runnable falls back to DPOR's
   default, so every prefix drives a real execution of the model. *)
let prefix_race_ids src prefix =
  let ast = Interp.parse ~name:"rand.zr" src in
  let load () = Interp.of_ast ast in
  let run prog = ignore (Interp.run_main prog) in
  Checker.Sched.run_controlled ~load ~run ~nthreads:2
    ~ex:(Checker.Dpor.new_exec ~prefix) ()
  |> List.filter (fun (f : Report.finding) -> f.Report.kind = Report.Race)
  |> List.map (fun (f : Report.finding) -> f.Report.id)

(* When the DPOR search completes, it has covered every Mazurkiewicz
   trace class — so it must report (at least) every race any execution
   can show.  The reference is seven executions under random decision
   prefixes.  A BOUNDED run makes no containment claim, so those cases
   pass vacuously. *)
let prop_dpor_superset =
  QCheck2.Test.make ~name:"DPOR findings contain sampled findings" ~count:200
    ~print:(fun (src, _) -> src)
    (G.pair program_gen
       (G.list_repeat 7 (G.array_size (G.int_range 0 48) (G.int_range 0 1))))
    (fun (src, prefixes) ->
      let dpor =
        Zigomp.check ~name:"rand.zr" ~config:(dpor_config ~max_execs:128 ())
          src
      in
      (not (is_complete dpor))
      || List.for_all
           (fun prefix ->
             List.for_all
               (fun id -> List.mem id (race_ids dpor))
               (prefix_race_ids src prefix))
           prefixes)

(* ---- corpus batch mode -------------------------------------------- *)

module Corpus = Zigomp.Corpus

let test_corpus_check_clean () =
  let dir = Filename.concat examples_dir "clean" in
  let c =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~mode:Corpus.Mcheck
      ~dir ()
  in
  Alcotest.(check int) "six entries" 6 (List.length c.Corpus.entries);
  Alcotest.(check int) "clean corpus exits 0" 0 c.Corpus.exit;
  Alcotest.(check bool) "executions summed" true (c.Corpus.total_execs >= 3);
  Alcotest.(check bool) "summary renders" true
    (contains (Corpus.summary c) "6 entries");
  Alcotest.(check bool) "json carries the schema" true
    (contains (Corpus.to_json c) "zigomp-corpus/1")

let test_corpus_check_racy_exit () =
  let dir = Filename.concat examples_dir "dpor" in
  let c =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~mode:Corpus.Mcheck
      ~dir ()
  in
  Alcotest.(check int) "two entries" 2 (List.length c.Corpus.entries);
  Alcotest.(check int) "racy member dominates the exit" 2 c.Corpus.exit

let test_corpus_analyze () =
  let dir = Filename.concat examples_dir "racy" in
  let c = Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () in
  Alcotest.(check bool) "at least three entries" true
    (List.length c.Corpus.entries >= 3);
  Alcotest.(check int) "proven findings exit 2" 2 c.Corpus.exit;
  Alcotest.(check int) "no dynamic executions in analyze mode" 0
    c.Corpus.total_execs

(* A corpus pointed at a directory with no fixtures must raise, not
   return an empty (vacuously clean) report; a missing directory must
   produce a message naming it. *)
let test_corpus_empty_dir_errors () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "zigomp_empty" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (match Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () with
   | _ -> Alcotest.fail "empty corpus dir must raise"
   | exception Failure msg ->
       Alcotest.(check bool) "message names the directory" true
         (contains msg dir);
       Alcotest.(check bool) "message says no fixtures" true
         (contains msg "no .zr fixtures"))

let test_corpus_missing_dir_errors () =
  let dir = "/nonexistent/zigomp_corpus" in
  (match Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () with
   | _ -> Alcotest.fail "missing corpus dir must raise"
   | exception Failure msg ->
       Alcotest.(check bool) "message says the dir is unreadable" true
         (contains msg "cannot read"));
  (* check mode shares the same hard errors *)
  match Corpus.run ~kernels:false ~mode:Corpus.Mcheck ~dir () with
  | _ -> Alcotest.fail "missing corpus dir must raise in check mode"
  | exception Failure _ -> ()

(* --no-static surfaces raw dynamic findings per entry: every
   statically PROVEN race over the racy fixtures must appear among the
   same entry's unmerged DPOR findings (the CI subset assertion, in
   process). *)
let test_corpus_no_static_subset () =
  let dir = Filename.concat examples_dir "racy" in
  let st = Corpus.run ~kernels:false ~mode:Corpus.Manalyze ~dir () in
  let dyn =
    Corpus.run ~config:(dpor_config ()) ~kernels:false ~no_static:true
      ~mode:Corpus.Mcheck ~dir ()
  in
  List.iter2
    (fun (se : Corpus.entry) (de : Corpus.entry) ->
      Alcotest.(check string) "entries line up" se.Corpus.path
        de.Corpus.path;
      let dyn_ids =
        List.map
          (fun (f : Report.finding) -> f.Report.id)
          de.Corpus.report.Report.findings
      in
      List.iter
        (fun (f : Report.finding) ->
          if
            f.Report.verdict = Some Report.Proven
            && (f.Report.kind = Report.Race || f.Report.kind = Report.Dep)
          then
            Alcotest.(check bool)
              (se.Corpus.path ^ ": " ^ f.Report.id ^ " DPOR-observed")
              true
              (List.mem f.Report.id dyn_ids))
        se.Corpus.report.Report.findings)
    st.Corpus.entries dyn.Corpus.entries

(* ---- checker task model and shadow state ------------------------- *)

let dynamic_only ?(nthreads = 2) name src =
  let cfg =
    { (dpor_config ~nthreads ~max_execs:16 ()) with Checker.lint = false }
  in
  Zigomp.check ~name ~config:cfg src

(* A task created outside any region runs on its own copy of the
   initial task's ICV frame, as in execution: its set_num_threads(1)
   must not shrink the next region's team, whose update races. *)
let test_orphan_task_own_frame () =
  let r =
    dynamic_only ~nthreads:4 "orphan_task.zr"
      {|
fn main() i64 {
    var r: i64 = 0;
    //$omp task
    { omp.set_num_threads(1); }
    //$omp parallel shared(r)
    { r += 1; }
    return r;
}
|}
  in
  Alcotest.(check (list string)) "the dynamic pass alone finds the race"
    [ "race|r" ] (race_ids r)

(* Each taskwait is woken by the completion of its own last child, not
   by every completion in the team: one execution of task fib(12)
   takes a few scheduling decisions per task. *)
let test_taskwait_decisions () =
  let n = 12 in
  let name = "task_fib.zr" in
  let src =
    Printf.sprintf
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

fn main() i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        { r = fib(%d); }
    }
    return r;
}
|}
      n
  in
  let ast = Interp.parse ~name src in
  let load () = Interp.of_ast ast in
  let run prog = ignore (Interp.run_main prog) in
  let findings, stats =
    Checker.Dpor.explore ~max_execs:1 ~preempt_bound:2 ~run_one:(fun ex ->
        Checker.Sched.run_controlled ~load ~run ~nthreads:4 ~ex ())
  in
  let rec tasks n = if n < 2 then 0 else 2 + tasks (n - 1) + tasks (n - 2) in
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun (f : Report.finding) -> f.Report.id) findings);
  Alcotest.(check int) "one execution" 1 stats.Checker.Dpor.executions;
  let decisions = stats.Checker.Dpor.decisions in
  let per_task = float_of_int decisions /. float_of_int (tasks n) in
  if per_task > 8. then
    Alcotest.failf "%d decisions for %d tasks: %.1f per task, over 8"
      decisions (tasks n) per_task

(* Dense shadows: the last element of an int and of a float array is
   traced like any other, and two arrays of the same length and
   contents never share a shadow. *)
let test_array_shadows () =
  let racy =
    dynamic_only "last_element.zr"
      {|
fn main() i64 {
    var a = alloc_i64(8);
    var f = alloc_f64(8);
    //$omp parallel shared(a, f)
    {
        a[7] += 1;
        f[7] += 1.0;
    }
    return a[7];
}
|}
  in
  Alcotest.(check (list string)) "races on both last elements"
    [ "race|a"; "race|f" ] (race_ids racy);
  let clean =
    dynamic_only "twin_arrays.zr"
      {|
fn main() i64 {
    var a = alloc_i64(8);
    var b = alloc_i64(8);
    var f = alloc_f64(8);
    var g = alloc_f64(8);
    //$omp parallel shared(a, b, f, g)
    {
        if (omp.get_thread_num() == 0) { a[7] = 1; f[7] = 1.0; }
        else { b[7] = 2; g[7] = 2.0; }
    }
    return a[7] + b[7];
}
|}
  in
  Alcotest.(check (list string)) "same-length arrays keep separate shadows"
    [] (lines_of clean)

(* ---- the walker's trace, pinned ----------------------------------- *)

(* What one DPOR search sees of the walker: the executions, the
   scheduling decisions summed over them (one per traced access or
   synchronising operation inside a region), the executions that
   raced, and the distinct findings with their positions.  The
   decision count moves whenever a traced access is added, dropped or
   reordered, before any race id or exit code does.  Budget and team
   size are CI's corpus settings. *)
let explore_pinned ~load ~run =
  let findings, stats =
    Checker.Dpor.explore ~max_execs:16 ~preempt_bound:2 ~run_one:(fun ex ->
        Checker.Sched.run_controlled ~load ~run ~nthreads:4 ~ex ())
  in
  ( ( stats.Checker.Dpor.executions,
      stats.Checker.Dpor.decisions,
      stats.Checker.Dpor.racy_execs ),
    List.sort_uniq compare
      (List.map (fun (f : Report.finding) -> f.Report.line) findings) )

let pinned_t = Alcotest.(pair (triple int int int) (list string))

let test_walker_trace_pinned () =
  let fixture path =
    let res = Interp.resolve (Interp.parse ~name:path (read_file path)) in
    explore_pinned
      ~load:(fun () -> Interp.instantiate res)
      ~run:(fun prog -> ignore (Interp.run_main prog))
  in
  let zr name = Filename.concat examples_dir name in
  let race var a b snippet fix =
    Printf.sprintf "race %s: %s vs %s :: `%s` :: suggest %s" var a b snippet
      fix
  in
  let guard var = "atomic/critical around the conflicting accesses, or \
                   private(" ^ var ^ ")" in
  Alcotest.check pinned_t "transform/interchange_colmajor"
    ((1, 262152, 0), [])
    (fixture (zr "transform/interchange_colmajor.zr"));
  Alcotest.check pinned_t "dpor/hidden_handoff"
    ( (10, 756, 8),
      [ race "data" "write@49:22" "read@59:39" "got__ptr.* = data__ptr.*;"
          (guard "data") ] )
    (fixture (zr "dpor/hidden_handoff.zr"));
  let rmw = "s__ptr.* += x__ptr.*[__omp_iv];" in
  Alcotest.check pinned_t "racy/missing_reduction"
    ( (16, 4352, 16),
      [ race "s" "read@38:19" "write@38:19[+]" rmw (guard "s");
        race "s" "write@38:19[+]" "write@38:19[+]" rmw "reduction(+: s)" ] )
    (fixture (zr "racy/missing_reduction.zr"));
  let use = "total__ptr.* = q__ptr.*[0] + q__ptr.*[n - 1];" in
  Alcotest.check pinned_t "racy/nowait_useafter"
    ( (16, 2320, 16),
      [ race "q" "write@34:13" "read@42:28" use (guard "q");
        race "q" "write@34:13" "read@42:42" use (guard "q") ] )
    (fixture (zr "racy/nowait_useafter.zr"));
  Alcotest.check pinned_t "tasking/tree_sum" ((16, 5168, 0), [])
    (fixture (Filename.concat (Filename.concat ".." "examples")
                "tasking/tree_sum.zr"));
  (* the corpus's is_rank entry: 1024 keys, 16 buckets, 2 iterations *)
  let p =
    { Npb.Classes.Is.cls = Npb.Classes.S; total_keys_log2 = 10;
      max_key_log2 = 7; num_buckets_log2 = 4; max_iterations = 2 }
  in
  Alcotest.check pinned_t "npb/is_rank" ((16, 4080, 0), [])
    (Harness.Zr_is.with_hosts (fun () ->
         let res =
           Interp.resolve (Interp.parse ~name:"npb/is_rank.zr" Harness.Zr_is.src)
         in
         explore_pinned
           ~load:(fun () -> Interp.instantiate res)
           ~run:(fun prog ->
             let d = Harness.Zr_is.make_data p ~nthreads:4 in
             ignore
               (Interp.call prog "is_rank"
                  (Harness.Zr_is.rank_args d ~itlo:1
                     ~ithi:p.Npb.Classes.Is.max_iterations)))))

let suite =
  [ Alcotest.test_case "racy fixtures report both locations" `Quick
      test_racy_fixtures;
    Alcotest.test_case "missing reduction is suggested as the fix" `Quick
      test_reduction_suggestion;
    Alcotest.test_case "nowait use-after: race + lint" `Quick
      test_nowait_lint;
    Alcotest.test_case "race-free twins are clean" `Quick test_clean_twins;
    Alcotest.test_case "stock examples are clean" `Slow
      test_stock_examples_clean;
    Alcotest.test_case "mandelbrot is clean" `Slow test_mandelbrot_clean;
    Alcotest.test_case "thread-id-gated barrier diverges" `Quick
      test_divergent_barrier;
    Alcotest.test_case "default(none) missing capture" `Quick
      test_default_none_lint;
    Alcotest.test_case "fixed seed is deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "racy fixtures race under DPOR" `Quick
      test_dpor_racy_fixtures;
    Alcotest.test_case "clean twins COMPLETE under DPOR" `Slow
      test_dpor_clean_twins_complete;
    Alcotest.test_case "DPOR finds the sampler-proof race" `Quick
      test_dpor_hidden_handoff;
    Alcotest.test_case "DPOR search is deterministic" `Quick
      test_dpor_deterministic;
    Alcotest.test_case "exit codes: 0/1/2 by verdict" `Quick
      test_dpor_exit_codes;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
      prop_dpor_superset;
    Alcotest.test_case "corpus: clean dir is clean" `Slow
      test_corpus_check_clean;
    Alcotest.test_case "corpus: exit is the max member exit" `Quick
      test_corpus_check_racy_exit;
    Alcotest.test_case "corpus: analyze mode" `Quick test_corpus_analyze;
    Alcotest.test_case "corpus: empty dir errors" `Quick
      test_corpus_empty_dir_errors;
    Alcotest.test_case "corpus: missing dir errors" `Quick
      test_corpus_missing_dir_errors;
    Alcotest.test_case "corpus: --no-static keeps PROVEN ids observable"
      `Slow test_corpus_no_static_subset;
    Alcotest.test_case "task outside any region owns its ICVs" `Quick
      test_orphan_task_own_frame;
    Alcotest.test_case "taskwait wakes only on its last child" `Quick
      test_taskwait_decisions;
    Alcotest.test_case "array shadows: last element, distinct arrays"
      `Quick test_array_shadows;
    Alcotest.test_case "walker trace pinned: executions, decisions, findings"
      `Quick test_walker_trace_pinned;
  ]
