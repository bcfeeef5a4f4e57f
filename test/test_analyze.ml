(* The [zrc analyze] static analyser, end to end: autoscoping must
   suggest the exact repair on each racy fixture (matching the clean
   twin's clauses), the clean fixtures and the NPB Zr kernels must come
   back without findings, [--fix] must converge to a clean fixpoint that
   the dynamic checker also accepts, and finding ids must line up across
   backends so {!Report.merge} suppresses statically-proven duplicates.
   A differential QCheck property ties the two backends together: every
   statically PROVEN race must be dynamically observable, and a
   statically CLEAN program must produce zero dynamic findings. *)

module Checker = Zigomp.Checker
module Report = Checker.Report
module Analyzer = Zigomp.Analyzer

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let examples_dir =
  (* the test binary runs in _build/default/test *)
  Filename.concat (Filename.concat ".." "examples") "zr"

let analyze_file name =
  let path = Filename.concat examples_dir name in
  Zigomp.analyze ~name (read_file path)

(* A small DPOR budget: seven executions at four threads. *)
let config () =
  { Checker.nthreads = 4; lint = true;
    exploration = Checker.Dpor { max_execs = 7; preempt_bound = 2 } }

let lines_of (r : Report.t) =
  List.map (fun (f : Report.finding) -> f.Report.line) r.Report.findings

let ids_of (r : Report.t) =
  List.map (fun (f : Report.finding) -> f.Report.id) r.Report.findings

let contains = Astring_contains.contains

(* ---- golden autoscoping: racy fixtures --------------------------- *)

(* Each racy fixture has exactly one defect; the suggested clause must
   be the one its clean twin declares. *)
let racy_expectations =
  [ ("racy/missing_reduction.zr", "race|s", "suggest reduction(+: s)");
    ("racy/shared_counter.zr", "race|counter",
     "suggest //$omp atomic before the update");
    ("racy/nowait_useafter.zr", "race|q", "suggest removing nowait");
    ("racy/task_no_taskwait.zr", "race|r",
     "suggest //$omp taskwait before the dependent statement") ]

let test_racy_suggestions () =
  List.iter
    (fun (name, id, suggestion) ->
      let r = analyze_file name in
      Alcotest.(check int) (name ^ ": one finding") 1
        (List.length r.Analyzer.report.Report.findings);
      Alcotest.(check int) (name ^ ": exit code") 2
        (Report.exit_code r.Analyzer.report);
      let f = List.hd r.Analyzer.report.Report.findings in
      Alcotest.(check string) (name ^ ": id") id f.Report.id;
      Alcotest.(check bool) (name ^ ": verdict PROVEN") true
        (f.Report.verdict = Some Report.Proven);
      Alcotest.(check bool) (name ^ ": span for caret") true
        (f.Report.span <> None);
      Alcotest.(check bool)
        (name ^ ": suggests " ^ suggestion ^ " in " ^ f.Report.line)
        true
        (contains f.Report.line suggestion))
    racy_expectations

(* ---- clean programs, kernels ------------------------------------- *)

let test_clean_programs () =
  List.iter
    (fun name ->
      let r = analyze_file name in
      Alcotest.(check bool) (name ^ ": fully clean") true
        (Analyzer.clean r);
      Alcotest.(check int) (name ^ ": exit code") 0
        (Report.exit_code r.Analyzer.report))
    [ "clean/reduction.zr"; "clean/atomic_counter.zr";
      "clean/nowait_barrier.zr"; "clean/task_taskwait.zr";
      "clean/sections_atomic.zr"; "clean/task_capture_fp.zr";
      "analyze/taskloop_disjoint.zr"; "histogram.zr"; "jacobi.zr";
      "mandelbrot.zr" ]

(* The NPB kernels are the paper's workloads: the analyser must not
   cry wolf on correct production-shaped code.  CG and EP are fully
   clean; IS keeps a few MAY advisories (opaque subscripts through the
   bucket indirection) but zero verdict-affecting findings. *)
let test_kernels_no_findings () =
  List.iter
    (fun (name, src) ->
      let r = Zigomp.analyze ~name src in
      Alcotest.(check (list string)) (name ^ ": no findings") []
        (lines_of r.Analyzer.report))
    [ ("conj_grad.zr", Zigomp.Harness.Zr_cg.conj_grad_src);
      ("ep.zr", Zigomp.Harness.Zr_ep.src);
      ("is.zr", Zigomp.Harness.Zr_is.src) ];
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) (name ^ ": no MAY advisories either") true
        (Analyzer.clean (Zigomp.analyze ~name src)))
    [ ("conj_grad.zr", Zigomp.Harness.Zr_cg.conj_grad_src);
      ("ep.zr", Zigomp.Harness.Zr_ep.src) ]

(* ---- SIV dependence test ----------------------------------------- *)

let test_siv_carried () =
  let r = analyze_file "analyze/siv_carried.zr" in
  let f =
    match r.Analyzer.report.Report.findings with
    | [ f ] -> f
    | fs ->
        Alcotest.failf "expected one finding, got %d" (List.length fs)
  in
  Alcotest.(check string) "dep shares the race id space" "race|a"
    f.Report.id;
  Alcotest.(check bool) "distance 1 in direction vector" true
    (contains f.Report.line "distance 1, direction (>)");
  Alcotest.(check bool) "no clause can repair it" true
    (contains f.Report.line "restructure the loop");
  (* a carried dependence has no clause fix: --fix must refuse to
     touch the program rather than paper over it *)
  let fixed, r', rounds =
    Zigomp.analyze_fix ~name:"siv_carried.zr"
      (read_file (Filename.concat examples_dir "analyze/siv_carried.zr"))
  in
  Alcotest.(check int) "no fix rounds" 0 rounds;
  Alcotest.(check bool) "still reported" false
    (Report.clean r'.Analyzer.report);
  Alcotest.(check bool) "source untouched" true
    (String.equal fixed
       (read_file (Filename.concat examples_dir "analyze/siv_carried.zr")))

(* ---- private read-before-write ----------------------------------- *)

let test_private_read_first () =
  let r = analyze_file "analyze/private_read_first.zr" in
  Alcotest.(check bool) "suggests firstprivate(t)" true
    (List.exists
       (fun l -> contains l "suggest firstprivate(t)")
       (lines_of r.Analyzer.report));
  let _, r', rounds =
    Zigomp.analyze_fix ~name:"private_read_first.zr"
      (read_file
         (Filename.concat examples_dir "analyze/private_read_first.zr"))
  in
  Alcotest.(check int) "fixed in one round" 1 rounds;
  Alcotest.(check bool) "clean after fix" true (Analyzer.clean r')

(* ---- --fix: fixpoint, idempotence, dynamic agreement -------------- *)

let test_fix_fixpoint () =
  List.iter
    (fun (name, _, _) ->
      let path = Filename.concat examples_dir name in
      let fixed, r, rounds = Zigomp.analyze_fix ~name (read_file path) in
      Alcotest.(check int) (name ^ ": one rewrite round") 1 rounds;
      Alcotest.(check bool) (name ^ ": clean after fix") true
        (Analyzer.clean r);
      (* idempotence: fixing the fixed program changes nothing *)
      let fixed', _, rounds' = Zigomp.analyze_fix ~name fixed in
      Alcotest.(check int) (name ^ ": no further rounds") 0 rounds';
      Alcotest.(check bool) (name ^ ": fix is a fixpoint") true
        (String.equal fixed fixed');
      (* the dynamic checker agrees the fixed program is race-free *)
      let dyn = Zigomp.check ~name ~config:(config ()) fixed in
      Alcotest.(check (list string)) (name ^ ": dynamically clean") []
        (lines_of dyn))
    racy_expectations

(* ---- tasking fixtures: sections and capture-by-reference ---------- *)

(* Fixture bodies start at [fn main]; the leading comment differs
   between a racy fixture and its clean twin, so twin-equality checks
   compare from there. *)
let from_fn src =
  let needle = "fn main" in
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length src then src
    else if String.sub src i nl = needle then
      String.sub src i (String.length src - i)
    else find (i + 1)
  in
  find 0

let one_proven name (r : Analyzer.result) =
  match r.Analyzer.report.Report.findings with
  | [ f ] ->
      Alcotest.(check bool) (name ^ ": verdict PROVEN") true
        (f.Report.verdict = Some Report.Proven);
      f
  | fs -> Alcotest.failf "%s: expected one finding, got %d" name
            (List.length fs)

let fix_to_twin ~name ~twin =
  let src = read_file (Filename.concat examples_dir name) in
  let fixed, r', rounds = Zigomp.analyze_fix ~name src in
  Alcotest.(check int) (name ^ ": one fix round") 1 rounds;
  Alcotest.(check bool) (name ^ ": clean after fix") true
    (Analyzer.clean r');
  Alcotest.(check string) (name ^ ": fix reproduces the clean twin")
    (from_fn (read_file (Filename.concat examples_dir twin)))
    (from_fn fixed)

let test_sections_scalar () =
  let r = analyze_file "analyze/sections_scalar.zr" in
  let f = one_proven "sections_scalar" r in
  Alcotest.(check string) "id" "race|w" f.Report.id;
  Alcotest.(check bool) "suggests atomic" true
    (contains f.Report.line "suggest //$omp atomic");
  fix_to_twin ~name:"analyze/sections_scalar.zr"
    ~twin:"clean/sections_atomic.zr"

let test_task_capture_loop () =
  let r = analyze_file "analyze/task_capture_loop.zr" in
  let f = one_proven "task_capture_loop" r in
  Alcotest.(check string) "id" "race|cap" f.Report.id;
  Alcotest.(check bool) "suggests firstprivate capture" true
    (contains f.Report.line "suggest firstprivate(cap)");
  fix_to_twin ~name:"analyze/task_capture_loop.zr"
    ~twin:"clean/task_capture_fp.zr"

let test_task_no_taskwait_twin () =
  fix_to_twin ~name:"racy/task_no_taskwait.zr"
    ~twin:"clean/task_taskwait.zr"

(* ---- cross-backend id stability and merge ------------------------ *)

let test_merge_suppresses_proven () =
  let name = "racy/missing_reduction.zr" in
  let source = read_file (Filename.concat examples_dir name) in
  let static = (Zigomp.analyze ~name source).Analyzer.report in
  let dynamic = Zigomp.check ~name ~config:(config ()) source in
  (* both backends name the same defect *)
  Alcotest.(check bool) "static proves race|s" true
    (List.mem "race|s" (ids_of static));
  Alcotest.(check bool) "dynamic observes race|s" true
    (List.mem "race|s" (ids_of dynamic));
  let merged = Report.merge ~static ~dynamic in
  (* every dynamic duplicate of a proven finding is suppressed *)
  Alcotest.(check int) "merged = static findings only"
    (List.length static.Report.findings)
    (List.length merged.Report.findings);
  Alcotest.(check bool) "merged still fails" false (Report.clean merged);
  Alcotest.(check bool) "merged keeps the static caret source" true
    (merged.Report.source <> None)

let default_none_src = {|
fn main() f64 {
    var n: i64 = 4;
    var t: f64 = 2.0;
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for default(none) reduction(+: s) firstprivate(n)
    while (i < n) : (i += 1) {
        s += t;
    }
    return s;
}
|}

(* default(none) is checked twice — statically here, and by the
   preprocessor when the dynamic checker compiles the program.  The two
   findings must share an id so the merged report shows one defect. *)
let test_default_none_ids_match () =
  let is_dn (f : Report.finding) =
    String.length f.Report.id >= 17
    && String.sub f.Report.id 0 17 = "lint|default-none"
  in
  let static = (Zigomp.analyze ~name:"dn.zr" default_none_src) in
  let dynamic = Zigomp.check ~name:"dn.zr" ~config:(config ()) default_none_src in
  let sids =
    List.filter_map
      (fun (f : Report.finding) -> if is_dn f then Some f.Report.id else None)
      static.Analyzer.report.Report.findings
  in
  let dids =
    List.filter_map
      (fun (f : Report.finding) -> if is_dn f then Some f.Report.id else None)
      dynamic.Report.findings
  in
  Alcotest.(check bool) "static flags default(none)" true (sids <> []);
  Alcotest.(check (list string)) "same ids on both backends"
    (List.sort_uniq compare sids)
    (List.sort_uniq compare dids);
  (* --fix appends the missing shared() clause (the counter is part of
     the preprocessor's default(none) set, so it is listed too) *)
  let fixed, r', _ = Zigomp.analyze_fix ~name:"dn.zr" default_none_src in
  Alcotest.(check bool) "fix adds shared(i, t)" true
    (contains fixed "shared(i, t)");
  Alcotest.(check bool) "clean after fix" true (Analyzer.clean r')

(* ---- JSON schema -------------------------------------------------- *)

let test_json () =
  let racy = analyze_file "racy/missing_reduction.zr" in
  let j = Report.to_json ~may:racy.Analyzer.may racy.Analyzer.report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (contains j needle))
    [ {|"schema": "zigomp-report/1"|}; {|"backend": "analyze"|};
      {|"clean": false|}; {|"verdict": "PROVEN"|}; {|"id": "race|s"|};
      {|"position"|}; {|"may": []|} ];
  let clean = analyze_file "clean/reduction.zr" in
  Alcotest.(check bool) "clean json" true
    (contains
       (Report.to_json ~may:clean.Analyzer.may clean.Analyzer.report)
       {|"clean": true|})

(* ---- differential property: static vs dynamic --------------------- *)

(* Small generated region programs over three body shapes and three
   synchronisation regimes.  Obligations, per program:
   - every statically PROVEN race id must appear among the dynamic
     checker's findings (PROVEN means observable);
   - a statically CLEAN program (no findings, no MAY advisories) must
     produce zero dynamic findings. *)

type body = SumArr | IncS | ArrInc
type sync = NoSync | Atomic | Reduction

let gen_program ~body ~sync ~nowait ~reader =
  let touches_s = body <> ArrInc in
  let shared =
    [ "a" ]
    @ (if touches_s && sync <> Reduction then [ "s" ] else [])
    @ (if reader then [ "out" ] else [])
  in
  let atomic = if sync = Atomic then "            //$omp atomic\n" else "" in
  let body_text =
    match body with
    | SumArr -> atomic ^ "            s = s + a[i];"
    | IncS -> atomic ^ "            s = s + 1.0;"
    | ArrInc -> "            a[i] = a[i] + 1.0;"
  in
  Printf.sprintf
    {|
fn main() f64 {
    var n: i64 = 8;
    var a = alloc_f64(n);
    var j: i64 = 0;
    while (j < n) : (j += 1) {
        a[j] = 1.0;
    }
    var s: f64 = 0.0;
    var out: f64 = 0.0;
    //$omp parallel shared(%s) firstprivate(n)%s
    {
        var i: i64 = 0;
        //$omp for%s
        while (i < n) : (i += 1) {
%s
        }
%s    }
    return s + out;
}
|}
    (String.concat ", " shared)
    (if sync = Reduction then " reduction(+: s)" else "")
    (if nowait then " nowait" else "")
    body_text
    (if reader then
       "        //$omp single\n        {\n            out = a[0];\n\
       \        }\n"
     else "")

let case_gen =
  QCheck2.Gen.(
    let* body = oneofl [ SumArr; IncS; ArrInc ] in
    let* sync =
      if body = ArrInc then return NoSync
      else oneofl [ NoSync; Atomic; Reduction ]
    in
    let* nowait = bool in
    let* reader = bool in
    return (body, sync, nowait, reader))

let print_case (body, sync, nowait, reader) =
  gen_program ~body ~sync ~nowait ~reader

let prop_static_vs_dynamic =
  QCheck2.Test.make ~name:"static PROVEN => dynamic finds it; CLEAN => quiet"
    ~count:24 ~print:print_case case_gen
    (fun (body, sync, nowait, reader) ->
      let src = gen_program ~body ~sync ~nowait ~reader in
      let st = Zigomp.analyze ~name:"diff.zr" src in
      let dyn =
        Zigomp.check ~name:"diff.zr" ~config:(config ()) src
      in
      let dyn_ids = ids_of dyn in
      let proven_observed =
        List.for_all
          (fun (f : Report.finding) ->
            f.Report.verdict <> Some Report.Proven
            || (f.Report.kind <> Report.Race && f.Report.kind <> Report.Dep)
            || List.mem f.Report.id dyn_ids)
          st.Analyzer.report.Report.findings
      in
      let clean_agrees =
        (not (Analyzer.clean st)) || Report.clean dyn
      in
      proven_observed && clean_agrees)

(* ---- differential property over tasking constructs --------------- *)

(* Reuses {!Test_task_diff}'s generator: its segments are race-free by
   construction, so the static task graph must come back fully clean
   (no findings, no MAY) and DPOR must agree.  The racy family below
   flips the obligation: each member seeds one tasking race the
   analyser must PROVE with an id DPOR also reports. *)

let dpor_config ?(max_execs = 64) () =
  { Checker.nthreads = 2; lint = true;
    exploration = Checker.Dpor { max_execs; preempt_bound = 2 } }

let check_task_fn src =
  Checker.check_run ~name:"taskdiff.zr" ~config:(dpor_config ())
    ~source:src
    ~entry:(fun prog ->
      ignore
        (Interp.call prog "f"
           [ Interp.Value.VInt Test_task_diff.cells;
             Interp.Value.VIntArr (Array.make Test_task_diff.cells 0) ]))
    ()

(* The render always declares shared(x, total); a drawn segment list
   may reference only one of them, and an unused clause is a MAY
   advisory [Analyzer.clean] rejects.  Appending one race-free segment
   per shared name keeps the clean obligation strict. *)
let full_segs segs =
  segs @ [ Test_task_diff.Tasks (1, 1); Test_task_diff.Broadcast 1 ]

let prop_tasking_clean_quiet =
  QCheck2.Test.make
    ~name:"tasking: generated race-free programs are static CLEAN and \
           DPOR quiet"
    ~count:10
    ~print:(fun (segs, _) -> Test_task_diff.render (full_segs segs))
    Test_task_diff.case_gen
    (fun (segs, _) ->
      let src = Test_task_diff.render (full_segs segs) in
      let st = Zigomp.analyze ~name:"taskdiff.zr" src in
      Analyzer.clean st && Report.clean (check_task_fn src))

type racy_task = RTaskCont | RSections | RTwoTasks

let racy_task_src ~shape ~c =
  match shape with
  | RTaskCont ->
      Printf.sprintf
        {|fn main() i64 {
    var r: i64 = 0;
    //$omp parallel num_threads(2)
    {
        //$omp single nowait
        {
            //$omp task shared(r)
            { r = r + %d; }
            r = r + 1;
        }
    }
    return r;
}
|}
        c
  | RSections ->
      Printf.sprintf
        {|fn main() i64 {
    var w: i64 = 0;
    //$omp parallel num_threads(2)
    {
        //$omp sections
        {
            //$omp section
            { w = w + 1; }
            //$omp section
            { w = w + %d; }
        }
    }
    return w;
}
|}
        c
  | RTwoTasks ->
      Printf.sprintf
        {|fn main() i64 {
    var r: i64 = 0;
    //$omp parallel num_threads(2)
    {
        //$omp single
        {
            //$omp task shared(r)
            { r = r + 1; }
            //$omp task shared(r)
            { r = r + %d; }
            //$omp taskwait
        }
    }
    return r;
}
|}
        c

let prop_tasking_proven_observed =
  QCheck2.Test.make
    ~name:"tasking: static PROVEN races are DPOR-observable"
    ~count:9
    ~print:(fun (shape, c) -> racy_task_src ~shape ~c)
    QCheck2.Gen.(
      pair (oneofl [ RTaskCont; RSections; RTwoTasks ]) (int_range 2 9))
    (fun (shape, c) ->
      let src = racy_task_src ~shape ~c in
      let st = Zigomp.analyze ~name:"rtask.zr" src in
      let proven =
        List.filter
          (fun (f : Report.finding) ->
            f.Report.verdict = Some Report.Proven
            && (f.Report.kind = Report.Race || f.Report.kind = Report.Dep))
          st.Analyzer.report.Report.findings
      in
      proven <> []
      &&
      let dyn = Zigomp.check ~name:"rtask.zr" ~config:(dpor_config ()) src in
      let dyn_ids = ids_of dyn in
      List.for_all
        (fun (f : Report.finding) -> List.mem f.Report.id dyn_ids)
        proven)

let suite =
  [ Alcotest.test_case "racy fixtures: exact clause suggestions" `Quick
      test_racy_suggestions;
    Alcotest.test_case "clean fixtures and examples: no findings" `Quick
      test_clean_programs;
    Alcotest.test_case "NPB kernels: no findings" `Quick
      test_kernels_no_findings;
    Alcotest.test_case "SIV test proves carried dependence" `Quick
      test_siv_carried;
    Alcotest.test_case "private read-before-write -> firstprivate" `Quick
      test_private_read_first;
    Alcotest.test_case "sections over one scalar: proven + atomic fix"
      `Quick test_sections_scalar;
    Alcotest.test_case "task capture of mutated counter -> firstprivate"
      `Quick test_task_capture_loop;
    Alcotest.test_case "--fix inserts the taskwait of the clean twin"
      `Quick test_task_no_taskwait_twin;
    Alcotest.test_case "--fix reaches a clean, idempotent fixpoint" `Slow
      test_fix_fixpoint;
    Alcotest.test_case "merge suppresses statically-proven duplicates"
      `Quick test_merge_suppresses_proven;
    Alcotest.test_case "default(none): one id across backends" `Quick
      test_default_none_ids_match;
    Alcotest.test_case "json report schema" `Quick test_json;
    QCheck_alcotest.to_alcotest prop_static_vs_dynamic;
    QCheck_alcotest.to_alcotest prop_tasking_clean_quiet;
    QCheck_alcotest.to_alcotest prop_tasking_proven_observed;
  ]
