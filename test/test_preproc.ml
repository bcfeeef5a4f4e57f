(* Preprocessor tests: the multi-pass replacement (paper Listing 5),
   outlining, the three argument groups, variable rewriting, loop
   lowering per schedule, reductions and the sync constructs.  Checks
   are structural — the synthesised source must parse and contain the
   expected runtime calls — with end-to-end value checks in
   test_interp.ml. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let count ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then scan (i + 1) (acc + 1)
    else scan (i + 1) acc
  in
  scan 0 0

let check_has name needle out =
  Alcotest.(check bool) (name ^ ": contains " ^ needle) true
    (contains ~needle out)

let check_not name needle out =
  Alcotest.(check bool) (name ^ ": free of " ^ needle) false
    (contains ~needle out)

let pp src = Preproc.Preprocess.run ~name:"t.zr" src

(* the output as parsed by the pipeline itself *)
let pp_checked src =
  Preproc.Synth.text (Preproc.Preprocess.run_parsed ~name:"t.zr" src)

let region_src = {|
fn f(n: i64, x: []f64) f64 {
    var s: f64 = 0.0;
    var c: f64 = 1.0;
    //$omp parallel shared(x) firstprivate(n) private(t) reduction(+: s)
    {
        var t = 0.0;
        t = x[0] + float_of(n);
        s += t;
    }
    return s + c;
}
|}

let test_outlining_basics () =
  let out = pp_checked region_src in
  check_has "fork" "__kmpc_fork_call(__omp_outlined_0" out;
  check_has "outlined fn" "fn __omp_outlined_0(fp: anytype, sh: anytype, red: anytype) void" out;
  check_has "firstprivate group" ".n = n" out;
  check_has "shared group passes a pointer" ".x = &x" out;
  check_has "reduction cell created" "var __omp_red_s = __omp_atomic_new(s);" out;
  check_has "reduction written back" "s = __omp_atomic_load(__omp_red_s);" out;
  check_has "fp unpacked under original name" "var n = fp.n;" out;
  check_has "shared unpacked as pointer" "var x__ptr = sh.x;" out;
  check_has "reduction identity, typed by the cell"
    "var s = __omp_red_identity(red.s, 1);" out;
  check_has "atomic combine on exit" "__omp_atomic_combine_add(red.s, s);" out;
  check_not "no pragma left" "//$omp" out

let test_shared_access_rewritten () =
  let out =
    pp_checked
      {|
fn f(a: f64) f64 {
    var total: f64 = 0.0;
    //$omp parallel shared(total) firstprivate(a)
    {
        //$omp critical
        {
            total = total + a;
        }
    }
    return total;
}
|}
  in
  check_has "shared scalar accessed through pointer" "total__ptr.* = total__ptr.* + a" out

let test_default_shared_capture () =
  (* a variable with no clause defaults to shared capture *)
  let out =
    pp_checked
      {|
fn f() f64 {
    var acc: f64 = 0.0;
    //$omp parallel
    {
        //$omp atomic
        acc += 1.0;
    }
    return acc;
}
|}
  in
  check_has "implicitly shared" ".acc = &acc" out;
  check_has "rewritten access" "acc__ptr.* += 1.0" out

let test_default_none_rejects_implicit () =
  Alcotest.(check bool) "default(none) with an unlisted variable errors"
    true
    (try
       ignore
         (pp
            {|
fn f() f64 {
    var acc: f64 = 0.0;
    //$omp parallel default(none)
    {
        acc += 1.0;
    }
    return acc;
}
|});
       false
     with Zr.Source.Error _ -> true)

let test_globals_not_captured () =
  let out =
    pp_checked
      {|
var g: f64 = 1.0;
fn f() f64 {
    //$omp parallel
    {
        g += 1.0;
    }
    return g;
}
|}
  in
  (* globals stay globals: no capture group mentions g *)
  check_not "global not in shared group" ".g = &g" out;
  check_has "global accessed directly" "g += 1.0" out

let loop_src sched = Printf.sprintf {|
fn f(n: i64) f64 {
    var s: f64 = 0.0;
    //$omp parallel reduction(+: s)
    {
        var i: i64 = 0;
        //$omp for %s
        while (i < n) : (i += 1) {
            s += 1.0;
        }
    }
    return s;
}
|} sched

let test_static_loop_lowering () =
  let out = pp_checked (loop_src "schedule(static)") in
  check_has "static init" "__kmpc_for_static_init(" out;
  check_has "static fini" "__kmpc_for_static_fini();" out;
  check_has "joining barrier" "__kmpc_barrier();" out;
  check_has "counter privatised" "__omp_iv" out

let test_dynamic_loop_lowering () =
  let out = pp_checked (loop_src "schedule(dynamic, 4)") in
  check_has "dispatch init" "__kmpc_dispatch_init_dynamic(" out;
  check_has "dispatch next" "__kmpc_dispatch_next(__omp_h)" out

let test_guided_runtime_chunked_lowering () =
  check_has "guided" "__kmpc_dispatch_init_guided("
    (pp_checked (loop_src "schedule(guided, 2)"));
  check_has "runtime" "__kmpc_dispatch_init_runtime("
    (pp_checked (loop_src "schedule(runtime)"));
  check_has "static chunked" "__kmpc_static_chunked_init("
    (pp_checked (loop_src "schedule(static, 8)"))

let test_nowait_suppresses_barrier () =
  let with_wait = pp_checked (loop_src "schedule(static)") in
  let without = pp_checked (loop_src "schedule(static) nowait") in
  Alcotest.(check int) "nowait removes exactly one barrier"
    (count ~needle:"__kmpc_barrier();" with_wait - 1)
    (count ~needle:"__kmpc_barrier();" without)

let test_loop_reduction_temporary () =
  let out = pp_checked (loop_src "schedule(static) reduction(+: s)") in
  (* loop-level reduction into the region-level private s *)
  check_has "temp accumulator, typed by s"
    "var __omp_red_s = __omp_red_identity(s, 1);" out;
  check_has "guarded combine" "__kmpc_critical(\"__omp_reduction\");" out;
  check_has "combine adds temp" "s = s + __omp_red_s;" out;
  check_has "body updates the temp" "__omp_red_s += 1.0;" out

let test_combined_parallel_for_split () =
  let out =
    pp_checked
      {|
fn f(n: i64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) schedule(dynamic, 2) num_threads(3)
    while (i < n) : (i += 1) {
        s += 1.0;
    }
    return s;
}
|}
  in
  check_has "fork with num_threads" ", 3);" out;
  check_has "loop went dynamic" "__kmpc_dispatch_init_dynamic(" out;
  check_has "region-level reduction" "__omp_atomic_combine_add(red.s, s);" out

let test_sync_lowering () =
  let out =
    pp_checked
      {|
fn f() void {
    //$omp parallel
    {
        //$omp barrier
        //$omp master
        { var a: i64 = 0; a += 1; }
        //$omp single nowait
        { var b: i64 = 0; b += 1; }
        //$omp critical(update)
        { var c: i64 = 0; c += 1; }
    }
}
|}
  in
  check_has "barrier" "__kmpc_barrier();" out;
  check_has "master guard" "if (__omp_get_thread_num() == 0)" out;
  check_has "single claim" "if (__kmpc_single())" out;
  check_has "single end" "__kmpc_end_single();" out;
  check_has "named critical" "__kmpc_critical(\"update\");" out;
  check_has "named critical end" "__kmpc_end_critical(\"update\");" out

let test_two_regions_get_distinct_functions () =
  let out =
    pp_checked
      {|
fn f() void {
    //$omp parallel
    { }
    //$omp parallel
    { }
}
|}
  in
  check_has "first" "__omp_outlined_0" out;
  check_has "second" "__omp_outlined_1" out

let test_nested_parallel_regions () =
  let out =
    pp_checked
      {|
fn f() f64 {
    var s: f64 = 0.0;
    //$omp parallel
    {
        //$omp parallel
        {
            //$omp atomic
            s += 1.0;
        }
    }
    return s;
}
|}
  in
  (* fixpoint: the inner region inside the outlined function is outlined
     by a later round *)
  check_has "outer" "__omp_outlined_0" out;
  check_has "inner" "__omp_outlined_1" out;
  check_not "no pragma left" "//$omp" out

let test_offset_adjustment_multiple_directives () =
  (* several directives in one function: replacements must not tread on
     each other (the paper's "adjust source offset") *)
  let out =
    pp_checked
      {|
fn f(n: i64) f64 {
    var s: f64 = 0.0;
    //$omp parallel reduction(+: s)
    {
        var i: i64 = 0;
        //$omp for nowait
        while (i < n) : (i += 1) { s += 1.0; }
        //$omp barrier
        var j: i64 = 0;
        //$omp for schedule(dynamic, 1)
        while (j < n) : (j += 1) { s += 2.0; }
    }
    return s;
}
|}
  in
  Alcotest.(check int) "both loops lowered" 1
    (count ~needle:"__kmpc_for_static_init(" out);
  Alcotest.(check int) "one dynamic" 1
    (count ~needle:"__kmpc_dispatch_init_dynamic(" out);
  check_not "no pragma left" "//$omp" out

let test_idempotent_on_plain_source () =
  let plain = "fn f(a: i64) i64 { return a * 2; }\n" in
  Alcotest.(check string) "no pragmas, no changes" plain (pp plain)

(* ---------------------------------------------------------------- *)
(* Parse once.  [Preprocess.run_parsed] must give the text of the
   string path — [Preprocess.fixpoint] over each pass's string entry
   point, which reparses at every round — and, as its AST, exactly
   [Parser.parse_string] of that text. *)

module P = Preproc

let string_path ~name source =
  let counter = ref 0 and task_counter = ref 0 in
  List.fold_left
    (fun src step ->
      let f =
        match step with
        | P.Preprocess.Loop_transforms -> fun s -> P.Transform.run ~name s
        | Split_combined -> P.Sync.split_combined ~name
        | Parallel_regions -> P.Outline.run ~name ~counter
        | Worksharing_loops -> P.Loops.run ~name
        | Tasking -> P.Tasking.run ~name ~counter:task_counter
        | Sync -> P.Sync.run_sync ~name
      in
      P.Preprocess.fixpoint f src)
    source P.Preprocess.steps

let check_parse_once (name, source) =
  let c = P.Preprocess.run_parsed ~name source in
  let text = P.Synth.text c in
  Alcotest.(check string) (name ^ ": text of the string path")
    (string_path ~name source) text;
  let ast, spans = Zr.Parser.parse_string ~name text in
  let same what eq = Alcotest.(check bool) (name ^ ": same " ^ what) true eq in
  same "source" (c.ast.Zr.Ast.source = ast.Zr.Ast.source);
  same "tokens" (c.ast.Zr.Ast.tokens = ast.Zr.Ast.tokens);
  same "nodes" (c.ast.Zr.Ast.nodes = ast.Zr.Ast.nodes);
  same "extra_data" (c.ast.Zr.Ast.extra_data = ast.Zr.Ast.extra_data);
  same "clause spans" (c.ast.Zr.Ast.clause_spans = ast.Zr.Ast.clause_spans);
  same "spans" (c.spans = spans)

let test_parse_once_corpus () =
  List.iter
    (fun ((name, source) as entry) ->
      (* fixtures that fail to preprocess (default(none) violations)
         must fail the same way on both paths *)
      match string_path ~name source with
      | exception Zr.Source.Error msg ->
          Alcotest.check_raises (name ^ ": same error") (Zr.Source.Error msg)
            (fun () -> ignore (P.Preprocess.run_parsed ~name source))
      | _ -> check_parse_once entry)
    (Lazy.force Test_tokenizer.corpus)

let prop_parse_once =
  QCheck2.Test.make ~name:"run_parsed = string path on random programs"
    ~count:40 ~long_factor:10 ~print:Fun.id
    Test_pipeline_prop.random_program_gen
    (fun src ->
      check_parse_once ("rand.zr", src);
      true)

(* ---------------------------------------------------------------- *)
(* Robustness: near-miss programs made by mutating the corpus either
   tokenise, parse, preprocess and analyse, or fail with a located
   [Source.Error]; any other exception is a bug. *)

type mutation =
  | Truncate of int
  | Delete of int * int
  | Duplicate of int * int
  | Replace of int * char
  | Insert of int * string
  | Insert_line of int * string  (* at the start of the line holding i *)

let inserts =
  [ "//$omp parallel for\n"; "//$omp for\n"; "//$omp parallel\n";
    "//$omp barrier\n"; "//$omp "; "{"; "}"; "("; ")"; ";"; "\n"; "var";
    "while"; "//"; "\""; "."; ".*"; "x" ]

(* Whole statements, inserted at line starts. *)
let statements =
  [ "//$omp parallel for\nwhile (i < n) : (i += 1) { s += 1; }\n";
    "//$omp for\nwhile (i < n) : (i += 1) { s += 1; }\n";
    "//$omp parallel\n{ s += 1; }\n"; "//$omp critical\n{ s += 1; }\n";
    "//$omp single\n{ s += 1; }\n"; "//$omp master\n{ s += 1; }\n";
    "//$omp atomic\ns += 1;\n"; "//$omp task\n{ s += 1; }\n";
    "//$omp taskwait\n"; "//$omp barrier\n";
    "//$omp parallel for unroll(2)\nwhile (i < n) : (i += 1) { s += 1; }\n";
    "//$omp sections\n{\n//$omp section\n{ s += 1; }\n}\n" ]

let mutate text m =
  let n = String.length text in
  let clamp i = max 0 (min n i) in
  let splice a b s = String.sub text 0 a ^ s ^ String.sub text b (n - b) in
  match m with
  | Truncate i -> String.sub text 0 (clamp i)
  | Delete (i, len) -> splice (clamp i) (clamp (i + len)) ""
  | Duplicate (i, len) ->
      let i = clamp i in
      splice i i (String.sub text i (clamp (i + len) - i))
  | Replace (i, c) ->
      if n = 0 then text else splice (i mod n) ((i mod n) + 1) (String.make 1 c)
  | Insert (i, s) -> splice (clamp i) (clamp i) s
  | Insert_line (i, s) ->
      let i =
        match String.rindex_from_opt text (clamp i - 1) '\n' with
        | Some j -> j + 1
        | None -> 0
      in
      splice i i s

let mutant_gen =
  let open QCheck2.Gen in
  let mutation n =
    let* i = int_range 0 n in
    let* len = int_range 1 40 in
    oneof
      [ return (Truncate i); return (Delete (i, len));
        return (Duplicate (i, len)); map (fun c -> Replace (i, c)) char;
        map (fun s -> Insert (i, s)) (oneofl inserts);
        map (fun s -> Insert_line (i, s)) (oneofl (inserts @ statements)) ]
  in
  let* k = nat in
  let corpus = Lazy.force Test_tokenizer.corpus in
  let name, text = List.nth corpus (k mod List.length corpus) in
  let n = String.length text in
  let* ms =
    oneof
      [ list_size (int_range 1 3) (mutation n);
        map2
          (fun i s -> [ Insert_line (i, s) ])
          (int_range 0 n) (oneofl statements) ]
  in
  return (name, List.fold_left mutate text ms)

let succeeds_or_located f =
  match f () with _ -> () | exception Zr.Source.Error _ -> ()

let prop_mutants =
  QCheck2.Test.make
    ~name:"mutated fixtures go through the frontend or raise Source.Error"
    ~count:1500 ~long_factor:20
    ~print:(fun (name, text) -> name ^ ":\n" ^ text)
    mutant_gen
    (fun (name, text) ->
      succeeds_or_located (fun () ->
          Zr.Tokenizer.tokenize (Zr.Source.of_string ~name text));
      succeeds_or_located (fun () -> Zr.Parser.parse_string ~name text);
      succeeds_or_located (fun () -> P.Preprocess.run_parsed ~name text);
      succeeds_or_located (fun () -> Analyze.run ~name text);
      true)

let suite =
  [ Alcotest.test_case "outlining basics" `Quick test_outlining_basics;
    Alcotest.test_case "shared accesses rewritten" `Quick
      test_shared_access_rewritten;
    Alcotest.test_case "implicit capture defaults to shared" `Quick
      test_default_shared_capture;
    Alcotest.test_case "default(none) enforcement" `Quick
      test_default_none_rejects_implicit;
    Alcotest.test_case "globals not captured" `Quick test_globals_not_captured;
    Alcotest.test_case "static loop lowering" `Quick test_static_loop_lowering;
    Alcotest.test_case "dynamic loop lowering" `Quick
      test_dynamic_loop_lowering;
    Alcotest.test_case "guided/runtime/chunked lowering" `Quick
      test_guided_runtime_chunked_lowering;
    Alcotest.test_case "nowait suppresses the barrier" `Quick
      test_nowait_suppresses_barrier;
    Alcotest.test_case "loop reduction temporary" `Quick
      test_loop_reduction_temporary;
    Alcotest.test_case "combined construct split" `Quick
      test_combined_parallel_for_split;
    Alcotest.test_case "sync constructs" `Quick test_sync_lowering;
    Alcotest.test_case "distinct outlined names" `Quick
      test_two_regions_get_distinct_functions;
    Alcotest.test_case "nested parallel regions" `Quick
      test_nested_parallel_regions;
    Alcotest.test_case "offset adjustment across directives" `Quick
      test_offset_adjustment_multiple_directives;
    Alcotest.test_case "idempotent without pragmas" `Quick
      test_idempotent_on_plain_source;
    Alcotest.test_case "one parse per text on the corpus" `Quick
      test_parse_once_corpus;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_parse_once;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_mutants;
  ]
