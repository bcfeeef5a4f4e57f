(* Tests of the public Zigomp API — the surface a downstream user sees,
   including the exact example from the library's documentation. *)

module V = Zigomp.Value

let test_doc_example () =
  (* the quick-start example from zigomp.ml's documentation *)
  let program = {|
fn dot(n: i64, x: []f64, y: []f64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) shared(x, y)
    while (i < n) : (i += 1) {
        s += x[i] * y[i];
    }
    return s;
}
|} in
  Zigomp.set_num_threads 4;
  let compiled = Zigomp.compile ~name:"dot.zr" program in
  let result =
    Zigomp.call compiled "dot"
      [ V.VInt 3; V.VFloatArr [| 1.; 2.; 3. |];
        V.VFloatArr [| 4.; 5.; 6. |] ]
  in
  Alcotest.(check bool) "documented result" true (result = V.VFloat 32.)

let test_preprocess_entry_point () =
  let out =
    Zigomp.preprocess ~name:"p.zr"
      "fn f() void {\n//$omp parallel\n{ }\n}"
  in
  Alcotest.(check bool) "lowered to a fork" true
    (Astring_contains.contains out "__kmpc_fork_call")

let test_preprocessed_source_accessor () =
  let p =
    Zigomp.compile ~name:"q.zr" "fn f() void {\n//$omp barrier\n}"
  in
  Alcotest.(check bool) "synthesised source retained" true
    (Astring_contains.contains (Zigomp.preprocessed_source p)
       "__kmpc_barrier")

let test_run_main () =
  let p = Zigomp.compile ~name:"m.zr" "fn main() i64 { return 7; }" in
  Alcotest.(check bool) "main result" true (Zigomp.run_main p = V.VInt 7)

let test_compile_plain_keeps_pragmas () =
  let p =
    Zigomp.compile_plain ~name:"r.zr"
      "fn f() void {\n//$omp barrier\n}"
  in
  Alcotest.(check bool) "pragma survives plain compilation" true
    (Astring_contains.contains (Zigomp.preprocessed_source p) "//$omp")

let test_max_threads_roundtrip () =
  let saved = Zigomp.get_max_threads () in
  Zigomp.set_num_threads 3;
  Alcotest.(check int) "set/get" 3 (Zigomp.get_max_threads ());
  Zigomp.set_num_threads saved

(* Literals the parser rejects and worksharing loops the lowering
   rejects, each with its located message: every entry point reports
   the same error — [run] on each tier (compile raises before anything
   runs), [check] and [analyze] as an error finding, [preprocess] by
   raising. *)
let located_errors =
  [ ( "integer literal out of range",
      "fn main() i64 {\n    var x: i64 = 99999999999999999999;\n    return x;\n}\n",
      "lit.zr:2:18: integer literal 99999999999999999999 does not fit in i64"
    );
    ( "integer literal with separators out of range",
      "fn main() i64 {\n    return 1 + 4_611_686_018_427_387_904;\n}\n",
      "lit.zr:2:16: integer literal 4_611_686_018_427_387_904 does not fit \
       in i64" );
    ( "invalid escape in a string literal",
      "fn main() i64 {\n    print(\"\\q\");\n    return 0;\n}\n",
      "lit.zr:2:11: string literal \"\\q\" has an invalid escape sequence" );
    ( "worksharing loop under !=",
      "fn main() i64 {\n    var i: i64 = 0;\n    //$omp parallel for\n\
      \    while (i != 4) : (i += 1) { }\n    return i;\n}\n",
      "lit.zr:3:5: worksharing loop: unsupported comparison operator" );
    ( "non-rectangular collapse(2)",
      "fn main() i64 {\n    var i: i64 = 0;\n    var j: i64 = 0;\n\
      \    var s: i64 = 0;\n\
      \    //$omp parallel for collapse(2) reduction(+: s)\n\
      \    while (i < 4) : (i += 1) {\n        j = 0;\n\
      \        while (j < i) : (j += 1) { s += j; }\n    }\n\
      \    return s;\n}\n",
      "lit.zr:5:5: worksharing loop: the loop nest is not rectangular (the \
       inner bounds depend on the outer counter)" ) ]

let test_located_errors () =
  List.iter
    (fun (what, src, want) ->
      let raised f =
        match f () with
        | _ -> "no error"
        | exception Zr.Source.Error msg -> msg
      in
      List.iter
        (fun (tier, backend) ->
          Alcotest.(check string) (what ^ ": run, " ^ tier) want
            (raised (fun () ->
                 Zigomp.run_main (Zigomp.compile ~backend ~name:"lit.zr" src))))
        [ ("ast", `Ast); ("compiled", `Compiled); ("bytecode", `Bytecode) ];
      let errors (r : Zigomp.Checker.Report.t) =
        List.map
          (fun (f : Zigomp.Checker.Report.finding) -> f.Zigomp.Checker.Report.line)
          r.Zigomp.Checker.Report.findings
      in
      Alcotest.(check (list string)) (what ^ ": check") [ "error :: " ^ want ]
        (errors (Zigomp.check ~name:"lit.zr" src));
      Alcotest.(check (list string)) (what ^ ": analyze") [ "error :: " ^ want ]
        (errors (Zigomp.analyze ~name:"lit.zr" src).Zigomp.Analyzer.report);
      Alcotest.(check string) (what ^ ": preprocess") want
        (raised (fun () -> Zigomp.preprocess ~name:"lit.zr" src)))
    located_errors

(* An [i64] reduction keeps integer arithmetic: each thread's private
   copy starts at the identity of the variable's own type (0, 1, and the
   largest or smallest int for min and max), so no partial result goes
   through a double.  Each case's per-thread partial needs more than
   53 bits, or, for min and max, a thread has no iteration (4 threads);
   the program faults on a wrong total, so [check] would report an
   error in any execution that computes one. *)
let i64_reductions =
  let big = 9007199254740993 (* 2^53 + 1, no double holds it *) in
  (* 3^136, wrapping as Zr's i64 does; each thread's 3^34 needs 55 bits *)
  let pow3 = List.fold_left (fun a _ -> a * 3) 1 (List.init 136 Fun.id) in
  [ ("+", "0", Printf.sprintf "acc += %d;" big, 8, 8 * big);
    ("*", "1", "acc *= 3;", 136, pow3);
    ( "min", Printf.sprintf "%d" (big + 8),
      Printf.sprintf "if (%d - i * 2 < acc) { acc = %d - i * 2; }" (big + 2)
        (big + 2),
      2, big );
    ( "max", "0",
      Printf.sprintf "if (%d + i * 2 > acc) { acc = %d + i * 2; }" big big,
      3, big + 4 ) ]

let i64_reduction_src ~form (op, init, update, n, want) =
  let loop clause =
    Printf.sprintf
      "%s\n    while (i < %d) : (i += 1) {\n        %s\n    }" clause n
      update
  in
  let body =
    match form with
    | `Parallel_for ->
        Printf.sprintf "    var acc: i64 = %s;\n    var i: i64 = 0;\n    %s"
          init
          (loop (Printf.sprintf "//$omp parallel for reduction(%s: acc)" op))
    | `For_in_region ->
        Printf.sprintf
          "    var acc: i64 = %s;\n    //$omp parallel shared(acc)\n    {\n\
          \    var i: i64 = 0;\n    %s\n    }"
          init
          (loop (Printf.sprintf "//$omp for reduction(%s: acc)" op))
  in
  Printf.sprintf
    "fn main() i64 {\n%s\n    if (acc != %d) { var bad = alloc_i64(0); \
     bad[0] = acc; }\n    return acc;\n}\n"
    body want

(* The same through a global, whose private copy is typed through its
   address: reading the global itself there would race with teammates'
   combines under [check]. *)
let global_reduction_src =
  "var g: i64 = 0;\n\
   fn main() i64 {\n\
  \    //$omp parallel\n\
  \    {\n\
  \        var i: i64 = 0;\n\
  \        //$omp for reduction(+: g)\n\
  \        while (i < 8) : (i += 1) { g += 9007199254740993; }\n\
  \    }\n\
  \    if (g != 72057594037927944) { var bad = alloc_i64(0); bad[0] = g; }\n\
  \    return g;\n\
   }\n"

let test_i64_reductions () =
  Zigomp.set_num_threads 4;
  let cases =
    ("global +", global_reduction_src, 72057594037927944)
    :: List.concat_map
         (fun ((op, _, _, _, want) as r) ->
           [ (op ^ " (parallel for)", i64_reduction_src ~form:`Parallel_for r,
              want);
             (op ^ " (for in a region)",
              i64_reduction_src ~form:`For_in_region r, want) ])
         i64_reductions
  in
  List.iter
    (fun (what, src, want) ->
      List.iter
        (fun (tier, backend) ->
          Alcotest.(check bool) (what ^ ", " ^ tier) true
            (Zigomp.run_main (Zigomp.compile ~backend ~name:"red.zr" src)
             = V.VInt want))
        [ ("ast", `Ast); ("compiled", `Compiled); ("bytecode", `Bytecode) ];
      let r = Zigomp.check ~name:"red.zr" src in
      Alcotest.(check (list string)) (what ^ ", check") []
        (List.map
           (fun (f : Zigomp.Checker.Report.finding) ->
             f.Zigomp.Checker.Report.line)
           r.Zigomp.Checker.Report.findings))
    cases

let suite =
  [ Alcotest.test_case "documentation example" `Quick test_doc_example;
    Alcotest.test_case "located errors: run on each tier, check, analyze, \
                        preprocess" `Quick test_located_errors;
    Alcotest.test_case "i64 reductions are exact on each tier and in check"
      `Quick test_i64_reductions;
    Alcotest.test_case "preprocess entry point" `Quick
      test_preprocess_entry_point;
    Alcotest.test_case "preprocessed source accessor" `Quick
      test_preprocessed_source_accessor;
    Alcotest.test_case "run_main" `Quick test_run_main;
    Alcotest.test_case "compile_plain keeps pragmas" `Quick
      test_compile_plain_keeps_pragmas;
    Alcotest.test_case "max threads round trip" `Quick
      test_max_threads_roundtrip;
  ]
