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

(* Literals the parser rejects, each with its located message: every
   entry point reports the same error — [run] on each tier (compile
   raises before anything runs), [check] and [analyze] as an error
   finding, [preprocess] by raising. *)
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
      "lit.zr:2:11: string literal \"\\q\" has an invalid escape sequence" ) ]

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

let suite =
  [ Alcotest.test_case "documentation example" `Quick test_doc_example;
    Alcotest.test_case "located errors: run on each tier, check, analyze, \
                        preprocess" `Quick test_located_errors;
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
