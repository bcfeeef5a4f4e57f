(* Tokeniser tests: ordinary Zr tokens, comments, and the paper's
   pragma-as-special-comment scheme (sentinel token + regular tokens +
   end-of-pragma marker). *)

open Zr

let tags text =
  let src = Source.of_string text in
  Tokenizer.tokenize src
  |> Array.to_list
  |> List.map (fun (t : Token.t) -> t.tag)

let texts text =
  let src = Source.of_string text in
  Tokenizer.tokenize src
  |> Array.to_list
  |> List.filter_map (fun (t : Token.t) ->
         match t.tag with
         | Token.Identifier -> Some (Tokenizer.text src t)
         | _ -> None)

let check_tags name expected text =
  Alcotest.(check (list string))
    name
    (List.map Token.tag_to_string expected)
    (List.map Token.tag_to_string (tags text))

let test_simple () =
  check_tags "var decl"
    [ Token.Kw_var; Token.Identifier; Token.Colon; Token.Identifier;
      Token.Eq; Token.Int_literal; Token.Semicolon; Token.Eof ]
    "var x: i64 = 42;"

let test_operators () =
  check_tags "compound ops"
    [ Token.Identifier; Token.Plus_eq; Token.Int_literal; Token.Semicolon;
      Token.Identifier; Token.Star_eq; Token.Int_literal; Token.Semicolon;
      Token.Eof ]
    "a += 1; b *= 2;";
  check_tags "comparisons"
    [ Token.Identifier; Token.Lt_eq; Token.Identifier;
      Token.Identifier; Token.Eq_eq; Token.Identifier;
      Token.Identifier; Token.Bang_eq; Token.Identifier; Token.Eof ]
    "a <= b c == d e != f"

let test_deref_and_struct () =
  check_tags "postfix deref and struct literal"
    [ Token.Identifier; Token.Dot_star; Token.Eq; Token.Dot_brace;
      Token.Dot; Token.Identifier; Token.Eq; Token.Int_literal;
      Token.R_brace; Token.Semicolon; Token.Eof ]
    "p.* = .{ .x = 1 };"

let test_float_literals () =
  check_tags "floats vs ints"
    [ Token.Float_literal; Token.Float_literal; Token.Int_literal;
      Token.Float_literal; Token.Eof ]
    "1.5 0.0 3 2e10"

let test_comment_skipped () =
  check_tags "plain comments vanish"
    [ Token.Kw_var; Token.Identifier; Token.Eq; Token.Int_literal;
      Token.Semicolon; Token.Eof ]
    "// a comment\nvar x = 1; // trailing"

let test_pragma_tokens () =
  (* The sentinel becomes one token; the pragma's interior is ordinary
     tokens; the line end is marked. *)
  check_tags "pragma line"
    [ Token.Pragma_sentinel; Token.Identifier; Token.Identifier;
      Token.L_paren; Token.Identifier; Token.R_paren; Token.Pragma_end;
      Token.Kw_while; Token.Eof ]
    "//$omp parallel private(x)\nwhile"

let test_pragma_at_eof () =
  check_tags "pragma terminated by eof"
    [ Token.Pragma_sentinel; Token.Identifier; Token.Pragma_end; Token.Eof ]
    "//$omp barrier"

let test_omp_names_are_identifiers () =
  (* OpenMP keywords are not reserved: they tokenise as identifiers and
     remain usable as variable names (the paper's compatibility
     requirement). *)
  Alcotest.(check (list string))
    "omp names usable as identifiers"
    [ "parallel"; "schedule"; "x" ]
    (texts "var parallel = 1; var schedule = 2; var x = parallel;"
     |> List.sort_uniq compare |> List.sort compare
     |> fun l -> List.sort compare l |> fun l ->
        (* keep original check order-insensitive *)
        List.filter (fun s -> List.mem s [ "parallel"; "schedule"; "x" ]) l)

let test_omp_keyword_table () =
  Alcotest.(check bool) "parallel maps" true
    (Token.omp_keyword_of_string "parallel" = Some Token.Omp_parallel);
  Alcotest.(check bool) "nowait maps" true
    (Token.omp_keyword_of_string "nowait" = Some Token.Omp_nowait);
  Alcotest.(check bool) "unknown name does not map" true
    (Token.omp_keyword_of_string "banana" = None);
  (* round trip over the whole table *)
  List.iter
    (fun (s, kw) ->
      Alcotest.(check string) ("round trip " ^ s) s
        (Token.omp_kw_to_string kw))
    Token.omp_keywords

let test_string_literal () =
  check_tags "string"
    [ Token.String_literal; Token.Eof ] "\"hello world\""

let test_error_unterminated_string () =
  Alcotest.check_raises "unterminated string"
    (Source.Error "<input>:1:1: unterminated string literal")
    (fun () -> ignore (tags "\"oops"))

let test_positions () =
  let src = Source.of_string "ab\ncd\nef" in
  Alcotest.(check (pair int int)) "line 1" (1, 1) (Source.position src 0);
  Alcotest.(check (pair int int)) "line 2" (2, 1) (Source.position src 3);
  Alcotest.(check (pair int int)) "line 3 col 2" (3, 2) (Source.position src 7)

(* ---------------------------------------------------------------- *)
(* Differential: the tokeniser against the reference kept in
   ref_tokenizer.ml.  Both must give the same tokens, or fail with the
   same located error. *)

let outcome tokenize text =
  match tokenize (Source.of_string text) with
  | toks ->
      Ok
        (Array.to_list
           (Array.map
              (fun (t : Token.t) ->
                (Token.tag_to_string t.tag, t.start, t.stop))
              toks))
  | exception Source.Error msg -> Error msg

let outcome_t = Alcotest.(result (list (triple string int int)) string)

let check_same name text =
  Alcotest.check outcome_t name
    (outcome Ref_tokenizer.tokenize text)
    (outcome Tokenizer.tokenize text)

(* Every fixture under examples/zr and the three NPB Zr kernels (the
   test binary runs in _build/default/test). *)
let corpus =
  lazy
    (List.map
       (fun p -> (p, Zigomp.Corpus.read_file p))
       (Zigomp.Corpus.discover
          (Filename.concat (Filename.concat ".." "examples") "zr"))
    @ Zigomp.Corpus.kernel_sources)

let test_differential_corpus () =
  List.iter (fun (name, text) -> check_same name text) (Lazy.force corpus)

(* Zr fragments, edge cases first: a sentinel at EOF or cut short, a
   comment inside a pragma, the two-character dot operators, literals
   that stop short of a fraction or an exponent, keyword prefixes,
   builtin names, escapes, an unterminated string, CRLF and a
   non-ASCII byte. *)
let fragments =
  [ "//$omp"; "//$om"; "//$omp parallel // note\n"; "// comment\n"; ".*";
    ".{"; "1."; "1.5e+3"; "2e"; "7E-2"; "1_000"; "fnx"; "if_"; "@x";
    "\"\\\""; "\"ab\""; "\"open"; "\r\n"; "\xc3"; "//$omp parallel for\n";
    "//$omp for schedule(dynamic, 2) nowait\n"; "fn"; "var"; "const";
    "while"; "if"; "else"; "return"; "true"; "false"; "and"; "or";
    "break"; "continue"; "undefined"; "export"; "undefinedx"; "x";
    "acc"; "Zed"; "_t"; "wx"; "i64"; "0"; "42"; "3.25"; " "; "\t"; "\n";
    "/"; "/="; "+"; "+="; "-"; "-="; "*"; "*="; "="; "=="; "!"; "!=";
    "<"; "<="; ">"; ">="; "&"; "%"; "("; ")"; "{"; "}"; "["; "]"; ",";
    ";"; ":"; "."; "#" ]

let test_edge_fragments () =
  List.iter
    (fun f ->
      check_same (String.escaped f) f;
      check_same (String.escaped ("x " ^ f ^ " y")) ("x " ^ f ^ " y");
      check_same (String.escaped ("//$omp " ^ f)) ("//$omp " ^ f))
    fragments

(* Random texts: fragments, slices of the corpus and arbitrary bytes.
   The corpus is read when the first slice is drawn. *)
let text_gen =
  let open QCheck2.Gen in
  let slice =
    let* k = nat in
    let* start = nat in
    let* len = int_range 0 80 in
    let corpus = Lazy.force corpus in
    let text = snd (List.nth corpus (k mod List.length corpus)) in
    let start = start mod (String.length text + 1) in
    return (String.sub text start (min len (String.length text - start)))
  in
  let piece =
    frequency
      [ (6, oneofl fragments); (3, slice); (1, map (String.make 1) char) ]
  in
  map (String.concat "") (list_size (int_range 0 30) piece)

let prop_differential =
  QCheck2.Test.make ~name:"tokeniser = reference tokeniser on random text"
    ~count:500 ~long_factor:40 ~print:String.escaped text_gen
    (fun text ->
      outcome Tokenizer.tokenize text = outcome Ref_tokenizer.tokenize text)

let suite =
  [ Alcotest.test_case "simple declaration" `Quick test_simple;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "deref and struct literal" `Quick test_deref_and_struct;
    Alcotest.test_case "float literals" `Quick test_float_literals;
    Alcotest.test_case "comments skipped" `Quick test_comment_skipped;
    Alcotest.test_case "pragma tokenisation" `Quick test_pragma_tokens;
    Alcotest.test_case "pragma at eof" `Quick test_pragma_at_eof;
    Alcotest.test_case "omp names stay identifiers" `Quick
      test_omp_names_are_identifiers;
    Alcotest.test_case "omp keyword hash map" `Quick test_omp_keyword_table;
    Alcotest.test_case "string literal" `Quick test_string_literal;
    Alcotest.test_case "unterminated string error" `Quick
      test_error_unterminated_string;
    Alcotest.test_case "source positions" `Quick test_positions;
    Alcotest.test_case "same tokens as the reference on the corpus" `Quick
      test_differential_corpus;
    Alcotest.test_case "same tokens as the reference on edge cases" `Quick
      test_edge_fragments;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_differential;
  ]
