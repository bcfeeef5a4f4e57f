(* Differential tests for the staged compiler: randomly generated Zr
   programs are executed by both engines — the tree walker
   ([Interp.call]) and the closure compiler ([Interp.Compile.call]) —
   and must agree on results, raised errors, and (for OpenMP programs)
   the per-construct profile counts.  A small set of slot-layout
   goldens pins the compiler's frame assignment. *)

module V = Interp.Value
module G = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Random sequential programs: integer statements and expressions over
   a function [fn f(a: i64, b: i64) i64], which may call a second
   generated function [fn g(x: i64, y: i64) i64].                      *)

type env = {
  readable : string list;    (* in scope, usable in expressions *)
  assignable : string list;  (* readable minus loop counters *)
  fresh : int;               (* next fresh variable suffix *)
  calls : bool;              (* expressions may call [g] *)
}

let fresh_var env =
  let name = Printf.sprintf "v%d" env.fresh in
  (name, { env with fresh = env.fresh + 1 })

(* [k >= 0] with a [_] between groups of three digits. *)
let rec underscored k =
  if k < 1000 then string_of_int k
  else Printf.sprintf "%s_%03d" (underscored (k / 1000)) (k mod 1000)

(* Integer expression over the in-scope variables.  Division and modulo
   only ever use literal denominators, so generated programs cannot
   fault at runtime. *)
let rec expr_gen env depth =
  let leaf =
    G.oneof
      (G.map string_of_int (G.int_range (-9) 9)
      :: G.map underscored (G.int_range 1_000 2_000_000)
      :: (if env.readable = [] then [] else [ G.oneofl env.readable ]))
  in
  if depth <= 0 then leaf
  else
    let sub = expr_gen env (depth - 1) in
    G.oneof
      ([ leaf;
         G.map2 (Printf.sprintf "(%s + %s)") sub sub;
         G.map2 (Printf.sprintf "(%s - %s)") sub sub;
         G.map2 (Printf.sprintf "(%s * %s)") sub sub;
         G.map2 (fun e k -> Printf.sprintf "(%s / %d)" e k) sub
           (G.int_range 2 7);
         G.map2 (fun e k -> Printf.sprintf "(%s %% %d)" e k) sub
           (G.int_range 2 7) ]
      @
      if env.calls then [ G.map2 (Printf.sprintf "g(%s, %s)") sub sub ]
      else [])

let cond_gen env =
  G.map3
    (fun l op r -> Printf.sprintf "%s %s %s" l op r)
    (expr_gen env 1)
    (G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
    (expr_gen env 1)

let indent lines = List.map (fun l -> "    " ^ l) lines

(* One random statement; returns its lines and the environment visible
   to the following statements.  Loop bodies declare too, so a block
   that runs again declares again; [allow_shadow] is on only inside
   nested blocks. *)
let rec stmt_gen env depth ~allow_decl ~allow_shadow =
  let assign =
    match env.assignable with
    | [] -> []
    | vs ->
        [ (let open G in
           let* v = oneofl vs in
           let* op = oneofl [ "="; "+="; "-="; "*=" ] in
           let* e = expr_gen env 2 in
           return ([ Printf.sprintf "%s %s %s;" v op e ], env)) ]
  in
  let decl =
    if not allow_decl then []
    else
      [ (let open G in
         let* shadow = bool in
         let* name, env =
           if shadow && allow_shadow && env.assignable <> [] then
             let* n = oneofl env.assignable in
             return (n, env)
           else
             let n, env = fresh_var env in
             return (n, env)
         in
         let* e = expr_gen env 2 in
         let env =
           if List.mem name env.readable then env
           else
             { env with
               readable = name :: env.readable;
               assignable = name :: env.assignable }
         in
         return ([ Printf.sprintf "var %s: i64 = %s;" name e ], env)) ]
  in
  let if_stmt =
    if depth <= 0 then []
    else
      [ (let open G in
         let* c = cond_gen env in
         let* then_lines, _ =
           block_gen env (depth - 1) ~allow_decl:true ~allow_shadow:true
         in
         let* has_else = bool in
         let* else_lines, _ =
           if has_else then
             block_gen env (depth - 1) ~allow_decl:true ~allow_shadow:true
           else return ([], env)
         in
         let lines =
           (Printf.sprintf "if (%s) {" c :: indent then_lines)
           @
           if has_else then ("} else {" :: indent else_lines) @ [ "}" ]
           else [ "}" ]
         in
         return (lines, env)) ]
  in
  let while_stmt =
    if depth <= 0 then []
    else
      [ (let open G in
         let cname, env' = fresh_var env in
         let* k = int_range 1 4 in
         (* the counter is readable inside and after the loop, but never
            assignable: only the continue expression advances it *)
         let inner = { env' with readable = cname :: env'.readable } in
         let* body, _ =
           block_gen inner (depth - 1) ~allow_decl:true ~allow_shadow:true
         in
         let lines =
           Printf.sprintf "var %s: i64 = 0;" cname
           :: Printf.sprintf "while (%s < %d) : (%s += 1) {" cname k cname
           :: indent body
           @ [ "}" ]
         in
         return (lines, { env' with readable = cname :: env'.readable })) ]
  in
  G.oneof (assign @ decl @ decl @ if_stmt @ while_stmt)

(* A short sequence of statements; declarations thread through, block
   structure restores the outer scope on exit. *)
and block_gen env depth ~allow_decl ~allow_shadow =
  let open G in
  let* n = int_range 1 3 in
  let rec go env acc i =
    if i = 0 then return (List.concat (List.rev acc), env)
    else
      let* lines, env = stmt_gen env depth ~allow_decl ~allow_shadow in
      go env (lines :: acc) (i - 1)
  in
  go env [] n

(* [fn name(p, q: i64) i64] with a random body over its parameters. *)
let fn_gen ~calls ~depth name (p, q) =
  let open G in
  let env = { readable = [ p; q ]; assignable = [ p; q ]; fresh = 0; calls } in
  let* body, env' = block_gen env depth ~allow_decl:true ~allow_shadow:false in
  let* ret = expr_gen env' 2 in
  return
    ([ Printf.sprintf "fn %s(%s: i64, %s: i64) i64 {" name p q ]
    @ indent body
    @ indent [ Printf.sprintf "return %s;" ret ]
    @ [ "}" ])

let seq_program_gen =
  let open G in
  let* g = fn_gen ~calls:false ~depth:2 "g" ("x", "y") in
  let* f = fn_gen ~calls:true ~depth:3 "f" ("a", "b") in
  let src = String.concat "\n" (g @ ("" :: f)) in
  let* a = int_range (-20) 20 in
  let* b = int_range (-20) 20 in
  return (src, a, b)

(* Both engines on the same program: result or error string. *)
let run_engines src fname args =
  let p = Interp.load ~name:"diff.zr" src in
  let walker =
    try Ok (Interp.call p fname args)
    with e -> Error (Printexc.to_string e)
  in
  let compiled =
    try
      let cc = Interp.Compile.compile p in
      Ok (Interp.Compile.call cc fname args)
    with e -> Error (Printexc.to_string e)
  in
  (walker, compiled)

let prop_sequential =
  QCheck2.Test.make
    ~name:"random sequential programs: compiled = walker" ~count:500
    ~long_factor:20
    ~print:(fun (src, a, b) -> Printf.sprintf "a=%d b=%d\n%s" a b src)
    seq_program_gen
    (fun (src, a, b) ->
      let walker, compiled = run_engines src "f" [ V.VInt a; V.VInt b ] in
      walker = compiled)

(* ------------------------------------------------------------------ *)
(* Random float/array programs: float literals and mixed arithmetic,
   [i ± k] subscripts in and out of range, plain and compound stores of
   float-typed values into float and int arrays, comparisons of mixed
   kinds in conditions and as values, ints above 2^53, and operands
   that fault (an [undefined] local, a bool).  These are the shapes the
   compiler evaluates unboxed, so both engines' results, array contents
   and first errors are compared, floats bit for bit.  The helper [h]
   writes the element a compound store is about to update.            *)

(* The arrays have 6 elements and [i] runs over 0..2: the last forms
   go out of range on some iteration, or always. *)
let subscript_gen =
  G.frequency
    [ (6, G.return "i");
      (6, G.map (Printf.sprintf "i + %d") (G.int_range 1 3));
      (3, G.map string_of_int (G.int_range 0 5));
      (2, G.return "y[i]");
      (1, G.oneofl [ "i - 1"; "i + 4"; "-1"; "6" ]) ]

let rec fexpr_gen depth =
  let leaf =
    G.frequency
      [ (6, G.oneofl [ "0.25"; "0.5"; "1.5"; "-2.0"; "3.0"; "0.1"; "1e308" ]);
        (3, G.oneofl [ "0"; "1"; "3"; "-2"; "9007199254740993" ]);
        (5, G.map (Printf.sprintf "x[%s]") subscript_gen);
        (3, G.map (Printf.sprintf "y[%s]") subscript_gen);
        (6, G.oneofl [ "p"; "q"; "a"; "i" ]);
        (1, G.oneofl [ "u"; "t" ]) ]
  in
  if depth <= 0 then leaf
  else
    let sub = fexpr_gen (depth - 1) in
    let bin op = G.map2 (fun l r -> Printf.sprintf "(%s %s %s)" l op r) sub sub in
    G.frequency
      [ (3, leaf); (3, bin "+"); (2, bin "-"); (3, bin "*"); (1, bin "/");
        (1, bin "%"); (1, G.map (Printf.sprintf "-%s") sub);
        (1, G.map (Printf.sprintf "sqrt(%s)") sub) ]

let fcond_gen =
  let cmp =
    G.map3
      (fun l op r -> Printf.sprintf "%s %s %s" l op r)
      (fexpr_gen 1)
      (G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
      (fexpr_gen 1)
  in
  G.frequency
    [ (4, cmp);
      (1, G.map2 (Printf.sprintf "(%s) and (%s)") cmp cmp);
      (1, G.map2 (Printf.sprintf "(%s) or (%s)") cmp cmp);
      (1, G.return "t") ]

let rec fstmt_gen depth =
  let store =
    G.map3
      (fun arr (s, op) e -> Printf.sprintf "%s[%s] %s %s;" arr s op e)
      (G.oneofl [ "x"; "y" ])
      (G.pair subscript_gen (G.oneofl [ "="; "="; "+="; "-="; "*="; "/=" ]))
      (fexpr_gen 2)
  in
  let local =
    G.map3
      (fun v op e -> Printf.sprintf "%s %s %s;" v op e)
      (G.oneofl [ "p"; "q" ])
      (G.oneofl [ "="; "+="; "-="; "*="; "/=" ])
      (fexpr_gen 2)
  in
  (* the right-hand side calls [h], which rewrites the target element *)
  let update =
    G.map3
      (fun arr (s, op) k -> Printf.sprintf "%s[%s] %s %s * h(x, y, %s);" arr s op k s)
      (G.oneofl [ "x"; "y" ])
      (G.pair subscript_gen (G.oneofl [ "+="; "-="; "*="; "/=" ]))
      (G.oneofl [ "0.5"; "2.0"; "-1.5" ])
  in
  let flag = G.map (Printf.sprintf "t = %s;") fcond_gen in
  let if_stmt () =
    G.map3
      (fun c th el ->
        Printf.sprintf "if (%s) { %s } else { %s }" c (String.concat " " th)
          (String.concat " " el))
      fcond_gen
      (G.list_size (G.int_range 1 2) (fstmt_gen (depth - 1)))
      (G.list_size (G.int_range 0 1) (fstmt_gen (depth - 1)))
  in
  G.frequency
    ([ (4, store); (2, local); (2, update); (1, flag) ]
    @ if depth > 0 then [ (1, if_stmt ()) ] else [])

let float_program_gen =
  let open G in
  let* body = list_size (int_range 1 4) (fstmt_gen 1) in
  let src =
    String.concat "\n"
      ([ "fn h(x: []f64, y: []i64, k: i64) f64 {";
         "    x[k] = x[k] * 2.0 + 1.0;";
         "    y[k] = y[k] * 2 + 1;";
         "    return 1.5;";
         "}";
         "";
         "fn f(a: i64, b: i64, x: []f64, y: []i64) f64 {";
         "    var p: f64 = 0.5;";
         "    var q: i64 = b;";
         "    var u: f64 = undefined;";
         "    var t: bool = a < b;";
         "    var i: i64 = 0;";
         "    while (i < 3) : (i += 1) {" ]
      @ List.map (fun s -> "        " ^ s) body
      @ [ "    }"; "    return p;"; "}" ])
  in
  let* a = int_range (-3) 3 in
  let* b = oneofl [ 1; 3; (1 lsl 53) + 1; max_int ] in
  let* xs = list_repeat 6 (map float_of_int (int_range (-4) 4)) in
  let* ys = list_repeat 6 (oneofl [ 0; 1; 2; 4; 5; (1 lsl 53) + 1 ]) in
  return (src, a, b, Array.of_list xs, Array.of_list ys)

(* Floats compared by their bits, so zeros of different signs differ;
   NaNs are not: when both operands are NaNs, x86 returns the one in the
   instruction's first operand, and the OCaml compiler may swap the
   operands of [+.] and [*.]. *)
let same_float x y =
  (Float.is_nan x && Float.is_nan y)
  || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_outcome (r1, x1, y1) (r2, x2, y2) =
  (match r1, r2 with
   | Ok (V.VFloat a), Ok (V.VFloat b) -> same_float a b
   | _ -> r1 = r2)
  && Array.for_all2 same_float x1 x2
  && y1 = y2

let prop_float_arrays =
  QCheck2.Test.make
    ~name:"random float/array programs: compiled = walker" ~count:1000
    ~long_factor:20
    ~print:(fun (src, a, b, xs, ys) ->
      Printf.sprintf "a=%d b=%d x=[%s] y=[%s]\n%s" a b
        (String.concat "; " (Array.to_list (Array.map string_of_float xs)))
        (String.concat "; " (Array.to_list (Array.map string_of_int ys)))
        src)
    float_program_gen
    (fun (src, a, b, xs, ys) ->
      let p = Interp.load ~name:"float.zr" src in
      let run call =
        let x = Array.copy xs and y = Array.copy ys in
        let r =
          try Ok (call [ V.VInt a; V.VInt b; V.VFloatArr x; V.VIntArr y ])
          with e -> Error (Printexc.to_string e)
        in
        (r, x, y)
      in
      let walker = run (Interp.call p "f") in
      let compiled =
        run (Interp.Compile.call (Interp.Compile.compile p) "f")
      in
      same_outcome walker compiled)

(* The taskloop stencil of perfbench's tasking workload, on one thread:
   its task bodies evaluate each element's loads, products and sum
   unboxed, so the sweep allocates at most 21 minor words per element
   (42 when every intermediate was a [Value.t]). *)
let test_stencil_words () =
  let src =
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
  in
  let cc = Interp.Compile.compile (Interp.load ~name:"sweep.zr" src) in
  let n = 8192 in
  let a = Array.init n (fun i -> float_of_int (i mod 7)) in
  let b = Array.make n 0. in
  let saved = Omprt.Api.get_max_threads () in
  Omprt.Api.set_num_threads 1;
  let sweep () =
    ignore (Interp.Compile.call cc "sweep" [ V.VInt n; V.VFloatArr a; V.VFloatArr b ])
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Omprt.Api.set_num_threads saved;
  for i = 1 to n - 2 do
    let expect = (0.25 *. a.(i - 1)) +. (0.5 *. a.(i)) +. (0.25 *. a.(i + 1)) in
    if b.(i) <> expect then Alcotest.failf "b[%d] = %g, expected %g" i b.(i) expect
  done;
  if words > 21. then
    Alcotest.failf "%.1f minor words per element, at most 21 expected" words

(* ------------------------------------------------------------------ *)
(* Random OpenMP programs: the pipeline-property reduce template with
   random schedule, team size and inputs, executed by both engines.    *)

let all_schedules =
  [ ""; "schedule(static)"; "schedule(static, 3)"; "schedule(static, 7)";
    "schedule(dynamic, 1)"; "schedule(dynamic, 5)"; "schedule(guided, 2)";
    "schedule(runtime)"; "schedule(auto)" ]

(* Schedules whose per-construct claim counts do not depend on thread
   interleaving: static splits are a pure function of (trips, chunk,
   nthreads), and dynamic with a fixed chunk claims exactly
   ceil(trips/chunk) chunks in total.  Guided chunk sizes shrink with
   the remaining count at claim time, so its claim count is racy by
   design and excluded from the count-parity property. *)
let deterministic_schedules =
  [ ""; "schedule(static)"; "schedule(static, 3)"; "schedule(static, 7)";
    "schedule(dynamic, 1)"; "schedule(dynamic, 5)" ]

let omp_program ~op ~sched =
  Printf.sprintf
    {|
fn reduce(n: i64, x: []f64) f64 {
    var acc: f64 = %s;
    var i: i64 = 0;
    //$omp parallel for reduction(%s: acc) shared(x) %s
    while (i < n) : (i += 1) {
        acc %s= x[i];
    }
    return acc;
}
|}
    (match op with `Add -> "0.0" | `Mul -> "1.0")
    (match op with `Add -> "+" | `Mul -> "*")
    sched
    (match op with `Add -> "+" | `Mul -> "*")

(* exact-float value pools, as in the pipeline properties *)
let add_val_gen = G.map float_of_int (G.int_range (-8) 8)
let mul_val_gen = G.oneofl [ 0.5; 1.0; 2.0 ]

let omp_case_gen scheds =
  let open G in
  let* op = oneofl [ `Add; `Mul ] in
  let* sched = oneofl scheds in
  let* threads = int_range 1 4 in
  let* values =
    list_size (int_range 0 24)
      (match op with `Add -> add_val_gen | `Mul -> mul_val_gen)
  in
  return (op, sched, threads, values)

let omp_args values =
  let x = Array.of_list values in
  [ V.VInt (Array.length x); V.VFloatArr x ]

let prop_omp_outputs =
  QCheck2.Test.make
    ~name:"random parallel reductions: compiled = walker (any schedule)"
    ~count:500 ~long_factor:20
    ~print:(fun (op, sched, threads, values) ->
      Printf.sprintf "%s threads=%d values=[%s]\n%s"
        (match op with `Add -> "+" | `Mul -> "*")
        threads
        (String.concat "; " (List.map string_of_float values))
        (omp_program ~op ~sched))
    (omp_case_gen all_schedules)
    (fun (op, sched, threads, values) ->
      Omprt.Api.set_num_threads threads;
      let walker, compiled =
        run_engines (omp_program ~op ~sched) "reduce" (omp_args values)
      in
      let expected =
        match op with
        | `Add -> List.fold_left ( +. ) 0. values
        | `Mul -> List.fold_left ( *. ) 1. values
      in
      walker = compiled && walker = Ok (V.VFloat expected))

(* One engine under the profiler: result plus per-construct counts. *)
let run_counted run =
  Omprt.Profile.reset ();
  Omprt.Profile.enable ();
  let res = try Ok (run ()) with e -> Error (Printexc.to_string e) in
  Omprt.Profile.disable ();
  let counts =
    List.map
      (fun (s : Omprt.Profile.snapshot) ->
        (Omprt.Profile.construct_name s.construct, s.count))
      (Omprt.Profile.snapshot ())
  in
  Omprt.Profile.reset ();
  (res, counts)

let prop_omp_profile_counts =
  QCheck2.Test.make
    ~name:
      "random parallel reductions: identical profile construct counts"
    ~count:500
    ~print:(fun (op, sched, threads, values) ->
      Printf.sprintf "%s threads=%d values=[%s]\n%s"
        (match op with `Add -> "+" | `Mul -> "*")
        threads
        (String.concat "; " (List.map string_of_float values))
        (omp_program ~op ~sched))
    (omp_case_gen deterministic_schedules)
    (fun (op, sched, threads, values) ->
      Omprt.Api.set_num_threads threads;
      let p = Interp.load ~name:"diff.zr" (omp_program ~op ~sched) in
      let args = omp_args values in
      let walker = run_counted (fun () -> Interp.call p "reduce" args) in
      let compiled =
        run_counted (fun () ->
            Interp.Compile.call (Interp.Compile.compile p) "reduce" args)
      in
      walker = compiled)

(* ------------------------------------------------------------------ *)
(* Slot-layout goldens: the frame assignment is part of the compiler's
   contract (parameters first, then locals in lexical order; shadowing
   burns a fresh slot).                                                *)

let layout_of src fname =
  let cc = Interp.Compile.compile (Interp.load ~name:"layout.zr" src) in
  match Interp.Compile.slot_layout cc fname with
  | Some l -> l
  | None -> Alcotest.failf "no layout for %s" fname

let layout_t = Alcotest.(list (pair int string))

let golden_params_then_locals () =
  let src =
    {|
fn f(a: i64, b: i64) i64 {
    var x: i64 = a;
    var y: f64 = 1.0;
    return x + b;
}
|}
  in
  Alcotest.(check layout_t)
    "params then locals, declaration order"
    [ (0, "a"); (1, "b"); (2, "x"); (3, "y") ]
    (layout_of src "f")

let golden_shadowing_fresh_slot () =
  let src =
    {|
fn g(n: i64) i64 {
    var x: i64 = 1;
    if (n > 0) {
        var x: i64 = 2;
        n = x;
    }
    return x + n;
}
|}
  in
  Alcotest.(check layout_t)
    "inner x burns a fresh slot"
    [ (0, "n"); (1, "x"); (2, "x") ]
    (layout_of src "g");
  (* and the program still sees the right binding at each point *)
  let walker, compiled = run_engines src "g" [ V.VInt 5 ] in
  Alcotest.(check bool) "engines agree" true (walker = compiled);
  Alcotest.(check bool) "outer x survives" true (walker = Ok (V.VInt 3))

let golden_omp_handles_in_frame () =
  let src =
    {|
fn s(n: i64) i64 {
    var total: i64 = 0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: total)
    while (i < n) : (i += 1) {
        total += 1;
    }
    return total;
}
|}
  in
  let layout = layout_of src "s" in
  let has_prefix p (_, name) =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  Alcotest.(check bool)
    "preprocessor worksharing handles live in the frame" true
    (List.exists (has_prefix "__omp") layout)

let golden_task_fn_layout () =
  (* direct task creation fills slots 2.. itself, so the outlined task
     function's frame must keep the layout every other function has *)
  let src =
    {|
fn f(n: i64) i64 {
    var a: i64 = 0;
    //$omp task shared(a) firstprivate(n)
    {
        var t: i64 = n + 1;
        a = t;
    }
    //$omp taskwait
    return a;
}
|}
  in
  Alcotest.(check layout_t)
    "parameters, then the capture prologue, then the body's locals"
    [ (0, "fp"); (1, "sh"); (2, "n"); (3, "a__ptr"); (4, "t") ]
    (layout_of src "__omp_task_0");
  let walker, compiled = run_engines src "f" [ V.VInt 4 ] in
  Alcotest.(check bool) "engines agree" true (walker = compiled);
  Alcotest.(check bool) "the task's write is visible" true
    (walker = Ok (V.VInt 5))

let suite =
  [ QCheck_alcotest.to_alcotest prop_sequential;
    QCheck_alcotest.to_alcotest prop_float_arrays;
    Alcotest.test_case "stencil task body: at most 21 words per element"
      `Quick test_stencil_words;
    QCheck_alcotest.to_alcotest prop_omp_outputs;
    QCheck_alcotest.to_alcotest prop_omp_profile_counts;
    Alcotest.test_case "layout: params then locals" `Quick
      golden_params_then_locals;
    Alcotest.test_case "layout: shadowing burns a fresh slot" `Quick
      golden_shadowing_fresh_slot;
    Alcotest.test_case "layout: omp handles in frame" `Quick
      golden_omp_handles_in_frame;
    Alcotest.test_case "layout: outlined task function" `Quick
      golden_task_fn_layout;
  ]
