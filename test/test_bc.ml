(* The register-bytecode tier ([Interp.Bc]/[Bcgen]/[Bcexec]):

   - ZIGOMP_BACKEND / ZIGOMP_BC_ELIDE parsing, and the warn-once
     fall-back for unrecognised values (the PR-4 ICV treatment instead
     of a hard failure);
   - differential qcheck: randomly generated worksharing programs,
     restricted to the planner's covered construct set, executed by
     all three tiers — tree walker, staged closures, bytecode — must
     agree on results, raised errors and per-construct profile counts,
     and must actually enter the VM (never silently bail).  Their
     counted inner loops and one-accumulate bodies take the emitter's
     hoisted tests, [addcmp.br] back edges and native [loop]s;
   - out-of-bounds error parity on one deterministic schedule,
     including faulting loop bounds and faults inside native loops;
   - disassembly goldens: the stencil, SpMV and dot-product drain
     listings (opcodes, fused superinstructions, [unguarded] markers)
     and the register allocation of the NPB CG loop bodies;
   - the NPB EP/IS bodies pinned as bailouts, with their reasons (their
     loop bodies call host functions, which the planner must refuse);
   - the standalone examples under compiled vs bytecode. *)

module V = Interp.Value
module G = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Backend environment parsing (satellite of the bytecode PR).         *)

let backend_t =
  Alcotest.testable
    (fun ppf b ->
      Format.pp_print_string ppf
        (match b with
         | `Ast -> "ast"
         | `Compiled -> "compiled"
         | `Bytecode -> "bytecode"))
    ( = )

let test_parse_backend () =
  let check s exp =
    Alcotest.(check (option backend_t)) s exp (Zigomp.parse_backend s)
  in
  check "bytecode" (Some `Bytecode);
  check "BC" (Some `Bytecode);
  check " vm " (Some `Bytecode);
  check "compiled" (Some `Compiled);
  check "Closure" (Some `Compiled);
  check "staged" (Some `Compiled);
  check "ast" (Some `Ast);
  check "tree" (Some `Ast);
  check "walk" (Some `Ast);
  check "" None;
  check "bytecodes" None;
  check "fast" None;
  Alcotest.(check (option bool)) "elide on" (Some true)
    (Zigomp.parse_bc_elide "1");
  Alcotest.(check (option bool)) "elide off" (Some false)
    (Zigomp.parse_bc_elide "off");
  Alcotest.(check (option bool)) "elide junk" None
    (Zigomp.parse_bc_elide "sometimes")

(* An unrecognised ZIGOMP_BACKEND warns once and falls back to the
   compiled backend, exactly like a malformed OMP_* ICV. *)
let test_backend_warn_once () =
  let with_env pairs f =
    let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
    List.iter (fun (k, v) -> Unix.putenv k v) pairs;
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun (k, old) -> Unix.putenv k (Option.value old ~default:""))
          saved;
        Omprt.Icv.forget_warnings ())
      f
  in
  with_env [ ("ZIGOMP_BACKEND", "turbo"); ("ZIGOMP_WARNINGS", "0") ]
    (fun () ->
      Omprt.Icv.forget_warnings ();
      let n0 = Omprt.Icv.warning_count () in
      Alcotest.(check backend_t) "falls back to compiled" `Compiled
        (Zigomp.default_backend ());
      Alcotest.(check int) "one warning" (n0 + 1)
        (Omprt.Icv.warning_count ());
      Alcotest.(check backend_t) "still compiled" `Compiled
        (Zigomp.default_backend ());
      Alcotest.(check int) "warned only once" (n0 + 1)
        (Omprt.Icv.warning_count ()));
  with_env [ ("ZIGOMP_BACKEND", "bytecode") ] (fun () ->
      Alcotest.(check backend_t) "well-formed value honoured" `Bytecode
        (Zigomp.default_backend ()))

(* ------------------------------------------------------------------ *)
(* Random covered programs.  The function shape:

     fn f(n, x: []f64, ix: []i64, w: []f64, iw: []i64) f64

   with x/ix read-only (ix entries always in [0, n)), w/iw written
   only at subscript [i], a + reduction into acc, and a serial
   checksum of w/iw after the region so every store is observable in
   the returned value.  Subscripts stay in [0, n) by construction
   (the loop runs over [1, n-1) and offsets are ±1), so the only
   nondeterminism left is reduction order — fixed by restricting
   dynamic/guided/runtime schedules to one thread, and float-typed
   reductions likewise (see [program_gen]).                           *)

type env = {
  flocals : string list;
  ilocals : string list;   (* readable int locals, incl. loop counters *)
  iassign : string list;   (* assignable int locals: counters excluded,
                              else a generated [tk = 0] in a loop body
                              would never terminate *)
  fresh : int;
}

let sub_gen =
  G.oneofl [ "i"; "i - 1"; "i + 1"; "ix[i]" ]

let rec iexpr env depth =
  let leaf =
    G.oneof
      ([ G.map string_of_int (G.int_range (-9) 9);
         G.return "i";
         G.map (Printf.sprintf "ix[%s]") sub_gen;
         G.map (Printf.sprintf "int_of(x[%s])") sub_gen ]
      @ (if env.ilocals = [] then [] else [ G.oneofl env.ilocals ]))
  in
  if depth <= 0 then leaf
  else
    let sub = iexpr env (depth - 1) in
    G.oneof
      [ leaf;
        G.map2 (Printf.sprintf "(%s + %s)") sub sub;
        G.map2 (Printf.sprintf "(%s - %s)") sub sub;
        G.map2 (Printf.sprintf "(%s * %s)") sub sub;
        G.map2 (fun e k -> Printf.sprintf "(%s / %d)" e k) sub
          (G.int_range 2 7);
        G.map2 (fun e k -> Printf.sprintf "(%s %% %d)" e k) sub
          (G.int_range 2 7);
      ]

let rec fexpr env depth =
  let leaf =
    G.oneof
      ([ G.oneofl [ "0.5"; "1.0"; "2.0"; "3.0"; "0.25" ];
         G.map (Printf.sprintf "x[%s]") sub_gen;
         G.return "w[i]";
         G.map (Printf.sprintf "float_of(%s)") (iexpr env 0) ]
      @ (if env.flocals = [] then [] else [ G.oneofl env.flocals ]))
  in
  if depth <= 0 then leaf
  else
    let sub = fexpr env (depth - 1) in
    G.oneof
      [ leaf;
        G.map2 (Printf.sprintf "(%s + %s)") sub sub;
        G.map2 (Printf.sprintf "(%s - %s)") sub sub;
        G.map2 (Printf.sprintf "(%s * %s)") sub sub;
        G.map (Printf.sprintf "(%s / 2.0)") sub;
        G.map (Printf.sprintf "sqrt(fabs(%s))") sub;
        G.map (Printf.sprintf "floor(%s)") sub;
      ]

let cond_gen env depth =
  let cmp =
    G.oneof
      [ G.map3
          (fun l op r -> Printf.sprintf "%s %s %s" l op r)
          (fexpr env 1)
          (G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
          (fexpr env 1);
        G.map3
          (fun l op r -> Printf.sprintf "%s %s %s" l op r)
          (iexpr env 1)
          (G.oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ])
          (iexpr env 1) ]
  in
  if depth <= 0 then cmp
  else
    G.oneof
      [ cmp;
        G.map2 (Printf.sprintf "(%s and %s)") cmp cmp;
        G.map2 (Printf.sprintf "(%s or %s)") cmp cmp;
        G.map (Printf.sprintf "!(%s)") cmp ]

let indent lines = List.map (fun l -> "        " ^ l) lines

(* Counted inner loops, for the emitter's rules 5-7: the test compares
   the counter, on either side, with a bound by one of the four
   comparisons, and the counter steps by 1 or 2 towards it. *)
let test_gen ?strict ~up k bound =
  let open G in
  let* strict =
    match strict with Some s -> return s | None -> bool
  in
  let* left = bool in
  let op =
    match (up, strict) with
    | true, true -> "<" | true, false -> "<="
    | false, true -> ">" | false, false -> ">="
  in
  let swapped =
    match op with "<" -> ">" | "<=" -> ">=" | ">" -> "<" | _ -> "<="
  in
  return
    (if left then Printf.sprintf "%s %s %s" k op bound
     else Printf.sprintf "%s %s %s" bound swapped k)

let step_gen ~up k =
  G.map
    (fun s -> Printf.sprintf "%s %s %d" k (if up then "+=" else "-=") s)
    (G.int_range 1 2)

(* A general loop's bound: (text, the counter's start as an int, may
   the body change it).  A literal, the captured scalar [n], a [len],
   an element at the invariant subscript [i] (int or float bank), or
   an int local, which the body may assign. *)
let bound_gen env =
  let fixed b = (b, b, false) in
  G.oneof
    ([ G.map (fun k -> fixed (string_of_int k)) (G.int_range (-3) 5);
       G.return (fixed "n");
       G.map
         (fun a -> fixed (Printf.sprintf "len(%s)" a))
         (G.oneofl [ "x"; "ix"; "w"; "iw" ]);
       G.return (fixed "ix[i]");
       G.return ("iw[i]", "iw[i]", true);
       G.return ("x[i]", "int_of(x[i])", false) ]
    @
    if env.ilocals = [] then []
    else
      [ G.map
          (fun v -> (v, v, List.mem v env.iassign))
          (G.oneofl env.ilocals) ])

(* One statement; declarations use fresh names only, so every use is
   after its (initialised) declaration on every tier. *)
let rec stmt_gen env depth : (string list * env) G.t =
  let open G in
  let store =
    [ (let* arr = oneofl [ `W; `Iw ] in
       let* op = oneofl [ "="; "+="; "-="; "*="; "/=" ] in
       match arr with
       | `W ->
           let* e = fexpr env 2 in
           return ([ Printf.sprintf "w[i] %s %s;" op e ], env)
       | `Iw ->
           let* e = iexpr env 2 in
           return ([ Printf.sprintf "iw[i] %s %s;" op e ], env)) ]
  in
  let decl =
    [ (let* kind = oneofl [ `F; `I ] in
       let name = Printf.sprintf "t%d" env.fresh in
       match kind with
       | `F ->
           let* e = fexpr env 2 in
           return
             ( [ Printf.sprintf "var %s: f64 = %s;" name e ],
               { env with flocals = name :: env.flocals;
                 fresh = env.fresh + 1 } )
       | `I ->
           let* e = iexpr env 2 in
           return
             ( [ Printf.sprintf "var %s: i64 = %s;" name e ],
               { env with ilocals = name :: env.ilocals;
                 iassign = name :: env.iassign;
                 fresh = env.fresh + 1 } )) ]
  in
  let local_assign =
    (if env.flocals = [] then []
     else
       [ (let* v = oneofl env.flocals in
          let* op = oneofl [ "="; "+="; "-="; "*=" ] in
          let* e = fexpr env 2 in
          return ([ Printf.sprintf "%s %s %s;" v op e ], env)) ])
    @
    if env.iassign = [] then []
    else
      [ (let* v = oneofl env.iassign in
         let* op = oneofl [ "="; "+="; "-="; "*=" ] in
         let* e = iexpr env 2 in
         return ([ Printf.sprintf "%s %s %s;" v op e ], env)) ]
  in
  let if_stmt =
    if depth <= 0 then []
    else
      [ (let* c = cond_gen env 1 in
         let* then_lines, tenv = stmts_gen env (depth - 1) in
         let* has_else = bool in
         let* else_lines, eenv =
           if has_else then stmts_gen { env with fresh = tenv.fresh } (depth - 1)
           else return ([], tenv)
         in
         return
           ( (Printf.sprintf "if (%s) {" c :: indent then_lines)
             @ (if has_else then ("} else {" :: indent else_lines) else [])
             @ [ "}" ],
             (* branch-local declarations go out of scope, but their
                names stay burnt so later siblings never redeclare *)
             { env with fresh = eenv.fresh } )) ]
  in
  let while_stmt =
    if depth <= 0 then []
    else
      [ (let name = Printf.sprintf "t%d" env.fresh in
         let guard = Printf.sprintf "t%d" (env.fresh + 1) in
         (* counter readable but not assignable inside the body *)
         let env' =
           { env with ilocals = name :: env.ilocals; fresh = env.fresh + 2 }
         in
         let* bound, init, changes = bound_gen env in
         let* up = bool in
         let* c = int_range 0 4 in
         let* test = test_gen ~up name bound in
         let* step = step_gen ~up name in
         let* body_lines, benv = stmts_gen env' (depth - 1) in
         (* a store that moves an [iw[i]] bound, so its hoist is refused
            for a reason the result shows *)
         let* moved =
           if bound = "iw[i]" then
             oneofl [ []; [ "iw[i] += 1;" ]; [ "iw[i] -= 1;" ] ]
           else return []
         in
         let* brk = bool in
         let body_lines =
           (* a bound the body may change needs a trip guard *)
           (if changes || moved <> [] then
              [ Printf.sprintf "%s += 1;" guard;
                Printf.sprintf "if (%s > 5) { break; }" guard ]
            else [])
           @ moved @ body_lines
           @
           if brk then [ Printf.sprintf "if (%s > 2) { break; }" name ]
           else []
         in
         return
           ( [ Printf.sprintf "var %s: i64 = 0;" guard;
               Printf.sprintf "var %s: i64 = %s %s %d;" name init
                 (if up then "-" else "+") c;
               Printf.sprintf "while (%s) : (%s) {" test step ]
             @ indent body_lines @ [ "}" ],
             (* the counter survives the loop; body locals do not, but
                their names stay burnt *)
             { env' with fresh = benv.fresh } )) ]
  in
  let acc_loop =
    if depth <= 0 then []
    else
      [ (let name = Printf.sprintf "t%d" env.fresh in
         let sum = Printf.sprintf "t%d" (env.fresh + 1) in
         let* up = bool in
         let* lo = oneofl [ "0"; "1"; "ix[i]" ] in
         let* hi = oneofl [ "n"; "len(x)"; "len(w)"; "3"; "ix[i] + 1" ] in
         let* strict = bool in
         let bound, init =
           match (up, strict) with
           | true, true -> (hi, lo)
           | true, false -> (hi ^ " - 1", lo)
           | false, true -> (lo ^ " - 1", hi ^ " - 1")
           | false, false -> (lo, hi ^ " - 1")
         in
         let* test = test_gen ~up ~strict name bound in
         let* step = step_gen ~up name in
         let* rhs =
           oneofl
             [ Printf.sprintf "x[%s] * x[%s]" name name;
               Printf.sprintf "x[%s] * x[ix[%s]]" name name ]
         in
         return
           ( [ Printf.sprintf "var %s: f64 = 0.0;" sum;
               Printf.sprintf "var %s: i64 = %s;" name init;
               Printf.sprintf "while (%s) : (%s) {" test step;
               Printf.sprintf "    %s += %s;" sum rhs;
               "}";
               Printf.sprintf "w[i] += %s;" sum ],
             { env with
               ilocals = name :: env.ilocals;
               flocals = sum :: env.flocals;
               fresh = env.fresh + 2 } )) ]
  in
  let continue_stmt =
    if depth <= 0 then []
    else
      [ (let* c = cond_gen env 0 in
         return ([ Printf.sprintf "if (%s) { continue; }" c ], env)) ]
  in
  oneof
    (store @ store @ decl @ local_assign @ if_stmt @ while_stmt @ acc_loop
     @ continue_stmt)

and stmts_gen env depth : (string list * env) G.t =
  let open G in
  let* count = int_range 1 3 in
  let rec go env k acc =
    if k = 0 then return (List.concat (List.rev acc), env)
    else
      let* lines, env = stmt_gen env depth in
      go env (k - 1) (lines :: acc)
  in
  go env count []

(* (schedule clause, allowed thread counts): non-static claim orders
   are racy, so those schedules run on one thread where the reduction
   order is total anyway. *)
let sched_gen =
  G.oneof
    [ G.map (fun t -> ("", t)) (G.int_range 1 4);
      G.map (fun t -> ("schedule(static)", t)) (G.int_range 1 4);
      G.map (fun t -> ("schedule(static, 3)", t)) (G.int_range 1 4);
      G.return ("schedule(dynamic, 2)", 1);
      G.return ("schedule(guided, 2)", 1);
      G.return ("schedule(runtime)", 1) ]

let program_gen =
  let open G in
  let env = { flocals = []; ilocals = []; iassign = []; fresh = 0 } in
  let* sched, threads = sched_gen in
  (* Threaded float reduction is bit-nondeterministic (the combine
     order over per-thread partials is not fixed), so a float acc is
     only generated on one thread; otherwise acc is an i64, whose
     wrapping sum is exactly order-insensitive.  Float stores are
     still observed bit-exactly through the serial checksum. *)
  let* accf = if threads = 1 then bool else return false in
  (* a float drain whose body is one accumulate runs as a [loop] *)
  let* dot = if accf then bool else return false in
  let* body, env' =
    if dot then return ([], env) else stmts_gen env 2
  in
  let* red =
    if dot then
      oneofl [ "x[i]"; "x[i] * x[i]"; "x[i] * x[ix[i]]"; "x[i] * w[i]" ]
    else if accf then fexpr env' 2
    else iexpr env' 2
  in
  let* up = bool in
  let* n = int_range 3 24 in
  let src =
    String.concat "\n"
      ([ "fn f(n: i64, x: []f64, ix: []i64, w: []f64, iw: []i64) f64 {";
         (if accf then "    var acc: f64 = 0.0;"
          else "    var acc: i64 = 0;");
         (if up then "    var i: i64 = 1;" else "    var i: i64 = n - 2;");
         Printf.sprintf
           "    //$omp parallel for reduction(+: acc) shared(x, ix, w, \
            iw) %s"
           sched;
         (if up then "    while (i < n - 1) : (i += 1) {"
          else "    while (i >= 1) : (i -= 1) {") ]
      @ indent body
      @ [ Printf.sprintf "        acc += %s;" red;
          "    }";
          "    var j: i64 = 0;";
          "    var chk: f64 = 0.0;";
          "    while (j < n) : (j += 1) { chk = chk + w[j] + \
           float_of(iw[j]); }";
          "    return float_of(acc) + chk + float_of(i);";
          "}" ])
  in
  return (src, n, threads)

let args_for n =
  let x = Array.init n (fun k -> float_of_int ((k mod 7) - 3) *. 0.5) in
  let ix = Array.init n (fun k -> (k * 5 + 2) mod n) in
  [ V.VInt n; V.VFloatArr x; V.VIntArr ix;
    V.VFloatArr (Array.make n 0.); V.VIntArr (Array.make n 0) ]

(* A raised error as text.  [Printexc] prints a region's
   [Worker_failure (tid, e)] as [Worker_failure(tid, _)], so the
   wrapped error — the one whose message must agree — is rendered
   explicitly. *)
let rec error_text = function
  | Omprt.Team.Worker_failure (tid, e) ->
      Printf.sprintf "Worker_failure(%d, %s)" tid (error_text e)
  | e -> Printexc.to_string e

(* One tier under the profiler: result, per-construct counts, and the
   bytecode-tier counters (captured before the final reset).           *)
let run_counted run =
  Omprt.Profile.reset ();
  Omprt.Profile.enable ();
  let res = try Ok (run ()) with e -> Error (error_text e) in
  Omprt.Profile.disable ();
  let counts =
    List.map
      (fun (s : Omprt.Profile.snapshot) ->
        (Omprt.Profile.construct_name s.construct, s.count))
      (Omprt.Profile.snapshot ())
  in
  let bc = Omprt.Profile.bc_stats () in
  Omprt.Profile.reset ();
  (res, counts, bc)

let run_three_tiers src n threads =
  Omprt.Api.set_num_threads threads;
  let p = Interp.load ~name:"bcdiff.zr" src in
  let walker = run_counted (fun () -> Interp.call p "f" (args_for n)) in
  let compiled =
    let cc = Interp.Compile.compile p in
    run_counted (fun () -> Interp.Compile.call cc "f" (args_for n))
  in
  let bytecode =
    let cc = Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p in
    run_counted (fun () -> Interp.Compile.call cc "f" (args_for n))
  in
  (walker, compiled, bytecode)

let print_case (src, n, threads) =
  Printf.sprintf "n=%d threads=%d\n%s" n threads src

let prop_three_tier =
  QCheck2.Test.make
    ~name:
      "random covered programs: walker = compiled = bytecode (results, \
       profile counts), and the VM is entered"
    ~count:500 ~long_factor:20 ~print:print_case program_gen
    (fun (src, n, threads) ->
      let (wres, wcounts, _), (cres, ccounts, cbc), (bres, bcounts, bbc) =
        run_three_tiers src n threads
      in
      (* structural compare, not (=): a NaN checksum is a legitimate
         outcome (w[i] /= 0.0) and must still count as agreement *)
      compare wres cres = 0 && compare wres bres = 0
      && wcounts = ccounts && wcounts = bcounts
      && cbc.Omprt.Profile.bc_entered = 0
      && bbc.Omprt.Profile.bc_entered > 0
      && bbc.Omprt.Profile.bc_bailouts = 0)

(* Out-of-bounds subscripts: one thread, static schedule, so the first
   faulting iteration is deterministic; all three tiers must raise the
   identical error (the bytecode tier through its guarded twin).

   The CSR case runs the gather [s += x[k] * w[ix[k]]] over arrays of
   three different lengths (x: n+2, ix: n+1, w: n), so each access
   faults with its own message.  The fault lies in x[k] (k < 0, where
   ix[k] would fault too, so the check order decides the message), in
   ix[k] (k = n+1), or in w[ix[k]] (a negative or too-large entry).   *)
(* [body] runs in [gather] over x: n+2, ix: n+1 and w: n elements,
   after [patch] edits ix. *)
let oob_harness ?(patch = "") body =
  Printf.sprintf
    {|
fn gather(n: i64, x: []f64, ix: []i64, w: []f64) f64 {
    var acc: f64 = 0.0;
%s
    return acc;
}

fn f(n: i64, x0: []f64, ix0: []i64, w: []f64, iw: []i64) f64 {
    var x = alloc_f64(n + 2);
    var ix = alloc_i64(n + 1);
    var j: i64 = 0;
    while (j < n + 2) : (j += 1) { x[j] = x0[j %% n]; }
    j = 0;
    while (j < n + 1) : (j += 1) { ix[j] = ix0[j %% n]; }
%s
    return gather(n, x, ix, w);
}
|}
    body patch

let csr_oob_gen =
  let open G in
  let* fault = oneofl [ `X; `Ix; `W_neg; `W_big ] in
  let* d = int_range 1 3 in
  let* n = int_range 1 8 in
  let* pos = int_range 0 n in
  let lo, hi, patch =
    match fault with
    | `X -> (Printf.sprintf "-%d" d, "n + 1", "")
    | `Ix -> ("0", "n + 2", "")
    | `W_neg -> ("0", "n + 1", Printf.sprintf "    ix[%d] = -%d;" pos d)
    | `W_big -> ("0", "n + 1", Printf.sprintf "    ix[%d] = n - 1 + %d;" pos d)
  in
  let body =
    Printf.sprintf
      {|    var i: i64 = 0;
    //$omp parallel for reduction(+: acc) shared(x, ix, w) schedule(static)
    while (i < n) : (i += 1) {
        var s: f64 = 0.0;
        var k: i64 = %s;
        var hi: i64 = %s;
        while (k < hi) : (k += 1) {
            s += x[k] * w[ix[k]];
        }
        acc += s;
    }|}
      lo hi
  in
  return (oob_harness ~patch body, n, 1)

let affine_oob_gen =
  let open G in
  let* off = int_range 1 3 in
  let* dir = oneofl [ `Low; `High ] in
  let* compound = bool in
  let sub =
    match dir with
    | `Low -> Printf.sprintf "i - %d" off
    | `High -> Printf.sprintf "i + %d" off
  in
  let body =
    if compound then Printf.sprintf "w[%s] += x[i];" sub
    else Printf.sprintf "w[i] = x[%s];" sub
  in
  let src =
    Printf.sprintf
      {|
fn f(n: i64, x: []f64, ix: []i64, w: []f64, iw: []i64) f64 {
    var acc: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: acc) shared(x, ix, w, iw) schedule(static)
    while (i < n) : (i += 1) {
        %s
        acc += w[i];
    }
    return acc;
}
|}
      body
  in
  let* n = int_range 1 8 in
  return (src, n, 1)

(* Loops the emitter runs as one [loop] (rule 7), faulting on their
   first, a middle or their last iteration, over the arrays of
   [csr_oob_gen]'s three lengths: a dot [s += x[k] * w[k]] or the
   gather, as a counted inner while or as the drain itself, under [<],
   [<=], [>] or [>=] with a step of 1 or 2.  [x] is checked first, and
   a negative counter faults it in both arrays; past the top, the dot
   faults in [w] and the gather in [ix] alone, which is shorter than
   [x].  The drain form faults its chunk check, so it runs the guarded
   twin.  A loop that faults is never proven in range when it is
   entered, so it runs checked; a proof taken from the wrong end of the
   trip, or one that skips an array, reads out of bounds instead. *)
let loop_oob_gen =
  let open G in
  let* gather = bool in
  let* drain = bool in
  let* cmp = oneofl [ "<"; "<="; ">"; ">=" ] in
  let* step = int_range 1 2 in
  let* at = oneofl [ `First; `Middle; `Last ] in
  let* d = int_range 1 3 in
  let* n = int_range 1 8 in
  (* x: n+2, ix: n+1, w: n.  Counters from 0 to [top - 1] are in
     range. *)
  let top = if gather then n + 1 else n in
  let* start = int_range 0 (top - 1) in
  let up = cmp.[0] = '<' and incl = String.length cmp = 2 in
  (* the first counter value out of range, stepping from [start] *)
  let rec fault k =
    if k < 0 || k >= top then k else fault (if up then k + step else k - step)
  in
  (* the bound under which the trip ends [beyond] steps after [k] *)
  let bound k beyond =
    let k = if up then k + (beyond * step) else k - (beyond * step) in
    if incl then k else if up then k + 1 else k - 1
  in
  let lo, hi =
    match at with
    | `First -> if up then (-d, bound 0 2) else (top - 1 + d, bound (-1) 0)
    | `Middle -> (start, bound (fault start) 2)
    | `Last -> (start, bound (fault start) 0)
  in
  let cont = Printf.sprintf "%s %d" (if up then "+=" else "-=") step in
  let rhs k =
    if gather then Printf.sprintf "x[%s] * w[ix[%s]]" k k
    else Printf.sprintf "x[%s] * w[%s]" k k
  in
  let body =
    if drain then
      Printf.sprintf
        {|    var i: i64 = %d;
    //$omp parallel for reduction(+: acc) shared(x, ix, w) schedule(static)
    while (i %s %d) : (i %s) {
        acc += %s;
    }|}
        lo cmp hi cont (rhs "i")
    else
      Printf.sprintf
        {|    var i: i64 = 0;
    //$omp parallel for reduction(+: acc) shared(x, ix, w) schedule(static)
    while (i < n) : (i += 1) {
        var s: f64 = 0.0;
        var k: i64 = %d;
        while (k %s %d) : (k %s) {
            s += %s;
        }
        acc += s;
    }|}
        lo cmp hi cont (rhs "k")
  in
  return (oob_harness body, n, 1)

(* A bound that faults (rule 5): [ix[i + d]] runs past the end for the
   last rows, and is hoisted ahead of the entry test.  With [w[k]]
   before it, which faults on the same row's entry, it must not be:
   the closure tier reports [w]'s fault, [w] and [ix] have different
   lengths, and the loop never runs its body. *)
let bound_oob_gen =
  let open G in
  let* d = int_range 2 3 in
  let* n = int_range 1 8 in
  let* first_raises = bool in
  let init, test =
    if first_raises then
      (Printf.sprintf "i + %d" (d - 1), Printf.sprintf "w[k] > ix[i + %d]" d)
    else ("0", Printf.sprintf "k < ix[i + %d]" d)
  in
  let body =
    Printf.sprintf
      {|    var i: i64 = 0;
    //$omp parallel for reduction(+: acc) shared(x, ix, w) schedule(static)
    while (i < n) : (i += 1) {
        var s: f64 = 0.0;
        var k: i64 = %s;
        while (%s) : (k += 1) {
            s += x[k] * w[k];
        }
        acc += s;
    }|}
      init test
  in
  return (oob_harness body, n, 1)

(* The loop shapes get half the cases: they span four comparisons, two
   steps, two forms and three fault positions. *)
let oob_program_gen =
  G.frequency
    [ (1, affine_oob_gen); (1, csr_oob_gen); (3, loop_oob_gen);
      (1, bound_oob_gen) ]

let prop_oob_parity =
  QCheck2.Test.make
    ~name:"out-of-bounds bodies: identical error on all three tiers"
    ~count:300 ~long_factor:20 ~print:print_case oob_program_gen
    (fun (src, n, threads) ->
      let (wres, _, _), (cres, _, _), (bres, _, _) =
        run_three_tiers src n threads
      in
      let is_err = match wres with Error _ -> true | Ok _ -> false in
      is_err && wres = cres && wres = bres)

(* ------------------------------------------------------------------ *)
(* Disassembly goldens.                                                *)

let stencil_src =
  {|
fn stencil(n: i64, a: []f64, b: []f64) f64 {
    var i: i64 = 1;
    //$omp parallel for shared(a, b)
    while (i < n - 1) : (i += 1) {
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    return b[1];
}
|}

(* The one drain listing of [fname] after one bytecode run. *)
let drain_listing ~name src fname args =
  Omprt.Api.set_num_threads 1;
  let p = Zigomp.compile ~backend:`Bytecode ~name src in
  ignore (Zigomp.call p fname args);
  match Zigomp.bc_listings p with
  | [ (label, listing) ] -> (label, listing)
  | l -> Alcotest.failf "expected one listing, got %d" (List.length l)

let stencil_listing () =
  let n = 32 in
  drain_listing ~name:"stencil.zr" stencil_src "stencil"
    [ V.VInt n; V.VFloatArr (Array.init n float_of_int);
      V.VFloatArr (Array.make n 0.) ]

let stencil_golden =
  "registers: 2 int (iv=i0, upper=i1), 3 float\n\
  \  farr 0 <- slot 4 'b__ptr' (deref)\n\
  \  farr 1 <- slot 3 'a__ptr' (deref)\n\
   chunk check (all pass => elided code, else guarded):\n\
  \  b__ptr[iv+0 .. iv+0] in range over the chunk\n\
  \  a__ptr[iv-1 .. iv+1] in range over the chunk\n\
   code (elided):\n\
  \  @0    L21   cmpbr.ii !le i0{iv}, i1{upper}, @48\n\
  \  @6    L22   mulc.ld.fu f0, 0.25 * a__ptr[i0{iv}-1]   [unguarded]\n\
  \  @12   L22   mulc.ld.fu f1, 0.5 * a__ptr[i0{iv}]   [unguarded]\n\
  \  @18   L22   add.f f0, f0, f1\n\
  \  @24   L22   mulc.ld.fu f1, 0.25 * a__ptr[i0{iv}+1]   [unguarded]\n\
  \  @30   L22   add.f f0, f0, f1\n\
  \  @36   L22   st.f b__ptr[i0{iv}], f0   [unguarded]\n\
  \  @42   L21   addcmp.br i0{iv} += 1, le i1{upper}, @6\n\
  \  @48   L21   halt\n\
   code (guarded twin):\n\
  \  @0    L21   cmpbr.ii !le i0{iv}, i1{upper}, @90\n\
  \  @6    L22   chk.f b__ptr[i0{iv}]\n\
  \  @12   L22   ldc.f f0, 0.25\n\
  \  @18   L22   ld.f f1, a__ptr[i0{iv}-1]\n\
  \  @24   L22   mul.f f0, f0, f1\n\
  \  @30   L22   ldc.f f1, 0.5\n\
  \  @36   L22   ld.f f2, a__ptr[i0{iv}]\n\
  \  @42   L22   mul.f f1, f1, f2\n\
  \  @48   L22   add.f f0, f0, f1\n\
  \  @54   L22   ldc.f f1, 0.25\n\
  \  @60   L22   ld.f f2, a__ptr[i0{iv}+1]\n\
  \  @66   L22   mul.f f1, f1, f2\n\
  \  @72   L22   add.f f0, f0, f1\n\
  \  @78   L22   st.f b__ptr[i0{iv}], f0   [unguarded]\n\
  \  @84   L21   addcmp.br i0{iv} += 1, le i1{upper}, @6\n\
  \  @90   L21   halt\n"

let test_stencil_golden () =
  let label, listing = stencil_listing () in
  Alcotest.(check string) "drain label" "__omp_outlined_0#0" label;
  Alcotest.(check string) "stencil body listing" stencil_golden listing

(* NPB CG's SpMV shape.  The inner loop costs no dispatch per nonzero:
   its bound [rowstr[row + 1]] is loaded once before the entry test
   (rule 5), and the fused gather (bounds-checked a[k], colidx[k],
   then x[colidx[k]]) runs under one [loop] (rule 7) that carries the
   counter's step and the test [k < bound]. *)
let spmv_src =
  {|
fn spmv(nrows: i64, a: []f64, colidx: []i64, rowstr: []i64,
        x: []f64, y: []f64) f64 {
    var row: i64 = 0;
    //$omp parallel for shared(a, colidx, rowstr, x, y)
    while (row < nrows) : (row += 1) {
        var s: f64 = 0.0;
        var k: i64 = rowstr[row];
        while (k < rowstr[row + 1]) : (k += 1) {
            s += a[k] * x[colidx[k]];
        }
        y[row] = s;
    }
    return y[0];
}
|}

let spmv_golden =
  "registers: 4 int (iv=i0, upper=i1), 1 float\n\
  \  farr 0 <- slot 3 'a__ptr' (deref)\n\
  \  farr 1 <- slot 6 'x__ptr' (deref)\n\
  \  farr 2 <- slot 7 'y__ptr' (deref)\n\
  \  iarr 0 <- slot 5 'rowstr__ptr' (deref)\n\
  \  iarr 1 <- slot 4 'colidx__ptr' (deref)\n\
   chunk check (all pass => elided code, else guarded):\n\
  \  y__ptr[iv+0 .. iv+0] in range over the chunk\n\
  \  rowstr__ptr[iv+0 .. iv+1] in range over the chunk\n\
   code (elided):\n\
  \  @0    L25   cmpbr.ii !le i0{iv}, i1{upper}, @54\n\
  \  @6    L26   ldc.f f0{s}, 0\n\
  \  @12   L27   ld.iu i2{k}, rowstr__ptr[i0{iv}]   [unguarded]\n\
  \  @18   L28   ld.iu i3, rowstr__ptr[i0{iv}+1]   [unguarded]\n\
  \  @24   L28   cmpbr.ii !lt i2{k}, i3, @42\n\
  \  @30   L28   loop i2{k} += 1, lt i3, @42\n\
  \  @36   L29   accmul.ld.ldx.f f0{s} += a__ptr[i2{k}] * x__ptr[colidx__ptr[i2{k}]]\n\
  \  @42   L31   st.f y__ptr[i0{iv}], f0{s}   [unguarded]\n\
  \  @48   L25   addcmp.br i0{iv} += 1, le i1{upper}, @6\n\
  \  @54   L25   halt\n\
   code (guarded twin):\n\
  \  @0    L25   cmpbr.ii !le i0{iv}, i1{upper}, @60\n\
  \  @6    L26   ldc.f f0{s}, 0\n\
  \  @12   L27   ld.i i2{k}, rowstr__ptr[i0{iv}]\n\
  \  @18   L28   ld.i i3, rowstr__ptr[i0{iv}+1]\n\
  \  @24   L28   cmpbr.ii !lt i2{k}, i3, @42\n\
  \  @30   L28   loop i2{k} += 1, lt i3, @42\n\
  \  @36   L29   accmul.ld.ldx.f f0{s} += a__ptr[i2{k}] * x__ptr[colidx__ptr[i2{k}]]\n\
  \  @42   L31   chk.f y__ptr[i0{iv}]\n\
  \  @48   L31   st.f y__ptr[i0{iv}], f0{s}   [unguarded]\n\
  \  @54   L25   addcmp.br i0{iv} += 1, le i1{upper}, @6\n\
  \  @60   L25   halt\n"

let test_spmv_golden () =
  let nrows = 4 in
  let label, listing =
    drain_listing ~name:"spmv.zr" spmv_src "spmv"
      [ V.VInt nrows; V.VFloatArr (Array.make 8 1.);
        V.VIntArr (Array.init 8 (fun k -> k mod nrows));
        V.VIntArr (Array.init (nrows + 1) (fun r -> 2 * r));
        V.VFloatArr (Array.init nrows float_of_int);
        V.VFloatArr (Array.make nrows 0.) ]
  in
  Alcotest.(check string) "drain label" "__omp_outlined_0#0" label;
  Alcotest.(check string) "spmv body listing" spmv_golden listing

(* A dot product's drain: its body is one accumulate, so the drain's
   own back edge becomes a [loop] and a claimed chunk costs three
   dispatches, whatever its length.  The guarded twin keeps the shape
   with the guarded accumulate. *)
let dot_src =
  {|
fn dot(n: i64, a: []f64, b: []f64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) shared(a, b)
    while (i < n) : (i += 1) {
        s += a[i] * b[i];
    }
    return s;
}
|}

let dot_golden =
  "registers: 2 int (iv=i0, upper=i1), 1 float\n\
  \  cap  f0 <- slot 7 's'  [written back]\n\
  \  farr 0 <- slot 3 'a__ptr' (deref)\n\
  \  farr 1 <- slot 4 'b__ptr' (deref)\n\
   chunk check (all pass => elided code, else guarded):\n\
  \  a__ptr[iv+0 .. iv+0] in range over the chunk\n\
  \  b__ptr[iv+0 .. iv+0] in range over the chunk\n\
   code (elided):\n\
  \  @0    L25   cmpbr.ii !le i0{iv}, i1{upper}, @18\n\
  \  @6    L25   loop i0{iv} += 1, le i1{upper}, @18\n\
  \  @12   L26   accmul.ld.ld.fu f0{s} += a__ptr[i0{iv}] * b__ptr[i0{iv}]   [unguarded]\n\
  \  @18   L25   halt\n\
   code (guarded twin):\n\
  \  @0    L25   cmpbr.ii !le i0{iv}, i1{upper}, @18\n\
  \  @6    L25   loop i0{iv} += 1, le i1{upper}, @18\n\
  \  @12   L26   accmul.ld.ld.f f0{s} += a__ptr[i0{iv}] * b__ptr[i0{iv}]\n\
  \  @18   L25   halt\n"

let test_dot_golden () =
  let n = 8 in
  let label, listing =
    drain_listing ~name:"dot.zr" dot_src "dot"
      [ V.VInt n; V.VFloatArr (Array.init n float_of_int);
        V.VFloatArr (Array.make n 2.) ]
  in
  Alcotest.(check string) "drain label" "__omp_outlined_0#0" label;
  Alcotest.(check string) "dot drain listing" dot_golden listing

(* Register allocation of the NPB CG loop bodies: every drain of
   conj_grad specialises (no bailouts), and the register-file header
   of each listing — the allocator's contract — is pinned.             *)
let test_cg_regalloc_golden () =
  Omprt.Api.set_num_threads 1;
  Omprt.Profile.reset ();
  let p = Interp.load ~name:"conj_grad.zr" Harness.Zr_cg.conj_grad_src in
  let cc = Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p in
  ignore (Interp.Compile.call cc "conj_grad" (Test_npb_zr.spd_args 16));
  let bc = Omprt.Profile.bc_stats () in
  Omprt.Profile.reset ();
  Alcotest.(check int) "no conj_grad drain bails" 0
    bc.Omprt.Profile.bc_bailouts;
  Alcotest.(check bool) "drains entered" true
    (bc.Omprt.Profile.bc_entered > 0);
  (* every native-loop entry is proven in range: the SpMV gathers' [k]
     runs over [rowstr[j] .. rowstr[j+1]], the dot products' over the
     claimed chunk *)
  Alcotest.(check int) "no conj_grad loop entry runs checked" 0
    bc.Omprt.Profile.bc_loop_fallbacks;
  let header listing =
    match String.index_opt listing '\n' with
    | Some k -> String.sub listing 0 k
    | None -> listing
  in
  let headers =
    List.map
      (fun (label, listing) -> Printf.sprintf "%s: %s" label (header listing))
      (List.sort compare (Interp.Compile.bc_listings cc))
  in
  Alcotest.(check (list string)) "per-drain register files"
    [ "__omp_outlined_0#0: registers: 2 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#1: registers: 2 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#2: registers: 4 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#3: registers: 2 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#4: registers: 2 int (iv=i0, upper=i1), 3 float";
      "__omp_outlined_0#5: registers: 2 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#6: registers: 2 int (iv=i0, upper=i1), 3 float";
      "__omp_outlined_0#7: registers: 4 int (iv=i0, upper=i1), 1 float";
      "__omp_outlined_0#8: registers: 2 int (iv=i0, upper=i1), 4 float" ]
    headers

(* A native loop is proven in range once per entry; only an entry the
   proof cannot cover runs the checked loop, and Profile counts it.  A
   [!=] test has no closed-form trip, so each entry of such a loop is
   checked, with the sum the proven [<] loop gives. *)
let rows_src cmp =
  Printf.sprintf
    {|
fn f(n: i64, x: []f64) f64 {
    var acc: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: acc) shared(x)
    while (i < n) : (i += 1) {
        var s: f64 = 0.0;
        var k: i64 = 0;
        while (k %s i) : (k += 1) {
            s += x[k] * x[k];
        }
        acc += s;
    }
    return acc;
}
|}
    cmp

let test_loops_checked () =
  Omprt.Api.set_num_threads 1;
  let n = 9 in
  let run cmp =
    Omprt.Profile.reset ();
    let p = Interp.load ~name:"rows.zr" (rows_src cmp) in
    let cc = Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p in
    let r =
      Interp.Compile.call cc "f"
        [ V.VInt n; V.VFloatArr (Array.init n float_of_int) ]
    in
    let bc = Omprt.Profile.bc_stats () in
    Omprt.Profile.reset ();
    Alcotest.(check int) (cmp ^ ": no bailouts") 0 bc.Omprt.Profile.bc_bailouts;
    (r, bc.Omprt.Profile.bc_loop_fallbacks)
  in
  let lt, lt_checked = run "<" and ne, ne_checked = run "!=" in
  Alcotest.(check int) "<: no checked loop entry" 0 lt_checked;
  Alcotest.(check int) "!=: every entry checked" (n - 1) ne_checked;
  Alcotest.(check bool) "< and != agree" true (compare lt ne = 0)

(* collapse(n) loops: the fused-iteration-space drain — counter
   recovery by division/modulo per nest level — specialises into the
   [recover] superinstruction instead of bailing to closures, and the
   bytecode result matches the compiled tier (including downward
   steps, whose recovery multiplies by a negative immediate). *)
let collapse_src =
  {|
fn f(n: i64, hits: []i64) i64 {
    var i: i64 = 0;
    //$omp parallel for collapse(3) shared(hits)
    while (i < 5) : (i += 1) {
        var j: i64 = 0;
        while (j < 7) : (j += 1) {
            var k: i64 = 0;
            while (k < 3) : (k += 1) {
                hits[i * 21 + j * 3 + k] += 1;
            }
        }
    }
    var t: i64 = 0;
    var s: i64 = 0;
    while (t < n) : (t += 1) { s += hits[t] * (t + 1); }
    return s;
}

fn down(a: []i64) i64 {
    var s: i64 = 0;
    var i: i64 = 9;
    //$omp parallel for collapse(2) reduction(+: s) shared(a)
    while (i >= 0) : (i -= 3) {
        var j: i64 = 0;
        while (j < 8) : (j += 2) {
            s += a[i * 8 + j];
        }
    }
    return s;
}
|}

let test_collapse_bytecode () =
  Omprt.Api.set_num_threads 4;
  let n = 105 in
  let run backend fname args =
    Omprt.Profile.reset ();
    let p = Interp.load ~name:"collapse.zr" collapse_src in
    let cc =
      match backend with
      | `Compiled -> Interp.Compile.compile p
      | `Bytecode -> Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p
    in
    let r = Interp.Compile.call cc "f" args in
    ignore fname;
    let bc = Omprt.Profile.bc_stats () in
    Omprt.Profile.reset ();
    (r, bc, cc)
  in
  let args () = [ V.VInt n; V.VIntArr (Array.make n 0) ] in
  let cres, _, _ = run `Compiled "f" (args ()) in
  let bres, bc, cc = run `Bytecode "f" (args ()) in
  Alcotest.(check bool) "compiled = bytecode" true (compare cres bres = 0);
  Alcotest.(check int) "no bailouts" 0 bc.Omprt.Profile.bc_bailouts;
  Alcotest.(check bool) "drains entered" true
    (bc.Omprt.Profile.bc_entered > 0);
  let contains_at l from re =
    from + String.length re <= String.length l
    && String.sub l from (String.length re) = re
  in
  let has_recover l =
    let rec go from =
      from < String.length l
      && (contains_at l from "recover " || go (from + 1))
    in
    go 0
  in
  let recovers listing =
    List.length
      (List.filter has_recover (String.split_on_char '\n' listing))
  in
  (match Interp.Compile.bc_listings cc with
   | [ (_, listing) ] ->
       Alcotest.(check int) "one recover per nest level" 3
         (recovers listing)
   | l -> Alcotest.failf "expected one listing, got %d" (List.length l));
  (* mixed/downward steps under the bytecode tier *)
  let a = Array.init 80 (fun t -> (t * t) mod 97) in
  let expected = ref 0 in
  for i = 0 to 9 do
    for j = 0 to 7 do
      if i mod 3 = 0 && j mod 2 = 0 then
        expected := !expected + a.((i * 8) + j)
    done
  done;
  Omprt.Profile.reset ();
  let p = Interp.load ~name:"collapse.zr" collapse_src in
  let cc = Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p in
  let r = Interp.Compile.call cc "down" [ V.VIntArr (Array.copy a) ] in
  let bc = Omprt.Profile.bc_stats () in
  Omprt.Profile.reset ();
  Alcotest.(check int) "down: no bailouts" 0 bc.Omprt.Profile.bc_bailouts;
  Alcotest.(check bool) "down: drains entered" true
    (bc.Omprt.Profile.bc_entered > 0);
  (match r with
   | V.VInt got -> Alcotest.(check int) "down: sum" !expected got
   | v -> Alcotest.failf "down: expected an int, got %s" (V.type_name v))

(* EP and IS loop bodies call registered host functions (ep_batch and
   the is_ phases), which the planner must refuse: every drain
   execution is a bailout, nothing specialises, and each drain names
   the call as its reason. *)
let test_ep_is_bail () =
  let reasons name src =
    let p = Interp.load ~name src in
    Interp.Compile.bc_listings
      (Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p)
  in
  Alcotest.(check (list (pair string string))) "EP: bail reasons"
    [ ("__omp_outlined_0#0", "closures: calls 'ep_batch', not a VM builtin\n") ]
    (reasons "ep_main.zr" Harness.Zr_ep.src);
  Alcotest.(check (list (pair string string))) "IS: bail reasons"
    [ ("__omp_outlined_0#0",
       "closures: calls 'is_bucket_rank', not a VM builtin\n") ]
    (reasons "is.zr" Harness.Zr_is.src);
  Omprt.Profile.reset ();
  let r = Harness.Zr_ep.run ~backend:`Bytecode ~cls:Npb.Classes.S ~nthreads:2 () in
  (match r.Npb.Result.verification with
   | Npb.Result.Verified -> ()
   | _ -> Alcotest.fail "EP class S (bytecode) must verify");
  let ep = Omprt.Profile.bc_stats () in
  Alcotest.(check int) "EP: no drain enters the VM" 0
    ep.Omprt.Profile.bc_entered;
  Alcotest.(check bool) "EP: drains bail to closures" true
    (ep.Omprt.Profile.bc_bailouts > 0);
  Omprt.Profile.reset ();
  let r = Harness.Zr_is.run ~backend:`Bytecode ~cls:Npb.Classes.S ~nthreads:2 () in
  (match r.Npb.Result.verification with
   | Npb.Result.Verified -> ()
   | _ -> Alcotest.fail "IS class S (bytecode) must verify");
  let is = Omprt.Profile.bc_stats () in
  Omprt.Profile.reset ();
  Alcotest.(check int) "IS: no drain enters the VM" 0
    is.Omprt.Profile.bc_entered;
  Alcotest.(check bool) "IS: drains bail to closures" true
    (is.Omprt.Profile.bc_bailouts > 0)

(* ------------------------------------------------------------------ *)
(* The standalone examples under compiled vs bytecode.                 *)

(* cwd is test/ under dune runtest, the workspace root under dune exec *)
let examples_dir =
  let up = Filename.concat (Filename.concat ".." "examples") "zr" in
  if Sys.file_exists up then up else Filename.concat "examples" "zr"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_examples_parity () =
  Omprt.Api.set_num_threads 4;
  List.iter
    (fun name ->
      let src = read_file (Filename.concat examples_dir name) in
      let run backend =
        let p = Zigomp.compile ~backend ~name src in
        try Ok (Zigomp.run_main p) with e -> Error (Printexc.to_string e)
      in
      let compiled = run `Compiled in
      let bytecode = run `Bytecode in
      if compiled <> bytecode then
        Alcotest.failf "%s: compiled and bytecode disagree" name)
    [ "jacobi.zr"; "mandelbrot.zr"; "histogram.zr" ]

let suite =
  [ Alcotest.test_case "ZIGOMP_BACKEND / ZIGOMP_BC_ELIDE parsing" `Quick
      test_parse_backend;
    Alcotest.test_case "unknown backend warns once, falls back" `Quick
      test_backend_warn_once;
    QCheck_alcotest.to_alcotest prop_three_tier;
    QCheck_alcotest.to_alcotest prop_oob_parity;
    Alcotest.test_case "stencil body listing golden" `Quick
      test_stencil_golden;
    Alcotest.test_case "spmv body listing golden" `Quick test_spmv_golden;
    Alcotest.test_case "dot-product drain listing golden" `Quick
      test_dot_golden;
    Alcotest.test_case "CG bodies: register-allocation golden" `Quick
      test_cg_regalloc_golden;
    Alcotest.test_case "native loops: an unprovable entry runs checked"
      `Quick test_loops_checked;
    Alcotest.test_case "collapse(n) drains enter the VM (recover op)" `Quick
      test_collapse_bytecode;
    Alcotest.test_case "EP/IS bodies bail to closures (and verify)" `Quick
      test_ep_is_bail;
    Alcotest.test_case "examples: compiled = bytecode" `Quick
      test_examples_parity;
  ]
