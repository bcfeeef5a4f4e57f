(** Staged closure compilation for preprocessed Zr programs.

    The tree walker ({!Interp}) re-dispatches on AST tags, chases
    scope-chain [Hashtbl]s and string-matches builtin names on every
    single iteration of every worksharing loop.  This pass does all of
    that exactly once, after preprocessing: each function body is
    lowered to a tree of OCaml closures over a flat mutable frame
    ([Value.t array]), with

    - names resolved at compile time to integer slots (locals), to the
      global's storage cell, or to a function — no [Hashtbl] at run
      time;
    - literal subexpressions constant-folded ({!ce} separates
      compile-time values from residual closures);
    - float-typed arithmetic, comparisons, index loads and int
      subscripts evaluated to unboxed OCaml [float]/[bool]/[int] for
      consumers that convert their operand anyway, with no [Value.t]
      built in between ({!to_float_fn}, {!to_int_fn}, {!to_bool_fn});
    - direct-call thunks for the hot [.omp.internal] builtins
      ([__omp_ws_cmp], the math helpers, [omp.get_thread_num], ...) so
      no string dispatch survives into loop bodies;
    - the generated worksharing shapes recognised whole: the
      [__kmpc_for_static_init]/[if (has)]/[while (__omp_ws_cmp ...)]
      statement sequence becomes one drain closure that talks to
      {!Omprt.Kmpc} directly and runs the loop body as [fun frame -> ...]
      per iteration, without materialising bound structs or re-parsing
      the dispatch-next protocol.

    Fallback rules: anything the compiler does not recognise — other
    builtins, method calls, hand-written code that merely resembles the
    generated shapes but uses different handle names — compiles to a
    closure that calls the shared {!Builtins.dispatch}, so the two
    backends always agree on semantics, error messages and
    {!Omprt.Profile} construct counts.  The reserved [__omp_ws] /
    [__omp_h] / [__omp_c] handle names gate the drain recognition; the
    preprocessor owns that namespace.

    Known, documented divergences from the tree walker (DESIGN.md
    "Staged interpretation"): compile-time scoping means a variable
    declared later in a re-executed block is not visible before its
    declaration, and lvalue subexpressions of assignments are evaluated
    once here (the walker evaluates them twice). *)

open Zr
module V = Value

let err = V.err

type frame = V.t array

(** A compiled expression: a value known at compile time, a residual
    closure, or a shape that lets a consumer which converts the value
    ({!to_float_fn}, {!to_int_fn}, {!to_bool_fn}) skip building it.
    Folding an expression that would raise at run time re-stages it as
    a raising closure, preserving error timing. *)
type ce =
  | Const of V.t
  | Dyn of (frame -> V.t)
  | Float of (frame -> float)
      (* float-typed: the value is [V.VFloat (f fr)] *)
  | Bool of (frame -> bool)
      (* the value is [V.VBool (f fr)] *)
  | Load of (frame -> V.t) * (frame -> int)
      (* [a[i]], closed by its consumer: the array, then the subscript *)
  | Arith of arith * ce * ce
      (* a [+ - * / %] that is not float-typed, closed by its consumer;
         never two [Const]s, which fold *)

and arith = Add | Sub | Mul | Div | Mod

let rt_arith = function
  | Add -> Rt.add
  | Sub -> Rt.sub
  | Mul -> Rt.mul
  | Div -> Rt.div
  | Mod -> Rt.modulo

(* The operator on unboxed floats: what [rt_arith] computes once either
   operand is a float.  Inlined, so the operands stay unboxed. *)
let[@inline] fop op (x : float) (y : float) =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y

let oob idx len = err "index %d out of bounds (len %d)" idx len

(* [a[idx]] of an array value, with the walker's checks and messages;
   [load_float] and [load_int] convert the element as [V.to_float] and
   [V.to_int] would. *)
let load_value arr idx =
  match arr with
  | V.VFloatArr a ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      V.VFloat a.(idx)
  | V.VIntArr a ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      V.VInt a.(idx)
  | v -> err "indexing a %s" (V.type_name v)

let[@inline] load_float arr idx =
  match arr with
  | V.VFloatArr (a : float array) ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      a.(idx)
  | V.VIntArr a ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      float_of_int a.(idx)
  | v -> err "indexing a %s" (V.type_name v)

let load_int arr idx =
  match arr with
  | V.VIntArr a ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      a.(idx)
  | V.VFloatArr a ->
      if idx < 0 || idx >= Array.length a then oob idx (Array.length a);
      int_of_float a.(idx)
  | v -> err "indexing a %s" (V.type_name v)

(* Fold a binary operator over two constants; a raise is re-staged. *)
let fold_const f x y =
  match f x y with
  | v -> Const v
  | exception V.Runtime_error _ -> Dyn (fun _ -> f x y)

(** The value closure of any compiled expression. *)
let rec force = function
  | Const v -> fun _ -> v
  | Dyn f -> f
  | Float f -> fun fr -> V.VFloat (f fr)
  | Bool f -> fun fr -> if f fr then V.VBool true else V.VBool false
  | Load (ga, gi) ->
      fun fr ->
        let arr = ga fr in
        load_value arr (gi fr)
  | Arith (op, ca, cb) ->
      let f = rt_arith op in
      let ga = force ca and gb = force cb in
      fun fr ->
        let x = ga fr in
        let y = gb fr in
        f x y

(** [V.to_float] of the value, for a consumer that converts: a
    float-array store, an operand of float-typed arithmetic, a math
    builtin's argument. *)
let to_float_fn = function
  | Const v ->
      (match V.to_float v with
       | x -> fun _ -> x
       | exception V.Runtime_error _ -> fun _ -> V.to_float v)
  | Float f -> f
  | Load (ga, gi) ->
      fun fr ->
        let arr = ga fr in
        load_float arr (gi fr)
  | c ->
      let g = force c in
      fun fr -> V.to_float (g fr)

(** [V.to_int] of the value: subscripts and [&a[i]].  An int [x op k]
    or [x op y] computes in ints when both values are ints, and through
    the generic operator otherwise. *)
let to_int_fn = function
  | Const v ->
      (match V.to_int v with
       | i -> fun _ -> i
       | exception V.Runtime_error _ -> fun _ -> V.to_int v)
  | Dyn g -> fun fr -> V.to_int (g fr)
  | Float f -> fun fr -> int_of_float (f fr)
  | Load (ga, gi) ->
      fun fr ->
        let arr = ga fr in
        load_int arr (gi fr)
  | Arith (((Add | Sub | Mul) as op), ca, Const (V.VInt k as kv)) ->
      let f = rt_arith op and ga = force ca in
      fun fr ->
        (match ga fr with
         | V.VInt x ->
             (match op with Add -> x + k | Sub -> x - k | _ -> x * k)
         | va -> V.to_int (f va kv))
  | Arith (op, ca, cb) ->
      let f = rt_arith op in
      let ga = force ca and gb = force cb in
      fun fr ->
        let va = ga fr in
        let vb = gb fr in
        (match op, va, vb with
         | Add, V.VInt x, V.VInt y -> x + y
         | Sub, V.VInt x, V.VInt y -> x - y
         | Mul, V.VInt x, V.VInt y -> x * y
         | _ -> V.to_int (f va vb))
  | Bool _ as c ->
      let g = force c in
      fun fr -> V.to_int (g fr)

(** [V.to_bool] of the value: [while]/[if] conditions and the operands
    of [and]/[or]. *)
let to_bool_fn = function
  | Bool f -> f
  | Const v ->
      (match V.to_bool v with
       | b -> fun _ -> b
       | exception V.Runtime_error _ -> fun _ -> V.to_bool v)
  | c ->
      let g = force c in
      fun fr -> V.to_bool (g fr)

(* Whether the value is a number, or evaluating it raises: then
   [to_float_fn] reads it exactly as a float operator converts it. *)
let is_number = function
  | Float _ | Load _ | Arith _ | Const (V.VFloat _ | V.VInt _) -> true
  | Const _ | Dyn _ | Bool _ -> false

let is_float_typed = function
  | Float _ | Const (V.VFloat _) -> true
  | Const _ | Dyn _ | Bool _ | Load _ | Arith _ -> false

(** A float-typed operator: one operand is float-typed, so the generic
    operator computes in floats whatever number the other operand is.
    Operands evaluate left to right; an operand that may not be a number
    is checked after both are evaluated, and if it is not one the
    generic operator raises on the two values. *)
let float_binop op ca cb : frame -> float =
  match ca, cb with
  | Const (V.VFloat x), Load (ga, gi) ->
      fun fr ->
        let arr = ga fr in
        let y = load_float arr (gi fr) in
        fop op x y
  | Load (ga, gi), Const (V.VFloat y) ->
      fun fr ->
        let arr = ga fr in
        let x = load_float arr (gi fr) in
        fop op x y
  | _ when not (is_number ca) ->
      let f = rt_arith op in
      let ga = force ca and gb = to_float_fn cb in
      fun fr ->
        let va = ga fr in
        let y = gb fr in
        let x =
          match va with
          | V.VFloat x -> x
          | V.VInt i -> float_of_int i
          | _ -> V.to_float (f va (V.VFloat y))
        in
        fop op x y
  | _ when not (is_number cb) ->
      let f = rt_arith op in
      let ga = to_float_fn ca and gb = force cb in
      fun fr ->
        let x = ga fr in
        let y =
          match gb fr with
          | V.VFloat y -> y
          | V.VInt j -> float_of_int j
          | vb -> V.to_float (f (V.VFloat x) vb)
        in
        fop op x y
  | _ ->
      let ga = to_float_fn ca and gb = to_float_fn cb in
      fun fr ->
        let x = ga fr in
        let y = gb fr in
        fop op x y

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(* Whether [compare a b = c] satisfies the comparison. *)
let[@inline] holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(** A compiled function.  Created as a stub for every program function
    before any body compiles, so direct-call sites can link against the
    record; the mutable fields are filled in by {!compile_fn}. *)
type cfn = {
  fname : string;
  nparams : int;
  captures : (int * string) array option;
      (* the outliner's capture prologue, when the function opens with
         one (see {!capture_prologue}): statement [k] fills slot
         [nparams + k] from field [snd] of parameter [fst] *)
  mutable nslots : int;
  mutable body : frame -> unit;
  mutable after_prologue : frame -> unit;
      (* the body minus the capture prologue; with [captures] only *)
  mutable layout : (int * string) list;  (* slot -> name, for goldens *)
}

type t = {
  prog : Rt.program;
  cfns : (string, cfn) Hashtbl.t;
  bc : Bcgen.opts option;  (* Some iff the bytecode tier is enabled *)
  mutable bc_drains : (string * (Bcgen.plan, string) result) list;
      (* every planned drain, newest first: its plan, or the reason
         the planner refused it *)
}

(** Per-function compile context: lexical scopes mapping names to slots
    (innermost first).  Slots are allocated monotonically — shadowing
    burns a fresh slot, which keeps every binding distinct in the
    layout. *)
type ctx = {
  cp : t;
  cfname : string;
  mutable scopes : (string * int) list list;
  mutable next_slot : int;
  mutable slots_rev : (int * string) list;
  mutable ndrains : int;
}

type res =
  | Rlocal of int
  | Rglobal of Rt.slot
  | Rfn of string
  | Runbound

let alloc ctx name =
  let s = ctx.next_slot in
  ctx.next_slot <- s + 1;
  ctx.slots_rev <- (s, name) :: ctx.slots_rev;
  (match ctx.scopes with
   | scope :: rest -> ctx.scopes <- ((name, s) :: scope) :: rest
   | [] -> assert false);
  s

let rec lookup_local scopes name =
  match scopes with
  | [] -> None
  | scope :: rest ->
      (match List.assoc_opt name scope with
       | Some s -> Some s
       | None -> lookup_local rest name)

(* Same precedence as the walker's [find_cell]-then-[fns] probing:
   locals shadow globals shadow functions shadow builtins. *)
let resolve ctx name : res =
  match lookup_local ctx.scopes name with
  | Some s -> Rlocal s
  | None ->
      (match Hashtbl.find_opt ctx.cp.prog.globals name with
       | Some sl -> Rglobal sl
       | None ->
           if Hashtbl.mem ctx.cp.prog.fns name then Rfn name else Runbound)

(* ------------------------------------------------------------------ *)
(* Bytecode tier: attempt to plan a drain body for the register VM.
   The plan runs against the pre-body scope state (before the handle
   slot exists), so it must be called first in the drain builders.     *)

let bc_res = function
  | Rlocal s -> Bcgen.Rslot s
  | Rfn _ -> Bcgen.Rfnname
  | Rglobal _ -> Bcgen.Rglobalish
  | Runbound -> Bcgen.Runbound

let bc_plan ctx ~ivslot ~step2 ~cont ~body : Bcgen.plan option =
  match ctx.cp.bc with
  | None -> None
  | Some opts ->
      let label = Printf.sprintf "%s#%d" ctx.cfname ctx.ndrains in
      ctx.ndrains <- ctx.ndrains + 1;
      let r =
        Bcgen.plan ~opts ~ast:ctx.cp.prog.ast
          ~resolve:(fun n -> bc_res (resolve ctx n))
          ~label ~ivslot ~step2 ~cont ~body
      in
      ctx.cp.bc_drains <- (label, r) :: ctx.cp.bc_drains;
      match r with Ok p -> Some p | Error _ -> None

(* ------------------------------------------------------------------ *)
(* The outliner's capture prologue.  A task function [fn F(fp, sh)]
   opens with [var x = fp.x;] / [var x__ptr = sh.x;] statements and
   never names a parameter again; a creation site whose struct
   arguments are literals holding every prologue field can then fill
   the prologue's slots itself ({!compile_task_creation}).  Recognised
   on the AST before any body compiles, since creation sites may
   compile first.  Slot numbers follow from the layout rule: the
   parameters, then the prologue's locals in order. *)

let capture_prologue (ast : Ast.t) fn_node : (int * string) array option =
  let n = Ast.node ast fn_node in
  let proto = n.Ast.lhs in
  let param k = Ast.token_text ast (Ast.extra ast (proto + 1 + (2 * k))) in
  if Ast.extra ast proto <> 2 || (Ast.node ast n.Ast.rhs).Ast.tag <> Ast.Block
  then None
  else
    let params = [ param 0; param 1 ] in
    (* [var x = p.f;] with [p] a parameter and [x] not one *)
    let capture stmt =
      let d = Ast.node ast stmt in
      if d.Ast.tag <> Ast.Var_decl || d.Ast.rhs = 0
         || List.mem (Ast.token_text ast d.Ast.main_token) params
      then None
      else
        let r = Ast.node ast d.Ast.rhs in
        if r.Ast.tag <> Ast.Field then None
        else
          let b = Ast.node ast r.Ast.lhs in
          if b.Ast.tag <> Ast.Ident then None
          else
            let p = Ast.token_text ast b.Ast.main_token in
            let field = Ast.token_text ast r.Ast.main_token in
            if p = param 0 then Some (0, field)
            else if p = param 1 then Some (1, field)
            else None
    in
    let rec split acc = function
      | s :: rest ->
          (match capture s with
           | Some c -> split (c :: acc) rest
           | None -> (List.rev acc, s :: rest))
      | [] -> (List.rev acc, [])
    in
    let caps, rest = split [] (Ast.block_stmts ast n.Ast.rhs) in
    let names_param stmt =
      let found = ref false in
      Preproc.Names.walk ast stmt (fun j ->
          let m = Ast.node ast j in
          if m.Ast.tag = Ast.Ident
             && List.mem (Ast.token_text ast m.Ast.main_token) params
          then found := true);
      !found
    in
    if param 0 = param 1
       || List.length (List.sort_uniq compare caps) <> List.length caps
       || List.exists names_param rest
    then None
    else Some (Array.of_list caps)

(* ------------------------------------------------------------------ *)
(* Invocation.                                                         *)

let invoke (f : cfn) (vals : V.t list) : V.t =
  let n = List.length vals in
  if n <> f.nparams then
    err "function '%s' expects %d arguments, got %d" f.fname f.nparams n;
  let fr = Array.make (max 1 f.nslots) V.VUndef in
  List.iteri (fun i v -> fr.(i) <- v) vals;
  (try f.body fr; V.VUnit with Rt.Return_exc v -> v)

let ccall cp fname vals =
  match Hashtbl.find_opt cp.cfns fname with
  | Some f -> invoke f vals
  | None -> err "call of unknown function '%s'" fname

(* Direct call with compiled argument closures: the callee frame is
   filled straight from the caller's frame, no argument list. *)
let invoke_direct (f : cfn) (cargs : (frame -> V.t) array) (fr0 : frame) : V.t =
  let fr = Array.make (max 1 f.nslots) V.VUndef in
  for i = 0 to Array.length cargs - 1 do
    fr.(i) <- cargs.(i) fr0
  done;
  (try f.body fr; V.VUnit with Rt.Return_exc v -> v)

(* Left-to-right, like the walker's [List.map (eval env)]. *)
let eval_args (ga : (frame -> V.t) array) (fr : frame) : V.t list =
  let n = Array.length ga in
  let rec go k =
    if k >= n then []
    else
      let v = ga.(k) fr in
      v :: go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Folding.  A compile-time [Runtime_error] is re-staged as a raising
   closure so errors keep firing at evaluation time.                   *)

let fold1 f = function
  | Const x ->
      (match f x with
       | v -> Const v
       | exception V.Runtime_error _ -> Dyn (fun _ -> f x))
  | c ->
      let g = force c in
      Dyn (fun fr -> f (g fr))

let ( let* ) = Option.bind

(* The [(name, value node)] fields of a struct literal, in order. *)
let struct_lit_fields (ast : Ast.t) (n : Ast.node) =
  List.init (Ast.extra ast n.Ast.rhs) (fun k ->
      ( Ast.token_text ast (Ast.extra ast (n.Ast.rhs + 1 + (2 * k))),
        Ast.extra ast (n.Ast.rhs + 2 + (2 * k)) ))

(* ------------------------------------------------------------------ *)
(* Syntactic probes used by the worksharing-drain recogniser.          *)

let ident_name ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag = Ast.Ident then Some (Ast.token_text ast n.Ast.main_token)
  else None

let field_parts ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag = Ast.Field then
    Some (n.Ast.lhs, Ast.token_text ast n.Ast.main_token)
  else None

(* A call whose callee is an identifier bound to nothing in the
   program — i.e. one the generic path would send to [Builtins]. *)
let builtin_call_parts ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag <> Ast.Call then None
  else
    let callee = Ast.node ast n.Ast.lhs in
    if callee.Ast.tag <> Ast.Ident then None
    else
      let fname = Ast.token_text ast callee.Ast.main_token in
      match resolve ctx fname with
      | Runbound -> Some (fname, Ast.call_args ast node)
      | Rlocal _ | Rglobal _ | Rfn _ -> None

let var_decl_parts ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag = Ast.Var_decl && n.Ast.rhs <> 0 then
    Some (Ast.token_text ast n.Ast.main_token, n.Ast.rhs)
  else None

let eq_assign_parts ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag = Ast.Assign
     && (Ast.token ast n.Ast.main_token).Token.tag = Token.Eq
  then Some (n.Ast.lhs, n.Ast.rhs)
  else None

let while_parts ctx node =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  if n.Ast.tag = Ast.While then
    Some (n.Ast.lhs, Ast.extra ast n.Ast.rhs, Ast.extra ast (n.Ast.rhs + 1))
  else None

(* [__omp_ws_cmp(<iv>, <handle>.upper, <step>)] over a given handle
   name; yields the counter name and the step expression node. *)
let cmp_call_parts ctx ~handle node =
  let* fname, args = builtin_call_parts ctx node in
  if fname <> "__omp_ws_cmp" then None
  else
    match args with
    | [ ivn; upn; stepn ] ->
        let* iv = ident_name ctx ivn in
        let* basen, fld = field_parts ctx upn in
        let* hname = ident_name ctx basen in
        if hname = handle && fld = "upper" then Some (iv, stepn) else None
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Expression compilation.                                             *)

let rec compile_expr ctx node : ce =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Int_lit -> Const (V.VInt (Ast.int_lit ast node))
  | Ast.Float_lit ->
      let text = Ast.token_text ast n.main_token in
      (match float_of_string_opt text with
       | Some f -> Const (V.VFloat f)
       | None -> Dyn (fun _ -> V.VFloat (float_of_string text)))
  | Ast.String_lit ->
      let raw = Ast.token_text ast n.main_token in
      let body = String.sub raw 1 (String.length raw - 2) in
      (match Scanf.unescaped body with
       | s -> Const (V.VStr s)
       | exception _ -> Dyn (fun _ -> V.VStr (Scanf.unescaped body)))
  | Ast.Bool_lit -> Const (V.VBool (Ast.token_text ast n.main_token = "true"))
  | Ast.Undefined_lit -> Const V.VUndef
  | Ast.Ident ->
      let name = Ast.token_text ast n.main_token in
      (match resolve ctx name with
       | Rlocal s -> Dyn (fun fr -> fr.(s))
       | Rglobal (Rt.Plain r) -> Dyn (fun _ -> !r)
       | Rglobal (Rt.Tls _ as sl) -> Dyn (fun _ -> !(Rt.slot_cell sl))
       | Rfn f -> Const (V.VFun f)
       | Runbound ->
           Dyn (fun _ -> err "use of undeclared identifier '%s'" name))
  | Ast.Bin_op -> compile_binop ctx n
  | Ast.Un_op ->
      let t = (Ast.token ast n.main_token).Token.tag in
      let f v =
        match t, v with
        | Token.Minus, V.VInt i -> V.VInt (-i)
        | Token.Minus, V.VFloat x -> V.VFloat (-.x)
        | Token.Bang, V.VBool b -> V.VBool (not b)
        | t, v ->
            err "unary '%s' on %s" (Token.tag_to_string t) (V.type_name v)
      in
      (match t, compile_expr ctx n.lhs with
       | Token.Minus, Float g -> Float (fun fr -> -.g fr)
       | Token.Bang, Bool g -> Bool (fun fr -> not (g fr))
       | _, c -> fold1 f c)
  | Ast.Index ->
      (* never folded: array contents are mutable *)
      let ga = force (compile_expr ctx n.lhs) in
      Load (ga, to_int_fn (compile_expr ctx n.rhs))
  | Ast.Field ->
      let fname = Ast.token_text ast n.main_token in
      let f base =
        match base with
        | V.VStruct fields -> V.struct_field fields fname
        | v -> err "field access '.%s' on %s" fname (V.type_name v)
      in
      fold1 f (compile_expr ctx n.lhs)
  | Ast.Deref ->
      let ga = force (compile_expr ctx n.lhs) in
      Dyn (fun fr ->
          match ga fr with
          | V.VPtr p -> Rt.ptr_read p
          | v -> err "dereference of %s" (V.type_name v))
  | Ast.Addr_of -> compile_addr_of ctx n.lhs
  | Ast.Struct_lit ->
      let fields =
        List.map
          (fun (name, vnode) -> (name, compile_expr ctx vnode))
          (struct_lit_fields ast n)
      in
      if
        List.for_all
          (fun (_, c) -> match c with Const _ -> true | _ -> false)
          fields
      then
        Const
          (V.VStruct
             (List.map
                (fun (nm, c) ->
                  match c with Const v -> (nm, v) | _ -> assert false)
                fields))
      else
        let gfields =
          List.map (fun (nm, c) -> (nm, force c)) fields
        in
        Dyn (fun fr ->
            let rec go = function
              | [] -> []
              | (nm, g) :: rest ->
                  let v = g fr in
                  (nm, v) :: go rest
            in
            V.VStruct (go gfields))
  | Ast.Call -> compile_call ctx node n
  | tag ->
      let what = match tag with Ast.Block -> "block" | _ -> "<stmt>" in
      Dyn (fun _ -> err "cannot evaluate node tag %s as an expression" what)

and compile_binop ctx n : ce =
  let ast = ctx.cp.prog.ast in
  let t = (Ast.token ast n.Ast.main_token).Token.tag in
  (* [and]/[or] on a constant left operand that converts *)
  let const_bool = function
    | Const va ->
        (match V.to_bool va with
         | b -> Some b
         | exception V.Runtime_error _ -> None)
    | _ -> None
  in
  let ca = compile_expr ctx n.lhs in
  let cb = compile_expr ctx n.rhs in
  match t with
  | Token.Kw_and ->
      (match const_bool ca, cb with
       | Some true, _ -> cb
       | Some false, _ -> Const (V.VBool false)
       | None, Bool gb ->
           let ga = to_bool_fn ca in
           Bool (fun fr -> ga fr && gb fr)
       | None, _ ->
           let ga = to_bool_fn ca and gb = force cb in
           Dyn (fun fr -> if ga fr then gb fr else V.VBool false))
  | Token.Kw_or ->
      (match const_bool ca, cb with
       | Some true, _ -> Const (V.VBool true)
       | Some false, _ -> cb
       | None, Bool gb ->
           let ga = to_bool_fn ca in
           Bool (fun fr -> ga fr || gb fr)
       | None, _ ->
           let ga = to_bool_fn ca and gb = force cb in
           Dyn (fun fr -> if ga fr then V.VBool true else gb fr))
  | Token.Plus | Token.Minus | Token.Star | Token.Slash | Token.Percent ->
      let op =
        match t with
        | Token.Plus -> Add
        | Token.Minus -> Sub
        | Token.Star -> Mul
        | Token.Slash -> Div
        | _ -> Mod
      in
      (match ca, cb with
       | Const x, Const y -> fold_const (rt_arith op) x y
       | _ when is_float_typed ca || is_float_typed cb ->
           Float (float_binop op ca cb)
       | _ -> Arith (op, ca, cb))
  | Token.Eq_eq | Token.Bang_eq | Token.Lt | Token.Lt_eq | Token.Gt
  | Token.Gt_eq ->
      let cmp =
        match t with
        | Token.Eq_eq -> Eq
        | Token.Bang_eq -> Ne
        | Token.Lt -> Lt
        | Token.Lt_eq -> Le
        | Token.Gt -> Gt
        | _ -> Ge
      in
      (match ca, cb with
       | Const x, Const y ->
           fold_const (fun a b -> V.VBool (holds cmp (Rt.compare_vals a b))) x y
       | _
         when (is_float_typed ca || is_float_typed cb)
              && is_number ca && is_number cb ->
           (* one float and one number: [Rt.compare_vals] compares
              their float conversions *)
           let ga = to_float_fn ca and gb = to_float_fn cb in
           Bool (fun fr ->
               let x = ga fr in
               let y = gb fr in
               holds cmp (Float.compare x y))
       | _, Const (V.VInt k as kv) ->
           let ga = force ca in
           Bool (fun fr ->
               match ga fr with
               | V.VInt x -> holds cmp (Int.compare x k)
               | va -> holds cmp (Rt.compare_vals va kv))
       | _ ->
           let ga = force ca and gb = force cb in
           Bool (fun fr ->
               let va = ga fr in
               let vb = gb fr in
               match va, vb with
               | V.VInt x, V.VInt y -> holds cmp (Int.compare x y)
               | _ -> holds cmp (Rt.compare_vals va vb)))
  | t ->
      let ga = force ca and gb = force cb in
      let msg = Token.tag_to_string t in
      Dyn (fun fr ->
          let _ = ga fr in
          let _ = gb fr in
          err "unsupported binary operator '%s'" msg)

and compile_addr_of ctx node : ce =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Ident ->
      let name = Ast.token_text ast n.main_token in
      (match resolve ctx name with
       | Rlocal s -> Dyn (fun fr -> V.VPtr (V.PSlot (fr, s)))
       | Rglobal (Rt.Plain r) -> Const (V.VPtr (V.PVar r))
       | Rglobal (Rt.Tls _ as sl) ->
           Dyn (fun _ -> V.VPtr (V.PVar (Rt.slot_cell sl)))
       | Rfn _ | Runbound ->
           Dyn (fun _ -> err "address of undeclared identifier '%s'" name))
  | Ast.Deref ->
      (* &p.* is p *)
      let ga = force (compile_expr ctx n.lhs) in
      Dyn (fun fr ->
          match ga fr with
          | V.VPtr _ as p -> p
          | v -> err "dereference of %s" (V.type_name v))
  | Ast.Index ->
      let ga = force (compile_expr ctx n.lhs) in
      let gi = to_int_fn (compile_expr ctx n.rhs) in
      Dyn (fun fr ->
          let arr = ga fr in
          let idx = gi fr in
          match arr with
          | V.VFloatArr a -> V.VPtr (V.PElemF (a, idx))
          | V.VIntArr a -> V.VPtr (V.PElemI (a, idx))
          | v -> err "address of an element of %s" (V.type_name v))
  | _ -> Dyn (fun _ -> err "cannot take the address of this expression")

(* ------------------------------------------------------------------ *)
(* Calls.                                                              *)

and compile_call ctx node n : ce =
  let ast = ctx.cp.prog.ast in
  let args_nodes = Ast.call_args ast node in
  let compile_args () =
    Array.of_list
      (List.map (fun a -> force (compile_expr ctx a)) args_nodes)
  in
  let indirect gcallee =
    let ga = compile_args () in
    let cp = ctx.cp in
    Dyn (fun fr ->
        match gcallee fr with
        | V.VFun fname -> ccall cp fname (eval_args ga fr)
        | v -> err "call of %s" (V.type_name v))
  in
  let callee = Ast.node ast n.Ast.lhs in
  match callee.Ast.tag with
  | Ast.Field ->
      let base = Ast.node ast callee.Ast.lhs in
      let meth = Ast.token_text ast callee.Ast.main_token in
      if
        base.Ast.tag = Ast.Ident
        && Ast.token_text ast base.Ast.main_token = "omp"
        && (match resolve ctx "omp" with
            | Rfn _ | Runbound -> true
            | Rlocal _ | Rglobal _ -> false)
      then
        (* the omp.* namespace; the three per-iteration-hot entries get
           direct thunks *)
        (match meth, args_nodes with
         | "get_thread_num", [] ->
             Dyn (fun _ -> V.VInt (Omprt.Api.get_thread_num ()))
         | "get_num_threads", [] ->
             Dyn (fun _ -> V.VInt (Omprt.Api.get_num_threads ()))
         | "get_wtime", [] ->
             Dyn (fun _ -> V.VFloat (Omprt.Api.get_wtime ()))
         | _ ->
             let ga = compile_args () in
             Dyn (fun fr -> Builtins.omp_namespace meth (eval_args ga fr)))
      else indirect (force (compile_expr ctx n.Ast.lhs))
  | Ast.Ident ->
      let fname = Ast.token_text ast callee.Ast.main_token in
      (match resolve ctx fname with
       | Rlocal s -> indirect (fun fr -> fr.(s))
       | Rglobal (Rt.Plain r) -> indirect (fun _ -> !r)
       | Rglobal (Rt.Tls _ as sl) -> indirect (fun _ -> !(Rt.slot_cell sl))
       | Rfn f ->
           let stub = Hashtbl.find ctx.cp.cfns f in
           let ga = compile_args () in
           if Array.length ga <> stub.nparams then
             Dyn (fun fr ->
                 let n = List.length (eval_args ga fr) in
                 err "function '%s' expects %d arguments, got %d" f
                   stub.nparams n)
           else Dyn (fun fr -> invoke_direct stub ga fr)
       | Runbound ->
           (match compile_task_creation ctx fname args_nodes with
            | Some thunk -> thunk
            | None -> compile_builtin ctx fname args_nodes))
  | _ -> indirect (force (compile_expr ctx n.Ast.lhs))

(* Direct thunks for the builtins that appear inside loop bodies; the
   rest route through the shared [Builtins.dispatch] match. *)
and compile_builtin ctx fname args_nodes : ce =
  let cargs = List.map (compile_expr ctx) args_nodes in
  match fname, cargs with
  | "sqrt", [ c ] ->
      let g = to_float_fn c in
      Float (fun fr -> sqrt (g fr))
  | "log", [ c ] ->
      let g = to_float_fn c in
      Float (fun fr -> log (g fr))
  | "exp", [ c ] ->
      let g = to_float_fn c in
      Float (fun fr -> exp (g fr))
  | "fabs", [ c ] ->
      let g = to_float_fn c in
      Float (fun fr -> Float.abs (g fr))
  | "floor", [ c ] ->
      let g = to_float_fn c in
      Float (fun fr -> Float.floor (g fr))
  | "float_of", [ c ] -> Float (to_float_fn c)
  | "int_of", [ c ] ->
      let g = to_int_fn c in
      Dyn (fun fr -> V.VInt (g fr))
  | _ -> compile_boxed_builtin ctx fname (Array.of_list (List.map force cargs))

and compile_boxed_builtin ctx fname ga : ce =
  let cp = ctx.cp in
  let generic () =
    Dyn (fun fr -> Builtins.dispatch ~call:(ccall cp) fname (eval_args ga fr))
  in
  match fname, ga with
  | "__omp_ws_cmp", [| gi; gu; gs |] ->
      Bool (fun fr ->
          let vi = gi fr in
          let vu = gu fr in
          let s = V.to_int (gs fr) in
          let u = V.to_int vu in
          let i = V.to_int vi in
          if s > 0 then i <= u else i >= u)
  | "__omp_min", [| ga_; gb_ |] ->
      Dyn (fun fr ->
          let a = ga_ fr in
          let b = gb_ fr in
          if Rt.compare_vals a b <= 0 then a else b)
  | "__omp_max", [| ga_; gb_ |] ->
      Dyn (fun fr ->
          let a = ga_ fr in
          let b = gb_ fr in
          if Rt.compare_vals a b >= 0 then a else b)
  | "__omp_huge", [||] -> Const (V.VFloat infinity)
  | "__omp_get_thread_num", [||] ->
      Dyn (fun _ -> V.VInt (Omprt.Api.get_thread_num ()))
  | "__kmpc_omp_taskwait", [||] ->
      Dyn (fun _ -> Omprt.Kmpc.omp_taskwait (); V.VUnit)
  | "len", [| g |] ->
      Dyn (fun fr ->
          match g fr with
          | V.VFloatArr a -> V.VInt (Array.length a)
          | V.VIntArr a -> V.VInt (Array.length a)
          | v ->
              (* same fallback the dispatch match would take *)
              (match Hashtbl.find_opt Builtins.host_fns "len" with
               | Some f -> f [ v ]
               | None -> err "unknown function or builtin '%s'/%d" "len" 1))
  | _ -> generic ()

(* [__kmpc_omp_task(F, .{ ... }, .{ ... })] where [F] opens with a
   capture prologue and both struct literals hold every prologue field
   (each field once).  The thunk evaluates the literal fields left to
   right — the generic path's order — straight into the prologue's
   slots of a fresh frame for [F], and the task runs [F]'s body after
   the prologue: no argument list, no struct, no name lookup.  [None]
   (the generic path) for any other shape. *)
and compile_task_creation ctx fname args_nodes : ce option =
  let ast = ctx.cp.prog.ast in
  let* fnode, fp_lit, sh_lit =
    match fname, args_nodes with
    | "__kmpc_omp_task", [ f; a; b ] -> Some (f, a, b)
    | _ -> None
  in
  let* task_fn = ident_name ctx fnode in
  let* stub =
    match resolve ctx task_fn with
    | Rfn f -> Hashtbl.find_opt ctx.cp.cfns f
    | Rlocal _ | Rglobal _ | Runbound -> None
  in
  let* caps = stub.captures in
  let literal_fields node =
    let n = Ast.node ast node in
    if n.Ast.tag <> Ast.Struct_lit then None
    else
      let fields = struct_lit_fields ast n in
      let names = List.map fst fields in
      if List.length (List.sort_uniq compare names) = List.length names
      then Some fields
      else None
  in
  let* fp_fields = literal_fields fp_lit in
  let* sh_fields = literal_fields sh_lit in
  let fields = [| fp_fields; sh_fields |] in
  if not (Array.for_all (fun (p, f) -> List.mem_assoc f fields.(p)) caps)
  then None
  else
    (* destination slot per literal field; -1: evaluated, unused *)
    let slot_of p f =
      match Array.find_index (( = ) (p, f)) caps with
      | Some k -> stub.nparams + k
      | None -> -1
    in
    let writes =
      List.concat
        (List.mapi
           (fun p fl ->
             List.map
               (fun (f, node) -> (force (compile_expr ctx node), slot_of p f))
               fl)
           (Array.to_list fields))
    in
    let gs = Array.of_list (List.map fst writes) in
    let dst = Array.of_list (List.map snd writes) in
    let nw = Array.length gs in
    Some
      (Dyn (fun fr ->
           let tfr = Array.make (max 1 stub.nslots) V.VUndef in
           for k = 0 to nw - 1 do
             let v = gs.(k) fr in
             let d = dst.(k) in
             if d >= 0 then tfr.(d) <- v
           done;
           Omprt.Kmpc.omp_task (fun () ->
               try stub.after_prologue tfr with Rt.Return_exc _ -> ());
           V.VUnit))

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

and compile_stmt ctx node : frame -> unit =
  let ast = ctx.cp.prog.ast in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Block -> compile_block ctx node
  | Ast.Var_decl | Ast.Const_decl ->
      (* initialiser compiles before the slot exists, so a self-reference
         resolves to the outer binding, as dynamic scoping would *)
      let g =
        if n.rhs = 0 then fun _ -> V.VUndef
        else force (compile_expr ctx n.rhs)
      in
      let s = alloc ctx (Ast.token_text ast n.main_token) in
      fun fr -> fr.(s) <- g fr
  | Ast.Assign -> compile_assign ctx n
  | Ast.While ->
      let cont = Ast.extra ast n.rhs in
      let body = Ast.extra ast (n.rhs + 1) in
      let gcond = to_bool_fn (compile_expr ctx n.lhs) in
      let gbody = compile_stmt ctx body in
      let gcont =
        if cont <> 0 then compile_stmt ctx cont else fun _ -> ()
      in
      fun fr ->
        (try
           while gcond fr do
             (try gbody fr with Rt.Continue_exc -> ());
             gcont fr
           done
         with Rt.Break_exc -> ())
  | Ast.If ->
      let then_ = Ast.extra ast n.rhs in
      let else_ = Ast.extra ast (n.rhs + 1) in
      let gcond = to_bool_fn (compile_expr ctx n.lhs) in
      let gthen = compile_stmt ctx then_ in
      if else_ = 0 then
        (fun fr -> if gcond fr then gthen fr)
      else begin
        let gelse = compile_stmt ctx else_ in
        fun fr -> if gcond fr then gthen fr else gelse fr
      end
  | Ast.Return ->
      if n.lhs = 0 then fun _ -> raise (Rt.Return_exc V.VUnit)
      else
        let g = force (compile_expr ctx n.lhs) in
        fun fr -> raise (Rt.Return_exc (g fr))
  | Ast.Break -> fun _ -> raise Rt.Break_exc
  | Ast.Continue -> fun _ -> raise Rt.Continue_exc
  | Ast.Expr_stmt ->
      (match compile_expr ctx n.lhs with
       | Const _ -> fun _ -> ()
       | c ->
           let g = force c in
           fun fr -> ignore (g fr))
  | Ast.Omp_parallel | Ast.Omp_for | Ast.Omp_parallel_for | Ast.Omp_barrier
  | Ast.Omp_critical | Ast.Omp_master | Ast.Omp_single | Ast.Omp_atomic ->
      fun _ ->
        err
          "OpenMP directive reached the interpreter: the program was not \
           preprocessed"
  | _ -> fun _ -> err "invalid statement node"

and compile_assign ctx n : frame -> unit =
  let ast = ctx.cp.prog.ast in
  let crhs = compile_expr ctx n.Ast.rhs in
  let grhs = force crhs in
  let tok = (Ast.token ast n.Ast.main_token).Token.tag in
  let combine : (V.t -> V.t -> V.t) option =
    match tok with
    | Token.Eq -> None
    | Token.Plus_eq -> Some Rt.add
    | Token.Minus_eq -> Some Rt.sub
    | Token.Star_eq -> Some Rt.mul
    | Token.Slash_eq -> Some Rt.div_assign
    | t ->
        let msg = Token.tag_to_string t in
        Some (fun _ _ -> err "unsupported assignment operator '%s'" msg)
  in
  (* a compound store whose right-hand side is float-typed combines in
     floats: [rt_arith op] (or [Rt.div_assign]) on any number and a
     [V.VFloat] is [fop op] on the converted number *)
  let typed_update =
    match crhs, tok with
    | Float f, Token.Plus_eq -> Some (Add, f)
    | Float f, Token.Minus_eq -> Some (Sub, f)
    | Float f, Token.Star_eq -> Some (Mul, f)
    | Float f, Token.Slash_eq -> Some (Div, f)
    | _ -> None
  in
  let tgt = Ast.node ast n.Ast.lhs in
  match tgt.Ast.tag with
  | Ast.Ident ->
      let name = Ast.token_text ast tgt.Ast.main_token in
      (match resolve ctx name, combine with
       | Rlocal s, None -> fun fr -> fr.(s) <- grhs fr
       | Rlocal s, Some f ->
           (match typed_update with
            | Some (op, gf) ->
                fun fr ->
                  let r = gf fr in
                  fr.(s) <-
                    (match fr.(s) with
                     | V.VFloat x -> V.VFloat (fop op x r)
                     | V.VInt i -> V.VFloat (fop op (float_of_int i) r)
                     | cur -> f cur (V.VFloat r))
            | None ->
                fun fr ->
                  let rhs = grhs fr in
                  fr.(s) <- f fr.(s) rhs)
       | Rglobal (Rt.Plain r), None -> fun fr -> r := grhs fr
       | Rglobal (Rt.Plain r), Some f ->
           fun fr ->
             let rhs = grhs fr in
             r := f !r rhs
       | Rglobal (Rt.Tls _ as sl), None ->
           fun fr -> Rt.slot_cell sl := grhs fr
       | Rglobal (Rt.Tls _ as sl), Some f ->
           fun fr ->
             let cell = Rt.slot_cell sl in
             let rhs = grhs fr in
             cell := f !cell rhs
       | (Rfn _ | Runbound), _ ->
           fun _ -> err "assignment to undeclared identifier '%s'" name)
  | Ast.Index ->
      let garr = force (compile_expr ctx tgt.Ast.lhs) in
      let gidx = to_int_fn (compile_expr ctx tgt.Ast.rhs) in
      (* the element conversions of a plain store: unboxed for a
         float-typed or loaded right-hand side *)
      let cv = match crhs with Float _ | Load _ -> crhs | _ -> Dyn grhs in
      let gfloat = to_float_fn cv and gint = to_int_fn cv in
      (match combine, typed_update with
       | None, _ ->
           fun fr ->
             let arr = garr fr in
             let idx = gidx fr in
             (match arr with
              | V.VFloatArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  a.(idx) <- gfloat fr
              | V.VIntArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  a.(idx) <- gint fr
              | v -> err "indexed assignment to %s" (V.type_name v))
       | Some _, Some (op, gf) ->
           fun fr ->
             let arr = garr fr in
             let idx = gidx fr in
             (match arr with
              | V.VFloatArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  let r = gf fr in
                  a.(idx) <- fop op a.(idx) r
              | V.VIntArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  let r = gf fr in
                  a.(idx) <- int_of_float (fop op (float_of_int a.(idx)) r)
              | v -> err "indexed assignment to %s" (V.type_name v))
       | Some f, None ->
           fun fr ->
             let arr = garr fr in
             let idx = gidx fr in
             (match arr with
              | V.VFloatArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  let rhs = grhs fr in
                  a.(idx) <- V.to_float (f (V.VFloat a.(idx)) rhs)
              | V.VIntArr a ->
                  if idx < 0 || idx >= Array.length a then
                    oob idx (Array.length a);
                  let rhs = grhs fr in
                  a.(idx) <- V.to_int (f (V.VInt a.(idx)) rhs)
              | v -> err "indexed assignment to %s" (V.type_name v)))
  | Ast.Deref ->
      let gp = force (compile_expr ctx tgt.Ast.lhs) in
      fun fr ->
        (match gp fr with
         | V.VPtr p ->
             let rhs = grhs fr in
             (match combine with
              | None -> Rt.ptr_write p rhs
              | Some f -> Rt.ptr_write p (f (Rt.ptr_read p) rhs))
         | v -> err "assignment through %s" (V.type_name v))
  | _ -> fun _ -> err "invalid assignment target"

and compile_block ctx node : frame -> unit =
  let ast = ctx.cp.prog.ast in
  ctx.scopes <- [] :: ctx.scopes;
  let stmts = compile_stmts ctx (Ast.block_stmts ast node) in
  ctx.scopes <- List.tl ctx.scopes;
  sequence stmts

(* No closure per run: [Array.iter (fun s -> s fr)] would allocate one
   for every execution of the block. *)
and sequence = function
  | [||] -> fun _ -> ()
  | [| s |] -> s
  | [| s1; s2 |] ->
      fun fr ->
        s1 fr;
        s2 fr
  | arr ->
      fun fr ->
        for k = 0 to Array.length arr - 1 do
          arr.(k) fr
        done

and compile_stmts ctx stmts : (frame -> unit) array =
  let out = ref [] in
  let rec go = function
    | [] -> ()
    | s :: rest ->
        (match try_worksharing ctx s rest with
         | Some (closure, rest') ->
             out := closure :: !out;
             go rest'
         | None ->
             out := compile_stmt ctx s :: !out;
             go rest)
  in
  go stmts;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Worksharing drains.  The preprocessor emits exactly two statement
   shapes (loops.ml); both are recognised whole and lowered to closures
   that talk to the runtime directly.  The reserved handle names gate
   the match, so user code never trips it by accident.                 *)

and try_worksharing ctx stmt rest :
    ((frame -> unit) * int list) option =
  match try_dispatch_drain ctx stmt rest with
  | Some _ as r -> r
  | None -> try_static_drain ctx stmt rest

(*  var __omp_ws = __kmpc_for_static_init(cv, ub, step, incl);
    if (__omp_ws.has) {
        __omp_iv = __omp_ws.lower;
        while (__omp_ws_cmp(__omp_iv, __omp_ws.upper, step)) : (cont) BODY
    }                                                                  *)
and try_static_drain ctx decl rest =
  let ast = ctx.cp.prog.ast in
  let* wname, init = var_decl_parts ctx decl in
  if wname <> "__omp_ws" then None
  else
    let* fname, args = builtin_call_parts ctx init in
    if fname <> "__kmpc_for_static_init" then None
    else
      let* cv, ub, stp, incl =
        match args with [ a; b; c; d ] -> Some (a, b, c, d) | _ -> None
      in
      match rest with
      | [] -> None
      | ifn :: rest' ->
          let nif = Ast.node ast ifn in
          if nif.Ast.tag <> Ast.If then None
          else
            let then_ = Ast.extra ast nif.Ast.rhs in
            let else_ = Ast.extra ast (nif.Ast.rhs + 1) in
            if else_ <> 0 then None
            else
              let* cbase, cfld = field_parts ctx nif.Ast.lhs in
              let* cbn = ident_name ctx cbase in
              if not (cbn = "__omp_ws" && cfld = "has") then None
              else if (Ast.node ast then_).Ast.tag <> Ast.Block then None
              else
                (match Ast.block_stmts ast then_ with
                 | [ asn; whn ] ->
                     let* tgtn, av = eq_assign_parts ctx asn in
                     let* ivname = ident_name ctx tgtn in
                     let* abase, afld = field_parts ctx av in
                     let* abn = ident_name ctx abase in
                     if not (abn = "__omp_ws" && afld = "lower") then None
                     else
                       let* wcond, wcont, wbody = while_parts ctx whn in
                       if wcont = 0 then None
                       else
                         let* iv2, step2 =
                           cmp_call_parts ctx ~handle:"__omp_ws" wcond
                         in
                         if iv2 <> ivname then None
                         else
                           (match resolve ctx ivname with
                            | Rlocal ivslot ->
                                Some
                                  (build_static_drain ctx ~cv ~ub ~stp ~incl
                                     ~ivslot ~step2 ~cont:wcont ~body:wbody,
                                   rest')
                            | Rglobal _ | Rfn _ | Runbound -> None)
                 | _ -> None)

and build_static_drain ctx ~cv ~ub ~stp ~incl ~ivslot ~step2 ~cont ~body =
  let bplan = bc_plan ctx ~ivslot ~step2 ~cont ~body in
  let bc_on = ctx.cp.bc <> None in
  (* initialiser closures compile before the handle slot exists *)
  let gcv = force (compile_expr ctx cv) in
  let gub = force (compile_expr ctx ub) in
  let gstp = force (compile_expr ctx stp) in
  let gincl = force (compile_expr ctx incl) in
  ignore (alloc ctx "__omp_ws");
  (* the if-then block opened a scope on the generic path *)
  ctx.scopes <- [] :: ctx.scopes;
  let gstep2 = to_int_fn (compile_expr ctx step2) in
  let gbody = compile_stmt ctx body in
  let gcont = compile_stmt ctx cont in
  ctx.scopes <- List.tl ctx.scopes;
  fun fr ->
    let vcv = gcv fr in
    let vub = gub fr in
    let vstp = gstp fr in
    let vincl = gincl fr in
    let lo = V.to_int vcv in
    let step = V.to_int vstp in
    let hi =
      if V.to_int vincl = 1 then
        (if step > 0 then V.to_int vub + 1 else V.to_int vub - 1)
      else V.to_int vub
    in
    match Omprt.Kmpc.for_static_init ~lo ~hi ~step () with
    | None -> ()
    | Some { Omprt.Kmpc.lower; upper; _ } -> (
        match
          match bplan with Some p -> Bcexec.enter p fr | None -> None
        with
        | Some st ->
            Omprt.Profile.bc_entered_tick ();
            Bcexec.run_chunk st ~lower ~upper;
            Bcexec.writeback st fr
        | None ->
            if bc_on then Omprt.Profile.bc_bailout_tick ();
            fr.(ivslot) <- V.VInt lower;
            (try
               let rec loop () =
                 let s = gstep2 fr in
                 let i = V.to_int fr.(ivslot) in
                 if (if s > 0 then i <= upper else i >= upper) then begin
                   (try gbody fr with Rt.Continue_exc -> ());
                   gcont fr;
                   loop ()
                 end
               in
               loop ()
             with Rt.Break_exc -> ()))

(*  var __omp_h = <init_fn>(cv, ub, step, chunk, incl);
    var __omp_c = __kmpc_dispatch_next(__omp_h);
    while (__omp_c.more) : (__omp_c = __kmpc_dispatch_next(__omp_h)) {
        __omp_iv = __omp_c.lower;
        while (__omp_ws_cmp(__omp_iv, __omp_c.upper, step)) : (cont) BODY
    }                                                                  *)
and try_dispatch_drain ctx stmt rest =
  let ast = ctx.cp.prog.ast in
  let* hname, hinit = var_decl_parts ctx stmt in
  if hname <> "__omp_h" then None
  else
    let* initfn, iargs = builtin_call_parts ctx hinit in
    let* kind =
      match initfn with
      | "__kmpc_static_chunked_init" -> Some `Chunked
      | "__kmpc_dispatch_init_dynamic" -> Some `Dynamic
      | "__kmpc_dispatch_init_guided" -> Some `Guided
      | "__kmpc_dispatch_init_runtime" -> Some `Runtime
      | _ -> None
    in
    let* cv, ub, stp, chk, incl =
      match iargs with
      | [ a; b; c; d; e ] -> Some (a, b, c, d, e)
      | _ -> None
    in
    match rest with
    | declc :: whn :: rest' ->
        let* cname, cinit = var_decl_parts ctx declc in
        if cname <> "__omp_c" then None
        else
          let* dn, dargs = builtin_call_parts ctx cinit in
          if dn <> "__kmpc_dispatch_next" then None
          else
            let* h1 =
              match dargs with [ x ] -> ident_name ctx x | _ -> None
            in
            if h1 <> "__omp_h" then None
            else
              let* wcond, wcont, wbody = while_parts ctx whn in
              if wcont = 0 then None
              else
                let* cb, cf = field_parts ctx wcond in
                let* cbn = ident_name ctx cb in
                if not (cbn = "__omp_c" && cf = "more") then None
                else
                  let* ct, cval = eq_assign_parts ctx wcont in
                  let* ctn = ident_name ctx ct in
                  if ctn <> "__omp_c" then None
                  else
                    let* dn2, dargs2 = builtin_call_parts ctx cval in
                    if dn2 <> "__kmpc_dispatch_next" then None
                    else
                      let* h2 =
                        match dargs2 with
                        | [ x ] -> ident_name ctx x
                        | _ -> None
                      in
                      if h2 <> "__omp_h" then None
                      else if (Ast.node ast wbody).Ast.tag <> Ast.Block then
                        None
                      else
                        (match Ast.block_stmts ast wbody with
                         | [ asn; iwh ] ->
                             let* tgtn, av = eq_assign_parts ctx asn in
                             let* ivname = ident_name ctx tgtn in
                             let* ab, af = field_parts ctx av in
                             let* abn = ident_name ctx ab in
                             if not (abn = "__omp_c" && af = "lower") then
                               None
                             else
                               let* icond, icont, ibody =
                                 while_parts ctx iwh
                               in
                               if icont = 0 then None
                               else
                                 let* iv2, step2 =
                                   cmp_call_parts ctx ~handle:"__omp_c" icond
                                 in
                                 if iv2 <> ivname then None
                                 else
                                   (match resolve ctx ivname with
                                    | Rlocal ivslot ->
                                        Some
                                          (build_dispatch_drain ctx ~kind ~cv
                                             ~ub ~stp ~chk ~incl ~ivslot
                                             ~step2 ~icont ~ibody,
                                           rest')
                                    | Rglobal _ | Rfn _ | Runbound -> None)
                         | _ -> None)
    | _ -> None

and build_dispatch_drain ctx ~kind ~cv ~ub ~stp ~chk ~incl ~ivslot ~step2
    ~icont ~ibody =
  let bplan = bc_plan ctx ~ivslot ~step2 ~cont:icont ~body:ibody in
  let bc_on = ctx.cp.bc <> None in
  let gcv = force (compile_expr ctx cv) in
  let gub = force (compile_expr ctx ub) in
  let gstp = force (compile_expr ctx stp) in
  let gchk = force (compile_expr ctx chk) in
  let gincl = force (compile_expr ctx incl) in
  ignore (alloc ctx "__omp_h");
  ignore (alloc ctx "__omp_c");
  (* the outer while body block opened a scope on the generic path *)
  ctx.scopes <- [] :: ctx.scopes;
  let gstep2 = to_int_fn (compile_expr ctx step2) in
  let gbody = compile_stmt ctx ibody in
  let gcont = compile_stmt ctx icont in
  ctx.scopes <- List.tl ctx.scopes;
  (* one claimed chunk: break exits the inner while only, so the next
     chunk still runs — same nesting as the generated loops *)
  let run_chunk fr lower upper =
    fr.(ivslot) <- V.VInt lower;
    try
      let rec loop () =
        let s = gstep2 fr in
        let i = V.to_int fr.(ivslot) in
        if (if s > 0 then i <= upper else i >= upper) then begin
          (try gbody fr with Rt.Continue_exc -> ());
          gcont fr;
          loop ()
        end
      in
      loop ()
    with Rt.Break_exc -> ()
  in
  fun fr ->
    let vcv = gcv fr in
    let vub = gub fr in
    let vstp = gstp fr in
    let vchk = gchk fr in
    let vincl = gincl fr in
    let lo = V.to_int vcv in
    let step = V.to_int vstp in
    let chunk0 = V.to_int vchk in
    let hi =
      if V.to_int vincl = 1 then
        (if step > 0 then V.to_int vub + 1 else V.to_int vub - 1)
      else V.to_int vub
    in
    let bst = match bplan with Some p -> Bcexec.enter p fr | None -> None in
    (match bst with
     | Some _ -> Omprt.Profile.bc_entered_tick ()
     | None -> if bc_on then Omprt.Profile.bc_bailout_tick ());
    (* the closure tier only touches the frame when a chunk runs, so
       the bytecode writeback must stay conditional on that too *)
    let ran = ref false in
    let run_chunk fr lower upper =
      match bst with
      | Some st ->
          ran := true;
          Bcexec.run_chunk st ~lower ~upper
      | None -> run_chunk fr lower upper
    in
    (match kind with
     | `Chunked ->
         let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
         let tid = Omprt.Api.get_thread_num () in
         let nth = Omprt.Api.get_num_threads () in
         Omprt.Ws.static_chunks_iter ~tid ~nthreads:nth ~trips ~chunk:chunk0
           (fun b e -> run_chunk fr (lo + (b * step)) (lo + ((e - 1) * step)))
     | (`Dynamic | `Guided | `Runtime) as k ->
         let chunk = max 1 chunk0 in
         let sched =
           match k with
           | `Dynamic -> Omp_model.Sched.Dynamic chunk
           | `Guided -> Omp_model.Sched.Guided chunk
           | `Runtime -> Omp_model.Sched.Runtime
         in
         let d = Omprt.Kmpc.dispatch_init ~sched ~lo ~hi ~step () in
         let rec drain () =
           match Omprt.Kmpc.dispatch_next d with
           | Some (lower, upper) ->
               run_chunk fr lower upper;
               drain ()
           | None -> ()
         in
         drain ());
    match bst with
    | Some st when !ran -> Bcexec.writeback st fr
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Program compilation: stubs first so direct calls can link, then the
   bodies.                                                             *)

let compile_fn cp fname fn_node =
  let ast = cp.prog.ast in
  let n = Ast.node ast fn_node in
  let proto = n.Ast.lhs in
  let nparams = Ast.extra ast proto in
  let ctx =
    { cp; cfname = fname; scopes = [ [] ]; next_slot = 0; slots_rev = [];
      ndrains = 0 }
  in
  for k = 0 to nparams - 1 do
    let name_tok = Ast.extra ast (proto + 1 + (2 * k)) in
    ignore (alloc ctx (Ast.token_text ast name_tok))
  done;
  let stub = Hashtbl.find cp.cfns fname in
  (match stub.captures with
   | None -> stub.body <- compile_stmt ctx n.Ast.rhs
   | Some caps ->
       (* the body block, compiled as prologue then the rest, in one
          scope — the same closures and slots as [compile_block] *)
       let k = Array.length caps in
       let stmts = Ast.block_stmts ast n.Ast.rhs in
       ctx.scopes <- [] :: ctx.scopes;
       let prologue =
         sequence (compile_stmts ctx (List.filteri (fun i _ -> i < k) stmts))
       in
       assert (ctx.next_slot = nparams + k);
       let rest =
         sequence (compile_stmts ctx (List.filteri (fun i _ -> i >= k) stmts))
       in
       ctx.scopes <- List.tl ctx.scopes;
       stub.after_prologue <- rest;
       stub.body <-
         (fun fr ->
           prologue fr;
           rest fr));
  stub.nslots <- ctx.next_slot;
  stub.layout <- List.rev ctx.slots_rev

let compile ?bc (prog : Rt.program) : t =
  let cp =
    { prog; cfns = Hashtbl.create 16; bc; bc_drains = [] }
  in
  Hashtbl.iter
    (fun fname fn_node ->
      let n = Ast.node prog.ast fn_node in
      let nparams = Ast.extra prog.ast n.Ast.lhs in
      Hashtbl.replace cp.cfns fname
        { fname; nparams; captures = capture_prologue prog.ast fn_node;
          nslots = 0; body = (fun _ -> ());
          after_prologue = (fun _ -> ()); layout = [] })
    prog.fns;
  Hashtbl.iter (fun fname fn_node -> compile_fn cp fname fn_node) prog.fns;
  cp

let program cp = cp.prog

let call cp fname args = ccall cp fname args

let run_main cp = call cp "main" []

let slot_layout cp fname =
  Option.map (fun f -> f.layout) (Hashtbl.find_opt cp.cfns fname)

let bc_enabled cp = cp.bc <> None

let bc_listings cp =
  List.filter_map
    (fun (label, r) ->
      match r with
      | Error why -> Some (label, "closures: " ^ why ^ "\n")
      | Ok p -> (
          match (Atomic.get p.Bcgen.cache, Atomic.get p.Bcgen.why) with
          | Bcgen.Cprog prog, _ -> Some (label, Bc.disasm prog)
          | (Bcgen.Cnone | Bcgen.Cfail), Some why ->
              Some (label, "closures: " ^ why ^ "\n")
          | (Bcgen.Cnone | Bcgen.Cfail), None -> None))
    (List.rev cp.bc_drains)
