(** Tree-walking evaluator for preprocessed Zr programs.

    Runs the output of {!Preproc.Preprocess} — plain Zr whose OpenMP
    constructs have become calls into the [.omp.internal] surface — by
    binding the [__kmpc_*]/[__omp_*] builtins to the real runtime
    ({!Omprt}).  Outlined functions therefore execute on actual OCaml
    domains, with the exact fork/worksharing/reduction protocol the
    paper's generated Zig code uses against libomp.

    The interpreter is deliberately simple (this substitutes for Zig's
    LLVM backend, not for its performance): dynamic typing with Zig
    debug-mode-style trapping on misuse, environments as scope chains,
    and per-call activation records so concurrent threads never share
    local state.  The performance path is the staged backend
    ({!Compile}), which shares this module's program representation
    ({!Rt}) and builtin surface ({!Builtins}) so the two backends agree
    exactly; this walker remains the executable specification. *)

open Zr

(* Re-export the value and compiler modules: [interp.ml] is the
   library's root module, so they are otherwise hidden from clients.
   [Rt] and [Builtins] are exposed for the checker ({!Check}), which
   installs its tracing and interception hooks there. *)
module Value = Value
module Compile = Compile
module Rt = Rt
module Builtins = Builtins
module Bc = Bc
module Bcgen = Bcgen
module Resolve = Resolve

exception Return_exc = Rt.Return_exc
exception Break_exc = Rt.Break_exc
exception Continue_exc = Rt.Continue_exc

(** Storage for a global: ordinary shared cell, or per-thread cells for
    [threadprivate] globals (keyed by domain id; thread 0 of every team
    is the encountering domain, so its copy persists across regions as
    the OpenMP persistence rules describe). *)
type slot = Rt.slot =
  | Plain of Value.t ref
  | Tls of { init : Value.t;
             cells : (int, Value.t ref) Hashtbl.t;
             mutex : Mutex.t }

type program = Rt.program = {
  ast : Ast.t;
  mutable res : Resolve.t option;         (* the walker's table of [ast] *)
  fns : (string, int) Hashtbl.t;          (* name -> Fn_decl node *)
  globals : (string, slot) Hashtbl.t;
}

let slot_cell = Rt.slot_cell

(* The walker's table of [prog], built the first time the walker runs
   the program's code: a global initialiser or a host call, both on the
   calling thread, and every parallel region forks from inside a call.
   The compiled tiers never build it. *)
let resolved prog =
  match prog.res with
  | Some res -> res
  | None ->
      let res = Resolve.build prog.ast in
      prog.res <- Some res;
      res

(* A scope binds interned names ({!Resolve}) to cells, the latest
   declaration first. *)
type scope = (int * Value.t ref) list ref

type env = {
  prog : program;
  res : Resolve.t;      (* [resolved prog] *)
  scopes : scope list;  (* innermost first *)
}

let err = Value.err

(* ------------------------------------------------------------------ *)
(* Environment.                                                        *)

let push_scope env = { env with scopes = ref [] :: env.scopes }

let declare env id v =
  match env.scopes with
  | scope :: _ -> scope := (id, ref v) :: !scope
  | [] -> assert false

let rec find_id id = function
  | [] -> None
  | (k, cell) :: rest -> if k = id then Some cell else find_id id rest

let rec lookup_cell scopes id =
  match scopes with
  | [] -> None
  | scope :: rest ->
      (match find_id id !scope with
       | Some _ as cell -> cell
       | None -> lookup_cell rest id)

let find_cell env id =
  match lookup_cell env.scopes id with
  | Some _ as cell -> cell
  | None ->
      Option.map slot_cell
        (Hashtbl.find_opt env.prog.globals env.res.names.(id))

(* Value semantics (arithmetic, comparison, pointer access) live in
   {!Rt}, shared verbatim with the compiled backend. *)

let arith = Rt.arith
let compare_vals = Rt.compare_vals
let ptr_read = Rt.ptr_read
let ptr_write = Rt.ptr_write

(* ------------------------------------------------------------------ *)
(* Checker instrumentation.

   Only shared-reachable locations are reported: elements of arrays,
   cells reached through pointers (the [__ptr] captures the outliner
   synthesises), and plain global cells.  Ordinary locals are created
   fresh per activation record, so they stay untraced — until their
   cell escapes through [&] (a task capturing a creator local by
   reference), after which direct accesses are traced too; the pointer
   side always routes through [Deref]. *)

let trace_access env ~rw node (acc : Rt.access) =
  match !Rt.tracer with
  | None -> ()
  | Some t ->
      let res = env.res in
      t.Rt.trace ~rw acc ~off:res.off.(node) ~hint:res.hint.(node)

let access_of_ptr = function
  | Value.PVar r -> Some (Rt.Acell r)
  | Value.PElemF (a, i) -> Some (Rt.Afelem (a, i))
  | Value.PElemI (a, i) -> Some (Rt.Aielem (a, i))
  | Value.PSlot _ -> None  (* compiled frames never reach the walker *)

let trace_ptr env ~rw node p =
  match access_of_ptr p with
  | Some acc -> trace_access env ~rw node acc
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Evaluation.                                                         *)

let rec eval env node : Value.t =
  let ast = env.prog.ast and res = env.res in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Int_lit | Ast.Float_lit | Ast.String_lit | Ast.Bool_lit ->
      res.lit.(n.main_token)
  | Ast.Undefined_lit -> VUndef
  | Ast.Ident ->
      let id = res.name.(n.main_token) in
      (match lookup_cell env.scopes id with
       | Some cell ->
           if Rt.is_escaped cell then
             trace_access env ~rw:`R node (Rt.Acell cell);
           !cell
       | None ->
           let name = res.names.(id) in
           (match Hashtbl.find_opt env.prog.globals name with
            | Some (Rt.Plain cell) ->
                trace_access env ~rw:`R node (Rt.Acell cell);
                !cell
            | Some (Rt.Tls _ as slot) -> !(slot_cell slot)
            | None ->
                if Hashtbl.mem env.prog.fns name then VFun name
                else err "use of undeclared identifier '%s'" name))
  | Ast.Bin_op -> eval_binop env n
  | Ast.Un_op ->
      let v = eval env n.lhs in
      (match (Ast.token ast n.main_token).Token.tag, v with
       | Token.Minus, Value.VInt i -> VInt (-i)
       | Token.Minus, Value.VFloat f -> VFloat (-.f)
       | Token.Bang, Value.VBool b -> VBool (not b)
       | t, v ->
           err "unary '%s' on %s" (Token.tag_to_string t) (Value.type_name v))
  | Ast.Index ->
      let arr = eval env n.lhs in
      let idx = Value.to_int (eval env n.rhs) in
      (match arr with
       | VFloatArr a ->
           if idx < 0 || idx >= Array.length a then
             err "index %d out of bounds (len %d)" idx (Array.length a);
           trace_access env ~rw:`R node (Rt.Afelem (a, idx));
           VFloat a.(idx)
       | VIntArr a ->
           if idx < 0 || idx >= Array.length a then
             err "index %d out of bounds (len %d)" idx (Array.length a);
           trace_access env ~rw:`R node (Rt.Aielem (a, idx));
           VInt a.(idx)
       | v -> err "indexing a %s" (Value.type_name v))
  | Ast.Field ->
      let base = eval env n.lhs in
      let fname = res.names.(res.name.(n.main_token)) in
      (match base with
       | VStruct fields -> Value.struct_field fields fname
       | v -> err "field access '.%s' on %s" fname (Value.type_name v))
  | Ast.Deref ->
      (match eval env n.lhs with
       | VPtr p ->
           trace_ptr env ~rw:`R node p;
           ptr_read p
       | v -> err "dereference of %s" (Value.type_name v))
  | Ast.Addr_of -> eval_addr_of env n.lhs
  | Ast.Struct_lit ->
      let count = Ast.extra ast n.rhs in
      let fields =
        List.init count (fun k ->
            let name_tok = Ast.extra ast (n.rhs + 1 + (2 * k)) in
            let vnode = Ast.extra ast (n.rhs + 2 + (2 * k)) in
            (res.names.(res.name.(name_tok)), eval env vnode))
      in
      VStruct fields
  | Ast.Call -> eval_call env node
  | tag ->
      err "cannot evaluate node tag %s as an expression"
        (match tag with Ast.Block -> "block" | _ -> "<stmt>")

and eval_binop env n =
  let ast = env.prog.ast in
  let t = (Ast.token ast n.Ast.main_token).Token.tag in
  match t with
  | Token.Kw_and ->
      if Value.to_bool (eval env n.lhs) then eval env n.rhs else VBool false
  | Token.Kw_or ->
      if Value.to_bool (eval env n.lhs) then VBool true else eval env n.rhs
  | _ ->
      let a = eval env n.lhs in
      let b = eval env n.rhs in
      (match t with
       | Token.Plus -> Rt.add a b
       | Token.Minus -> Rt.sub a b
       | Token.Star -> Rt.mul a b
       | Token.Slash -> Rt.div a b
       | Token.Percent -> Rt.modulo a b
       | Token.Eq_eq -> VBool (compare_vals a b = 0)
       | Token.Bang_eq -> VBool (compare_vals a b <> 0)
       | Token.Lt -> VBool (compare_vals a b < 0)
       | Token.Lt_eq -> VBool (compare_vals a b <= 0)
       | Token.Gt -> VBool (compare_vals a b > 0)
       | Token.Gt_eq -> VBool (compare_vals a b >= 0)
       | t -> err "unsupported binary operator '%s'" (Token.tag_to_string t))

and eval_addr_of env node =
  let ast = env.prog.ast and res = env.res in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Ident ->
      let id = res.name.(n.main_token) in
      (match find_cell env id with
       | Some cell ->
           Rt.note_escape cell;
           VPtr (PVar cell)
       | None ->
           err "address of undeclared identifier '%s'" res.names.(id))
  | Ast.Deref ->
      (* &p.* is p *)
      (match eval env n.lhs with
       | VPtr _ as p -> p
       | v -> err "dereference of %s" (Value.type_name v))
  | Ast.Index ->
      let arr = eval env n.lhs in
      let idx = Value.to_int (eval env n.rhs) in
      (match arr with
       | VFloatArr a -> VPtr (PElemF (a, idx))
       | VIntArr a -> VPtr (PElemI (a, idx))
       | v -> err "address of an element of %s" (Value.type_name v))
  | _ -> err "cannot take the address of this expression"

(* lvalue evaluation: returns read/write access *)
and eval_lvalue env node : (unit -> Value.t) * (Value.t -> unit) =
  let ast = env.prog.ast and res = env.res in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Ident ->
      let id = res.name.(n.main_token) in
      (match lookup_cell env.scopes id with
       | Some cell ->
           ((fun () ->
               if Rt.is_escaped cell then
                 trace_access env ~rw:`R node (Rt.Acell cell);
               !cell),
            fun v ->
              if Rt.is_escaped cell then
                trace_access env ~rw:`W node (Rt.Acell cell);
              cell := v)
       | None ->
           let name = res.names.(id) in
           (match Hashtbl.find_opt env.prog.globals name with
            | Some (Rt.Plain cell) ->
                ((fun () ->
                    trace_access env ~rw:`R node (Rt.Acell cell);
                    !cell),
                 fun v ->
                   trace_access env ~rw:`W node (Rt.Acell cell);
                   cell := v)
            | Some (Rt.Tls _ as slot) ->
                let cell = slot_cell slot in
                ((fun () -> !cell), fun v -> cell := v)
            | None -> err "assignment to undeclared identifier '%s'" name))
  | Ast.Index ->
      let arr = eval env n.lhs in
      let idx = Value.to_int (eval env n.rhs) in
      (match arr with
       | VFloatArr a ->
           if idx < 0 || idx >= Array.length a then
             err "index %d out of bounds (len %d)" idx (Array.length a);
           ((fun () ->
               trace_access env ~rw:`R node (Rt.Afelem (a, idx));
               Value.VFloat a.(idx)),
            fun v ->
              trace_access env ~rw:`W node (Rt.Afelem (a, idx));
              a.(idx) <- Value.to_float v)
       | VIntArr a ->
           if idx < 0 || idx >= Array.length a then
             err "index %d out of bounds (len %d)" idx (Array.length a);
           ((fun () ->
               trace_access env ~rw:`R node (Rt.Aielem (a, idx));
               Value.VInt a.(idx)),
            fun v ->
              trace_access env ~rw:`W node (Rt.Aielem (a, idx));
              a.(idx) <- Value.to_int v)
       | v -> err "indexed assignment to %s" (Value.type_name v))
  | Ast.Deref ->
      (match eval env n.lhs with
       | VPtr p ->
           ((fun () ->
               trace_ptr env ~rw:`R node p;
               ptr_read p),
            fun v ->
              trace_ptr env ~rw:`W node p;
              ptr_write p v)
       | v -> err "assignment through %s" (Value.type_name v))
  | _ -> err "invalid assignment target"

and exec env node : unit =
  let ast = env.prog.ast and res = env.res in
  let n = Ast.node ast node in
  match n.Ast.tag with
  | Ast.Block ->
      let inner = if res.scoped.(node) then push_scope env else env in
      for i = n.lhs to n.rhs - 1 do
        exec inner (Ast.extra ast i)
      done
  | Ast.Var_decl | Ast.Const_decl ->
      let v = if n.rhs = 0 then Value.VUndef else eval env n.rhs in
      declare env res.name.(n.main_token) v
  | Ast.Assign ->
      let read, write = eval_lvalue env n.lhs in
      let rhs = eval env n.rhs in
      (* Tag the write of a compound assignment with its operator for
         the checker's clause suggestions; the tag must not outlive the
         statement (the write may be an untraced scope local). *)
      let compound op rmw =
        let v = rmw (read ()) rhs in
        if Option.is_some !Rt.tracer then begin
          Rt.pending_op := Some op;
          write v;
          Rt.pending_op := None
        end
        else write v
      in
      (match (Ast.token ast n.main_token).Token.tag with
       | Token.Eq -> write rhs
       | Token.Plus_eq -> compound "+" Rt.add
       | Token.Minus_eq -> compound "-" Rt.sub
       | Token.Star_eq -> compound "*" Rt.mul
       | Token.Slash_eq -> compound "/" Rt.div_assign
       | t -> err "unsupported assignment operator '%s'" (Token.tag_to_string t))
  | Ast.While ->
      let cont = Ast.extra ast n.rhs in
      let body = Ast.extra ast (n.rhs + 1) in
      let rec loop () =
        if Value.to_bool (eval env n.lhs) then begin
          (try exec env body with Continue_exc -> ());
          if cont <> 0 then exec env cont;
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | Ast.If ->
      let then_ = Ast.extra ast n.rhs in
      let else_ = Ast.extra ast (n.rhs + 1) in
      if Value.to_bool (eval env n.lhs) then exec env then_
      else if else_ <> 0 then exec env else_
  | Ast.Return ->
      raise (Return_exc (if n.lhs = 0 then Value.VUnit else eval env n.lhs))
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc
  | Ast.Expr_stmt -> ignore (eval env n.lhs)
  | Ast.Omp_parallel | Ast.Omp_for | Ast.Omp_parallel_for | Ast.Omp_barrier
  | Ast.Omp_critical | Ast.Omp_master | Ast.Omp_single | Ast.Omp_atomic ->
      err "OpenMP directive reached the interpreter: the program was not \
           preprocessed"
  | _ -> err "invalid statement node"

(* ------------------------------------------------------------------ *)
(* Calls.                                                              *)

and eval_call env node : Value.t =
  let prog = env.prog and res = env.res in
  let ast = prog.ast in
  let n = Ast.node ast node in
  let callee = Ast.node ast n.lhs in
  match callee.Ast.tag with
  | Ast.Field ->
      let base = Ast.node ast callee.Ast.lhs in
      let meth = res.names.(res.name.(callee.Ast.main_token)) in
      if base.Ast.tag = Ast.Ident
         && res.name.(base.Ast.main_token) = res.omp
         && Option.is_none (find_cell env res.omp)
      then Builtins.omp_namespace meth (eval_args env n.rhs)
      else begin
        (* method-style call through a struct field holding a function *)
        match eval env n.lhs with
        | Value.VFun fname -> call_function prog fname (eval_args env n.rhs)
        | v -> err "call of %s" (Value.type_name v)
      end
  | Ast.Ident ->
      let id = res.name.(callee.Ast.main_token) in
      (match find_cell env id with
       | Some { contents = Value.VFun f } ->
           call_function prog f (eval_args env n.rhs)
       | Some v -> err "call of %s" (Value.type_name !v)
       | None ->
           let fname = res.names.(id) in
           if Hashtbl.mem prog.fns fname then
             call_function prog fname (eval_args env n.rhs)
           else
             Builtins.dispatch ~call:(call_function prog) fname
               (eval_args env n.rhs))
  | _ ->
      (match eval env n.lhs with
       | Value.VFun fname -> call_function prog fname (eval_args env n.rhs)
       | v -> err "call of %s" (Value.type_name v))

(* The arguments of the call whose [rhs] is [base], left to right. *)
and eval_args env base : Value.t list =
  let ast = env.prog.ast in
  List.init (Ast.extra ast base) (fun k ->
      eval env (Ast.extra ast (base + 1 + k)))

and call_function prog fname args : Value.t =
  match Hashtbl.find_opt prog.fns fname with
  | None -> err "call of unknown function '%s'" fname
  | Some fn_node ->
      let ast = prog.ast in
      let n = Ast.node ast fn_node in
      let proto = n.Ast.lhs in
      let nparams = Ast.extra ast proto in
      if List.length args <> nparams then
        err "function '%s' expects %d arguments, got %d" fname nparams
          (List.length args);
      let res = resolved prog in
      let env = { prog; res; scopes = [ ref [] ] } in
      List.iteri
        (fun k v -> declare env res.name.(Ast.extra ast (proto + 1 + (2 * k))) v)
        args;
      (try
         exec env n.Ast.rhs;
         Value.VUnit
       with Return_exc v -> v)

(* ------------------------------------------------------------------ *)
(* Program loading.                                                    *)

(** Parse a Zr program, lowering its OpenMP pragmas first unless
    [preprocess] is false; the preprocessor's own parse of its output is
    the result. *)
let parse ?(name = "<input>") ?(preprocess = true) (source : string) : Ast.t =
  if preprocess then
    (Preproc.Preprocess.run_parsed ~name source).Preproc.Synth.ast
  else fst (Parser.parse_string ~name source)

(** A fresh program over a parsed one and its walker table, if built:
    register functions and evaluate global initialisers in order.  Each
    call has its own globals, so one parse can back many executions. *)
let new_program (ast : Ast.t) (res : Resolve.t option) : program =
  let prog = {
    ast;
    res;
    fns = Hashtbl.create 16;
    globals = Hashtbl.create 16;
  } in
  List.iter
    (fun d ->
      let n = Ast.node ast d in
      match n.Ast.tag with
      | Ast.Fn_decl ->
          Hashtbl.replace prog.fns (Ast.token_text ast n.main_token) d
      | Ast.Var_decl | Ast.Const_decl ->
          let name = Ast.token_text ast n.main_token in
          let v =
            if n.rhs = 0 then Value.VUndef
            else eval { prog; res = resolved prog; scopes = [] } n.rhs
          in
          Hashtbl.replace prog.globals name (Plain (ref v))
      | Ast.Omp_threadprivate ->
          (* convert the named globals to per-thread storage, seeded
             with their current (initial) value *)
          let cl = Ast.clauses ast d in
          List.iter
            (fun id ->
              let gname =
                Ast.token_text ast (Ast.node ast id).Ast.main_token
              in
              match Hashtbl.find_opt prog.globals gname with
              | Some (Plain r) ->
                  Hashtbl.replace prog.globals gname
                    (Tls { init = !r; cells = Hashtbl.create 8;
                           mutex = Mutex.create () })
              | Some (Tls _) -> ()
              | None ->
                  Value.err
                    "threadprivate(%s): no such global variable" gname)
            cl.Ompfront.Directive.private_
      | _ -> ())
    (Ast.top_decls ast);
  prog

(** [of_ast ast] — a fresh program; its walker table is built if the
    walker runs it. *)
let of_ast ast = new_program ast None

(** The walker's table of a parsed program ({!Resolve}), for a caller
    that runs the program many times: build it once, then
    {!instantiate} it for every execution. *)
let resolve : Ast.t -> Resolve.t = Resolve.build

(** A fresh program over a resolved one, as {!of_ast}. *)
let instantiate (res : Resolve.t) : program =
  new_program res.Resolve.ast (Some res)

(** [load] — {!parse} then {!of_ast}. *)
let load ?name ?preprocess source = of_ast (parse ?name ?preprocess source)

(** Call an exported function with host values. *)
let call prog fname args = call_function prog fname args

(** [register_host name f] — make the OCaml function [f] callable from
    Zr as [name(...)], the moral equivalent of Zig's [extern fn]
    declarations used for C and Fortran interop (paper section IV).
    Must be called before execution; shadowed by same-named Zr
    functions and builtins.  The registry is shared with the compiled
    backend ({!Builtins}). *)
let register_host name f = Builtins.register_host name f

let unregister_host name = Builtins.unregister_host name

(** Run [main]. *)
let run_main prog = call prog "main" []
