(** Codegen for the register-bytecode tier ({!Bc}).

    Lowering happens in two phases, because Zr is dynamically typed and
    register banks are not:

    - {b Phase A} ([plan]), at closure-compile time inside a recognised
      worksharing drain: walk the loop body once, resolve every name
      against the enclosing compile scopes, and lower to a small
      *untyped* IR.  Everything the tier does not cover — calls,
      pointer writes, globals, strings, structs, [return], address-of,
      assignment to the loop counter or to an indexed array's own slot
      — aborts the plan; the drain then always runs on the closure
      tier.
    - {b Phase B} ([specialize]), at the first drain entry: observe the
      runtime shapes of the captured slots (int, float, bool, which
      array bank each indexed base lives in), run a monomorphic typing
      pass over the IR, and emit the two fixed-width code arrays (the
      guard-elided variant and its fully guarded twin).  The result is
      cached on the plan; a later entry whose captured shapes disagree
      with the cached signature bails to the closure tier rather than
      respecialising, so the cache is write-once.

    The typing pass is deliberately conservative: a variable must keep
    one shape for the whole body (the closure tier would happily retype
    it, so a conflict is a bailout, never a coercion), booleans are
    0/1 in the int file, and [int op int] stays integer arithmetic
    exactly where {!Rt} keeps it integer — bit-exactness with the
    closure tier is the invariant, speed only comes second.

    Emission keeps dispatches per iteration down with seven rules:
    + an assignment's root instruction writes the target register (no
      trailing [mov]);
    + an int [x +/- literal] is one [addi.i];
    + a sequential [while] is rotated (its test is emitted at entry
      and, inverted, at the back edge, so no iteration pays a [jmp]);
    + [s += a[k] * b[ix[k]]] on float arrays is one guarded
      [accmul.ld.ldx.f];
    + the operands of a [while]'s one comparison that the loop cannot
      change are computed once, before the entry test ([hoist_test]);
    + a continuation of exactly [k += imm] or [k -= imm] under the test
      [k cc r] closes with one [addcmp.br], and so does every drain;
    + such a back edge closing one accumulate over [k] becomes a [loop]
      in front of it, which {!Bcexec} runs natively.

    Every refusal raises {!Bail} with its reason: [plan]'s reach the
    compiler, [specialize]'s are kept on the plan, and [zrc run
    --dump-bc] prints both. *)

open Zr
module V = Value

(** Name resolution outcome handed in by {!Compile} (the drain's
    enclosing scopes at plan time). *)
type rres =
  | Rslot of int     (** a local of the enclosing function *)
  | Rfnname          (** a program function *)
  | Rglobalish       (** a global (plain or threadprivate) *)
  | Runbound

type opts = { elide : bool }

(** Raised with the reason a drain stays on the closure tier. *)
exception Bail of string

let bail why = raise (Bail why)
let bailf fmt = Printf.ksprintf bail fmt

(* ------------------------------------------------------------------ *)
(* Untyped IR.                                                         *)

type binop =
  | Badd | Bsub | Bmul
  | Bdiv   (** [Rt.div]: integer division iff both ints *)
  | Bmod
  | Bdiva  (** [Rt.div_assign]: always float division *)

type cmpop = Clt | Cle | Cgt | Cge | Ceq | Cne

type math1 = Msqrt | Mlog | Mexp | Mfabs | Mfloor

type uexpr =
  | UConstI of int
  | UConstF of float
  | UConstB of bool
  | ULocal of int            (* body-local index *)
  | UCap of int              (* captured-slot index *)
  | UIv
  | UDeref of int            (* hoisted scalar dereference index *)
  | UBin of binop * uexpr * uexpr
  | UCmp of cmpop * uexpr * uexpr
  | UAnd of uexpr * uexpr
  | UOr of uexpr * uexpr
  | UNeg of uexpr
  | UNot of uexpr
  | ULoad of int * uexpr     (* phase-A base index, subscript *)
  | UMath of math1 * uexpr
  | UIntOf of uexpr
  | UFloatOf of uexpr
  | ULen of int
  | UTid
  | UNtd
  | UReg of kind * int       (* emission only: a value already held in a
                                register of that kind's bank *)

and kind = KI | KF | KB

type skind =
  | SAssignL of int * uexpr
  | SAssignC of int * uexpr
  | SStore of int * uexpr * uexpr             (* base, idx, value *)
  | SOpStore of binop * int * uexpr * uexpr   (* base[idx] op= value *)
  | SIf of uexpr * ustmt list * ustmt list
  | SWhile of uexpr * ustmt list * ustmt list (* cond, body, cont *)
  | SExpr of uexpr                            (* evaluate for effects *)
  | SBreak
  | SContinue

and ustmt = { sk : skind; sline : int }

type cached = Cnone | Cfail | Cprog of Bc.program

type plan = {
  opts : opts;
  label : string;
  line : int;                           (* body's source line *)
  ivslot : int;
  step : int;                           (* literal loop step *)
  ubody : ustmt list;
  ucont : ustmt list;                   (* [] iff [fuse_cont] *)
  fuse_cont : bool;
  caps : (int * string) array;          (* (slot, name) *)
  cap_written : bool array;
  ubases : (int * bool * string) array; (* (slot, deref?, name) *)
  uderefs : (int * string) array;       (* (slot, name) *)
  uses_tid : bool;
  uses_ntd : bool;
  nlocals : int;
  lnames : string array;
  cache : cached Atomic.t;
  why : string option Atomic.t;         (* first reason an entry bailed *)
}

(** Remember the first reason an entry of [p] ran on closures. *)
let note_bail p why = ignore (Atomic.compare_and_set p.why None (Some why))

(* ------------------------------------------------------------------ *)
(* Phase A: AST -> untyped IR.                                         *)

type pa = {
  ast : Ast.t;
  resolve : string -> rres;
  pivslot : int;
  mutable scopes : (string * int) list list;
  mutable nlocals : int;
  mutable lnames_rev : string list;
  cap_tbl : (int, int) Hashtbl.t;           (* slot -> cap index *)
  mutable caps_rev : (int * string) list;
  mutable ncaps : int;
  written : (int, unit) Hashtbl.t;          (* written cap indices *)
  base_tbl : (int * bool, int) Hashtbl.t;   (* (slot, deref) -> base *)
  mutable bases_rev : (int * bool * string) list;
  mutable nbases : int;
  deref_tbl : (int, int) Hashtbl.t;         (* slot -> deref index *)
  mutable derefs_rev : (int * string) list;
  mutable nderefs : int;
  mutable ptid : bool;
  mutable pntd : bool;
}

let line_of_node pa node =
  let n = Ast.node pa.ast node in
  Source.line_of pa.ast.Ast.source
    (Ast.token pa.ast n.Ast.main_token).Token.start

let fresh_local pa name =
  let l = pa.nlocals in
  pa.nlocals <- l + 1;
  pa.lnames_rev <- name :: pa.lnames_rev;
  (match pa.scopes with
   | scope :: rest -> pa.scopes <- ((name, l) :: scope) :: rest
   | [] -> assert false);
  l

let rec lookup_scopes scopes name =
  match scopes with
  | [] -> None
  | scope :: rest ->
      (match List.assoc_opt name scope with
       | Some l -> Some l
       | None -> lookup_scopes rest name)

type nres = Nlocal of int | Ncap of int | Niv | Nother of rres

let cap_of_slot pa slot name =
  match Hashtbl.find_opt pa.cap_tbl slot with
  | Some c -> c
  | None ->
      let c = pa.ncaps in
      pa.ncaps <- c + 1;
      Hashtbl.add pa.cap_tbl slot c;
      pa.caps_rev <- (slot, name) :: pa.caps_rev;
      c

let base_of pa slot deref name =
  match Hashtbl.find_opt pa.base_tbl (slot, deref) with
  | Some b -> b
  | None ->
      let b = pa.nbases in
      pa.nbases <- b + 1;
      Hashtbl.add pa.base_tbl (slot, deref) b;
      pa.bases_rev <- (slot, deref, name) :: pa.bases_rev;
      b

let deref_of pa slot name =
  match Hashtbl.find_opt pa.deref_tbl slot with
  | Some d -> d
  | None ->
      let d = pa.nderefs in
      pa.nderefs <- d + 1;
      Hashtbl.add pa.deref_tbl slot d;
      pa.derefs_rev <- (slot, name) :: pa.derefs_rev;
      d

let name_res pa name : nres =
  match lookup_scopes pa.scopes name with
  | Some l -> Nlocal l
  | None ->
      (match pa.resolve name with
       | Rslot s when s = pa.pivslot -> Niv
       | Rslot s -> Ncap (cap_of_slot pa s name)
       | r -> Nother r)

(* The base of an indexed access / len(): an identifier bound to an
   enclosing slot, or a dereference of one.  Anything else bails.  Goes
   straight to the resolver — array bases live in the base table, never
   the capture table. *)
let base_expr pa node : int =
  let n = Ast.node pa.ast node in
  match n.Ast.tag with
  | Ast.Ident ->
      let name = Ast.token_text pa.ast n.Ast.main_token in
      (match lookup_scopes pa.scopes name with
       | Some _ -> bailf "indexes body-local '%s'" name
       | None ->
           (match pa.resolve name with
            | Rslot s when s <> pa.pivslot -> base_of pa s false name
            | _ -> bailf "indexes '%s', not a local of the function" name))
  | Ast.Deref ->
      let l = Ast.node pa.ast n.Ast.lhs in
      if l.Ast.tag <> Ast.Ident then bail "dereferences a computed array base"
      else
        let name = Ast.token_text pa.ast l.Ast.main_token in
        (match lookup_scopes pa.scopes name with
         | Some _ -> bailf "indexes body-local '%s.*'" name
         | None ->
             (match pa.resolve name with
              | Rslot s when s <> pa.pivslot -> base_of pa s true name
              | _ -> bailf "indexes '%s.*', not a local of the function" name))
  | _ -> bail "indexes a computed array"

let int_lit_of pa node : int option =
  let n = Ast.node pa.ast node in
  match n.Ast.tag with
  | Ast.Int_lit -> Some (Ast.int_lit pa.ast node)
  | Ast.Un_op
    when (Ast.token pa.ast n.Ast.main_token).Token.tag = Token.Minus ->
      if (Ast.node pa.ast n.Ast.lhs).Ast.tag <> Ast.Int_lit then None
      else Some (-Ast.int_lit pa.ast n.Ast.lhs)
  | _ -> None

let rec uexpr pa node : uexpr =
  let n = Ast.node pa.ast node in
  match n.Ast.tag with
  | Ast.Int_lit -> UConstI (Ast.int_lit pa.ast node)
  | Ast.Float_lit ->
      let text = Ast.token_text pa.ast n.Ast.main_token in
      (match float_of_string_opt text with
       | Some f -> UConstF f
       | None -> bail "malformed float literal")
  | Ast.Bool_lit -> UConstB (Ast.token_text pa.ast n.Ast.main_token = "true")
  | Ast.Ident ->
      let name = Ast.token_text pa.ast n.Ast.main_token in
      (match name_res pa name with
       | Nlocal l -> ULocal l
       | Ncap c -> UCap c
       | Niv -> UIv
       | Nother _ ->
           bailf "reads '%s', a global, function or undeclared name" name)
  | Ast.Bin_op ->
      let t = (Ast.token pa.ast n.Ast.main_token).Token.tag in
      let a () = uexpr pa n.Ast.lhs and b () = uexpr pa n.Ast.rhs in
      (match t with
       | Token.Kw_and -> let x = a () in UAnd (x, b ())
       | Token.Kw_or -> let x = a () in UOr (x, b ())
       | Token.Plus -> let x = a () in UBin (Badd, x, b ())
       | Token.Minus -> let x = a () in UBin (Bsub, x, b ())
       | Token.Star -> let x = a () in UBin (Bmul, x, b ())
       | Token.Slash -> let x = a () in UBin (Bdiv, x, b ())
       | Token.Percent -> let x = a () in UBin (Bmod, x, b ())
       | Token.Lt -> let x = a () in UCmp (Clt, x, b ())
       | Token.Lt_eq -> let x = a () in UCmp (Cle, x, b ())
       | Token.Gt -> let x = a () in UCmp (Cgt, x, b ())
       | Token.Gt_eq -> let x = a () in UCmp (Cge, x, b ())
       | Token.Eq_eq -> let x = a () in UCmp (Ceq, x, b ())
       | Token.Bang_eq -> let x = a () in UCmp (Cne, x, b ())
       | _ -> bailf "binary operator '%s'" (Token.tag_to_string t))
  | Ast.Un_op ->
      let t = (Ast.token pa.ast n.Ast.main_token).Token.tag in
      (match t with
       | Token.Minus -> UNeg (uexpr pa n.Ast.lhs)
       | Token.Bang -> UNot (uexpr pa n.Ast.lhs)
       | _ -> bailf "unary operator '%s'" (Token.tag_to_string t))
  | Ast.Index ->
      let b = base_expr pa n.Ast.lhs in
      ULoad (b, uexpr pa n.Ast.rhs)
  | Ast.Deref ->
      let l = Ast.node pa.ast n.Ast.lhs in
      if l.Ast.tag <> Ast.Ident then bail "dereferences a computed pointer"
      else
        let name = Ast.token_text pa.ast l.Ast.main_token in
        (match lookup_scopes pa.scopes name with
         | Some _ -> bailf "dereferences body-local '%s'" name
         | None ->
             (match pa.resolve name with
              | Rslot s when s <> pa.pivslot -> UDeref (deref_of pa s name)
              | _ ->
                  bailf "dereferences '%s', not a local of the function" name))
  | Ast.Call -> ucall pa node n
  | _ ->
      bailf "expression '%s' has no VM form"
        (Ast.token_text pa.ast n.Ast.main_token)

and ucall pa node n : uexpr =
  let args = Ast.call_args pa.ast node in
  let callee = Ast.node pa.ast n.Ast.lhs in
  match callee.Ast.tag with
  | Ast.Field ->
      (* only the omp.* namespace constants are representable *)
      let base = Ast.node pa.ast callee.Ast.lhs in
      let meth = Ast.token_text pa.ast callee.Ast.main_token in
      if base.Ast.tag <> Ast.Ident
         || Ast.token_text pa.ast base.Ast.main_token <> "omp"
      then bailf "calls method '%s' outside omp" meth
      else if lookup_scopes pa.scopes "omp" <> None then
        bail "'omp' is shadowed by a body local"
      else
        (match pa.resolve "omp" with
         | Rfnname | Runbound ->
             (* constant for the whole drain: one thread runs it, and a
                team resize inside the body would need a call (bails) *)
             (match meth, args with
              | "get_thread_num", [] -> pa.ptid <- true; UTid
              | "get_num_threads", [] -> pa.pntd <- true; UNtd
              | _ -> bailf "calls omp.%s" meth)
         | Rslot _ | Rglobalish -> bail "'omp' names a variable")
  | Ast.Ident ->
      let fname = Ast.token_text pa.ast callee.Ast.main_token in
      if lookup_scopes pa.scopes fname <> None then
        bailf "calls body-local '%s'" fname
      else
        (match pa.resolve fname with
         | Rslot _ | Rglobalish | Rfnname ->
             bailf "calls '%s', a program function or variable" fname
         | Runbound ->
             (match fname, args with
              | "sqrt", [ a ] -> UMath (Msqrt, uexpr pa a)
              | "log", [ a ] -> UMath (Mlog, uexpr pa a)
              | "exp", [ a ] -> UMath (Mexp, uexpr pa a)
              | "fabs", [ a ] -> UMath (Mfabs, uexpr pa a)
              | "floor", [ a ] -> UMath (Mfloor, uexpr pa a)
              | "int_of", [ a ] -> UIntOf (uexpr pa a)
              | "float_of", [ a ] -> UFloatOf (uexpr pa a)
              | "len", [ a ] -> ULen (base_expr pa a)
              | _ -> bailf "calls '%s', not a VM builtin" fname))
  | _ -> bail "calls a computed function"

let rec ustmt_list pa node : ustmt list =
  let n = Ast.node pa.ast node in
  let line = line_of_node pa node in
  let one sk = [ { sk; sline = line } ] in
  match n.Ast.tag with
  | Ast.Block ->
      pa.scopes <- [] :: pa.scopes;
      let out =
        List.concat_map (fun s -> ustmt_list pa s) (Ast.block_stmts pa.ast node)
      in
      pa.scopes <- List.tl pa.scopes;
      out
  | Ast.Var_decl | Ast.Const_decl ->
      if n.Ast.rhs = 0 then
        bailf "declares '%s' without an initialiser"
          (Ast.token_text pa.ast n.Ast.main_token);
      (* initialiser first, then the binding — the closure tier allocates
         the slot after compiling the initialiser *)
      let e = uexpr pa n.Ast.rhs in
      let l = fresh_local pa (Ast.token_text pa.ast n.Ast.main_token) in
      one (SAssignL (l, e))
  | Ast.Assign ->
      let t = (Ast.token pa.ast n.Ast.main_token).Token.tag in
      let tgt = Ast.node pa.ast n.Ast.lhs in
      (match tgt.Ast.tag with
       | Ast.Ident ->
           let name = Ast.token_text pa.ast tgt.Ast.main_token in
           let combine cur rhs =
             match t with
             | Token.Eq -> rhs
             | Token.Plus_eq -> UBin (Badd, cur, rhs)
             | Token.Minus_eq -> UBin (Bsub, cur, rhs)
             | Token.Star_eq -> UBin (Bmul, cur, rhs)
             | Token.Slash_eq -> UBin (Bdiva, cur, rhs)
             | _ -> bailf "assignment operator '%s'" (Token.tag_to_string t)
           in
           (match name_res pa name with
            | Nlocal l ->
                one (SAssignL (l, combine (ULocal l) (uexpr pa n.Ast.rhs)))
            | Ncap c ->
                Hashtbl.replace pa.written c ();
                one (SAssignC (c, combine (UCap c) (uexpr pa n.Ast.rhs)))
            | Niv | Nother _ ->
                bailf "assigns '%s', the loop counter or a non-local" name)
       | Ast.Index ->
           let b = base_expr pa tgt.Ast.lhs in
           let idx = uexpr pa tgt.Ast.rhs in
           let rhs = uexpr pa n.Ast.rhs in
           (match t with
            | Token.Eq -> one (SStore (b, idx, rhs))
            | Token.Plus_eq -> one (SOpStore (Badd, b, idx, rhs))
            | Token.Minus_eq -> one (SOpStore (Bsub, b, idx, rhs))
            | Token.Star_eq -> one (SOpStore (Bmul, b, idx, rhs))
            | Token.Slash_eq -> one (SOpStore (Bdiva, b, idx, rhs))
            | _ ->
                bailf "assignment operator '%s' on an element"
                  (Token.tag_to_string t))
       | _ -> bail "assigns through a pointer or a field")
  | Ast.While ->
      let cont = Ast.extra pa.ast n.Ast.rhs in
      let body = Ast.extra pa.ast (n.Ast.rhs + 1) in
      let cond = uexpr pa n.Ast.lhs in
      let ubody = ustmt_list pa body in
      let ucont = if cont <> 0 then ustmt_list pa cont else [] in
      one (SWhile (cond, ubody, ucont))
  | Ast.If ->
      let then_ = Ast.extra pa.ast n.Ast.rhs in
      let else_ = Ast.extra pa.ast (n.Ast.rhs + 1) in
      let cond = uexpr pa n.Ast.lhs in
      let uthen = ustmt_list pa then_ in
      let uelse = if else_ <> 0 then ustmt_list pa else_ else [] in
      one (SIf (cond, uthen, uelse))
  | Ast.Break -> one SBreak
  | Ast.Continue -> one SContinue
  | Ast.Expr_stmt ->
      let e = uexpr pa n.Ast.lhs in
      (* the closure tier constant-folds pure literal statements away *)
      (match e with
       | UConstI _ | UConstF _ | UConstB _ -> []
       | e -> one (SExpr e))
  | _ ->
      bailf "statement '%s' has no VM form"
        (Ast.token_text pa.ast n.Ast.main_token)

(* [cont] is exactly [<iv> += <literal step>] or [<iv> -= <literal>]
   with the literal [-step] — the shapes the preprocessor generates.
   That one statement fuses into the back edge; any other cont lowers
   through [ustmt_list] (which bails on counter writes like every other
   body statement). *)
let cont_is_iv_step pa cont step =
  let n = Ast.node pa.ast cont in
  let sign =
    match (Ast.token pa.ast n.Ast.main_token).Token.tag with
    | Token.Plus_eq -> 1
    | Token.Minus_eq -> -1
    | _ -> 0
  in
  n.Ast.tag = Ast.Assign && sign <> 0
  && (let tgt = Ast.node pa.ast n.Ast.lhs in
      tgt.Ast.tag = Ast.Ident
      &&
      let name = Ast.token_text pa.ast tgt.Ast.main_token in
      (match lookup_scopes pa.scopes name with
       | Some _ -> false
       | None ->
           (match pa.resolve name with
            | Rslot s -> s = pa.pivslot
            | _ -> false)))
  && (match int_lit_of pa n.Ast.rhs with
      | Some s -> sign * s = step
      | None -> false)

(** Phase A.  [cont] and [body] are the AST statement nodes of the
    recognised drain; [step2] its step expression node.  Returns
    [Error why] — closure tier — rather than raising. *)
let plan ~(opts : opts) ~(ast : Ast.t) ~(resolve : string -> rres)
    ~(label : string) ~(ivslot : int) ~(step2 : int) ~(cont : int)
    ~(body : int) : (plan, string) result =
  let pa =
    { ast; resolve; pivslot = ivslot; scopes = [ [] ]; nlocals = 0;
      lnames_rev = []; cap_tbl = Hashtbl.create 8; caps_rev = []; ncaps = 0;
      written = Hashtbl.create 4; base_tbl = Hashtbl.create 4;
      bases_rev = []; nbases = 0; deref_tbl = Hashtbl.create 4;
      derefs_rev = []; nderefs = 0; ptid = false; pntd = false }
  in
  match
    let step =
      match int_lit_of pa step2 with
      | Some s when s <> 0 -> s
      | _ -> bail "the loop step is not a nonzero integer literal"
    in
    let ubody = ustmt_list pa body in
    let fuse_cont = cont_is_iv_step pa cont step in
    let ucont = if fuse_cont then [] else ustmt_list pa cont in
    (* a continue escaping the drain's own cont statement would unwind
       past the drain in the closure tier — not expressible here *)
    let rec esc_continue stmts =
      List.exists
        (fun s ->
          match s.sk with
          | SContinue -> true
          | SIf (_, a, b) -> esc_continue a || esc_continue b
          | SWhile (_, _, c) -> esc_continue c
          | _ -> false)
        stmts
    in
    if esc_continue ucont then bail "a continue escapes the loop increment";
    let caps = Array.of_list (List.rev pa.caps_rev) in
    let cap_written =
      Array.init (Array.length caps) (fun i -> Hashtbl.mem pa.written i)
    in
    (* an array base or hoisted pointer whose own slot the body writes
       would invalidate the entry-time binding *)
    Array.iteri
      (fun c (slot, _) ->
        if cap_written.(c) then
          if Hashtbl.mem pa.base_tbl (slot, false)
             || Hashtbl.mem pa.base_tbl (slot, true)
             || Hashtbl.mem pa.deref_tbl slot
          then
            bailf "writes '%s', which it also indexes or dereferences"
              (snd caps.(c)))
      caps;
    Ok
      { opts; label; line = line_of_node pa body; ivslot; step; ubody;
        ucont; fuse_cont; caps; cap_written;
        ubases = Array.of_list (List.rev pa.bases_rev);
        uderefs = Array.of_list (List.rev pa.derefs_rev);
        uses_tid = pa.ptid; uses_ntd = pa.pntd; nlocals = pa.nlocals;
        lnames = Array.of_list (List.rev pa.lnames_rev);
        cache = Atomic.make Cnone; why = Atomic.make None }
  with
  | p -> p
  | exception Bail why -> Error why

(* ------------------------------------------------------------------ *)
(* Phase B: specialisation to the observed shapes.                     *)

(* Growable instruction buffer with a parallel source-line table. *)
type eb = {
  mutable cells : int array;
  mutable ncells : int;
  mutable lns : int array;
  mutable nlns : int;
}

let eb_make () =
  { cells = Array.make 192 0; ncells = 0; lns = Array.make 32 0; nlns = 0 }

let eb_pc (e : eb) = e.ncells

let eb_emit e line op a b c d x =
  if e.ncells + Bc.width > Array.length e.cells then begin
    let bigger = Array.make (2 * Array.length e.cells) 0 in
    Array.blit e.cells 0 bigger 0 e.ncells;
    e.cells <- bigger
  end;
  if e.nlns >= Array.length e.lns then begin
    let bigger = Array.make (2 * Array.length e.lns) 0 in
    Array.blit e.lns 0 bigger 0 e.nlns;
    e.lns <- bigger
  end;
  let p = e.ncells in
  e.cells.(p) <- op;
  e.cells.(p + 1) <- a;
  e.cells.(p + 2) <- b;
  e.cells.(p + 3) <- c;
  e.cells.(p + 4) <- d;
  e.cells.(p + 5) <- x;
  e.ncells <- p + Bc.width;
  e.lns.(e.nlns) <- line;
  e.nlns <- e.nlns + 1;
  p

let eb_patch (e : eb) cell target = e.cells.(cell) <- target

(* Drop the instructions from [pc] on. *)
let eb_truncate (e : eb) pc =
  e.ncells <- pc;
  e.nlns <- pc / Bc.width
let eb_finish (e : eb) =
  (Array.sub e.cells 0 e.ncells, Array.sub e.lns 0 e.nlns)

(* Register assignment, shared by both emitted variants. *)
type regs = {
  cap_reg : (kind * int) array;
  loc_reg : (kind * int) array;
  der_reg : (kind * int) array;
  bmap : ([ `F | `I ] * int) array;   (* phase-A base -> (bank, index) *)
  rtid : int;
  rntd : int;
  ti_base : int;                      (* first int temp register *)
  tf_base : int;
}

let iv_reg = 0
let upper_reg = 1

(* The subscript shapes the elision proof covers: [iv + c] with
   coefficient one — exactly the [Saffine] shape the analyser's
   dataflow pass tracks into {!Omp_model.Subscript}. *)
let affine_off = function
  | UIv -> Some 0
  | UBin (Badd, UIv, UConstI k) | UBin (Badd, UConstI k, UIv) -> Some k
  | UBin (Bsub, UIv, UConstI k) -> Some (-k)
  | _ -> None

let flip_cc = function
  | c when c = Bc.cc_lt -> Bc.cc_ge
  | c when c = Bc.cc_le -> Bc.cc_gt
  | c when c = Bc.cc_gt -> Bc.cc_le
  | c when c = Bc.cc_ge -> Bc.cc_lt
  | c when c = Bc.cc_eq -> Bc.cc_ne
  | _ -> Bc.cc_eq

let cc_of = function
  | Clt -> Bc.cc_lt | Cle -> Bc.cc_le | Cgt -> Bc.cc_gt
  | Cge -> Bc.cc_ge | Ceq -> Bc.cc_eq | Cne -> Bc.cc_ne

(* [x cc y] as [y (swap_cc cc) x]. *)
let swap_cc = function
  | Clt -> Cgt | Cle -> Cge | Cgt -> Clt | Cge -> Cle | c -> c

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.sk with
      | SIf (_, a, b) | SWhile (_, a, b) ->
          iter_stmts f a;
          iter_stmts f b
      | _ -> ())
    stmts

(* Whether evaluating [e] may raise: a guarded load, or an integer
   division or modulo.  Conservative: elided loads count too. *)
let rec can_raise = function
  | ULoad _ | UBin ((Bdiv | Bmod), _, _) -> true
  | UBin (_, a, b) | UCmp (_, a, b) | UAnd (a, b) | UOr (a, b) ->
      can_raise a || can_raise b
  | UNeg a | UNot a | UMath (_, a) | UIntOf a | UFloatOf a -> can_raise a
  | UConstI _ | UConstF _ | UConstB _ | ULocal _ | UCap _ | UIv | UDeref _
  | ULen _ | UTid | UNtd | UReg _ ->
      false

(* The accumulates a [loop] can run natively, with [k] as every
   subscript register: the instruction at [pc] of [cells]. *)
let loopable cells pc k =
  let op = cells.(pc) in
  (op = Bc.op_acc_ld_fu || op = Bc.op_accmul_ld_ldx_f)
  && cells.(pc + 3) = k
  || (op = Bc.op_accmul_ld_ld_fu || op = Bc.op_accmul_ld_ld_f)
     && cells.(pc + 3) = k
     && cells.(pc + 5) = k

(** Specialise [p] to the observed shapes: [ckinds] per captured slot,
    [bbanks] per indexed base, [dkinds] per hoisted dereference.
    [Error why] means the shapes fall outside the tier — the caller
    runs the closure path (and remembers the failure). *)
let specialize (p : plan) ~(ckinds : [ `I | `F | `B ] array)
    ~(bbanks : [ `F | `I ] array) ~(dkinds : [ `I | `F ] array) :
    (Bc.program, string) result =
  match
    (* ---- typing: one shape per storage location, else bail ---- *)
    let lkinds = Array.make p.nlocals None in
    let kind_of_cap c =
      match ckinds.(c) with `I -> KI | `F -> KF | `B -> KB
    in
    let kind_of_deref d = match dkinds.(d) with `I -> KI | `F -> KF in
    let rec kind_of e : kind =
      match e with
      | UConstI _ -> KI
      | UConstF _ -> KF
      | UConstB _ -> KB
      | ULocal l -> (
          match lkinds.(l) with
          | Some k -> k
          | None -> bailf "reads local '%s' before assigning it" p.lnames.(l))
      | UCap c -> kind_of_cap c
      | UIv | UTid | UNtd -> KI
      | UDeref d -> kind_of_deref d
      | UBin (Bdiva, a, b) ->
          (* Rt.div_assign: always float, both operands numeric *)
          (match (kind_of a, kind_of b) with
           | (KI | KF), (KI | KF) -> KF
           | _ -> bail "'/=' on a bool")
      | UBin (_, a, b) ->
          (match (kind_of a, kind_of b) with
           | KI, KI -> KI
           | (KI | KF), (KI | KF) -> KF
           | _ -> bail "arithmetic on a bool")
      | UCmp (_, a, b) ->
          (match (kind_of a, kind_of b) with
           | KI, KI | KB, KB -> KB
           | (KI | KF), (KI | KF) -> KB
           | _ -> bail "compares a bool with a number")
      | UAnd (a, b) | UOr (a, b) ->
          if kind_of a <> KB || kind_of b <> KB then
            bail "'and'/'or' on a non-bool";
          KB
      | UNeg a ->
          (match kind_of a with
           | KI -> KI | KF -> KF | KB -> bail "negates a bool")
      | UNot a -> if kind_of a <> KB then bail "'!' on a non-bool" else KB
      | ULoad (b, idx) ->
          if kind_of idx <> KI then bail "a subscript is not an int";
          (match bbanks.(b) with `F -> KF | `I -> KI)
      | UMath (_, a) ->
          (match kind_of a with
           | KI | KF -> KF | KB -> bail "a math builtin on a bool")
      | UIntOf a ->
          (match kind_of a with KI | KF -> KI | KB -> bail "int_of on a bool")
      | UFloatOf a ->
          (match kind_of a with KI | KF -> KF | KB -> bail "float_of on a bool")
      | ULen _ -> KI
      | UReg (k, _) -> k
    in
    let rec ty_stmt s =
      match s.sk with
      | SAssignL (l, e) ->
          let k = kind_of e in
          (match lkinds.(l) with
           | None -> lkinds.(l) <- Some k
           | Some k' ->
               if k <> k' then bailf "local '%s' changes type" p.lnames.(l))
      | SAssignC (c, e) ->
          if kind_of e <> kind_of_cap c then
            bailf "assigns captured '%s' a value of another type"
              (snd p.caps.(c))
      | SStore (b, idx, v) ->
          if kind_of idx <> KI then bail "a subscript is not an int";
          ignore (bbanks.(b));
          (match kind_of v with
           | KI | KF -> () | KB -> bail "stores a bool into an array")
      | SOpStore (_, b, idx, v) ->
          if kind_of idx <> KI then bail "a subscript is not an int";
          ignore (bbanks.(b));
          (match kind_of v with
           | KI | KF -> ()
           | KB -> bail "combines a bool into an array element")
      | SIf (c, a, b) ->
          if kind_of c <> KB then bail "an if condition is not a bool";
          List.iter ty_stmt a;
          List.iter ty_stmt b
      | SWhile (c, body, cont) ->
          if kind_of c <> KB then bail "a while condition is not a bool";
          List.iter ty_stmt body;
          List.iter ty_stmt cont
      | SExpr e -> ignore (kind_of e)
      | SBreak | SContinue -> ()
    in
    List.iter ty_stmt p.ubody;
    List.iter ty_stmt p.ucont;
    (* ---- register assignment ---- *)
    let ni = ref 2 and nf = ref 0 in
    let alloc_i () = let r = !ni in incr ni; r in
    let alloc_f () = let r = !nf in incr nf; r in
    let rtid = if p.uses_tid then alloc_i () else -1 in
    let rntd = if p.uses_ntd then alloc_i () else -1 in
    let cap_reg =
      Array.init (Array.length p.caps) (fun c ->
          match kind_of_cap c with
          | KF -> (KF, alloc_f ())
          | k -> (k, alloc_i ()))
    in
    let der_reg =
      Array.init (Array.length p.uderefs) (fun d ->
          match kind_of_deref d with
          | KF -> (KF, alloc_f ())
          | k -> (k, alloc_i ()))
    in
    let loc_reg =
      Array.init p.nlocals (fun l ->
          match lkinds.(l) with
          | Some KF -> (KF, alloc_f ())
          | Some k -> (k, alloc_i ())
          | None ->
              (* declared but never read nor typed: still needs a home *)
              (KI, alloc_i ()))
    in
    let nfb = ref 0 and nib = ref 0 in
    let bmap =
      Array.map
        (function
          | `F -> let k = !nfb in incr nfb; (`F, k)
          | `I -> let k = !nib in incr nib; (`I, k))
        bbanks
    in
    let regs =
      { cap_reg; loc_reg; der_reg; bmap; rtid; rntd; ti_base = !ni;
        tf_base = !nf }
    in
    (* ---- float constant pool, shared by both variants ---- *)
    let fpool_rev = ref [] and nfpool = ref 0 in
    let fpool_tbl : (int64, int) Hashtbl.t = Hashtbl.create 8 in
    let fpool_idx x =
      let bits = Int64.bits_of_float x in
      match Hashtbl.find_opt fpool_tbl bits with
      | Some k -> k
      | None ->
          let k = !nfpool in
          incr nfpool;
          Hashtbl.add fpool_tbl bits k;
          fpool_rev := x :: !fpool_rev;
          k
    in
    (* ---- emission of one variant ---- *)
    let mti = ref 0 and mtf = ref 0 in
    let emit_variant ~elide =
      let eb = eb_make () in
      let nti = ref 0 and ntf = ref 0 in
      let chk_tbl : ([ `F | `I ] * int, int ref * int ref) Hashtbl.t =
        Hashtbl.create 4
      in
      let record_check bank karr off =
        match Hashtbl.find_opt chk_tbl (bank, karr) with
        | Some (lo, hi) ->
            if off < !lo then lo := off;
            if off > !hi then hi := off
        | None -> Hashtbl.add chk_tbl (bank, karr) (ref off, ref off)
      in
      let save () = (!nti, !ntf) in
      let restore (a, b) = nti := a; ntf := b in
      let ti () =
        let r = regs.ti_base + !nti in
        incr nti;
        if !nti > !mti then mti := !nti;
        r
      in
      let tf () =
        let r = regs.tf_base + !ntf in
        incr ntf;
        if !ntf > !mtf then mtf := !ntf;
        r
      in
      (* value compilation; [ce_i] yields an int/bool register, [ce_f]
         a float register (coercing an int-kind operand via i2f, which
         is exactly [Value.to_float] on the shapes that reach here).
         [dst] is an assignment's target: the expression's root
         instruction writes it instead of a fresh temp, so no [mov]
         follows.  Operands never get it, and the root is the last
         instruction on every path, so each read of the target comes
         before its write.  A leaf still returns its own register. *)
      let rec ce_i ?dst ln e : int =
        let out () = match dst with Some d -> d | None -> ti () in
        match e with
        | UConstI k ->
            let d = out () in
            ignore (eb_emit eb ln Bc.op_ldc_i d k 0 0 0);
            d
        | UConstB b ->
            let d = out () in
            ignore (eb_emit eb ln Bc.op_ldc_i d (if b then 1 else 0) 0 0 0);
            d
        | ULocal l -> snd regs.loc_reg.(l)
        | UCap c -> snd regs.cap_reg.(c)
        | UIv -> iv_reg
        | UTid -> regs.rtid
        | UNtd -> regs.rntd
        | UDeref d -> snd regs.der_reg.(d)
        | UReg (_, r) -> r
        (* int [x +/- literal]: one addi.i (wrapping, like add.i) *)
        | UBin (Badd, a, UConstI k) | UBin (Badd, UConstI k, a) ->
            addi ?dst ln a k
        | UBin (Bsub, a, UConstI k) -> addi ?dst ln a (-k)
        | UBin (op, a, b) ->
            (* int kind: both operands int by typing *)
            let sv = save () in
            let ra = ce_i ln a in
            let rb = ce_i ln b in
            restore sv;
            let d = out () in
            let o =
              match op with
              | Badd -> Bc.op_add_i
              | Bsub -> Bc.op_sub_i
              | Bmul -> Bc.op_mul_i
              | Bdiv -> Bc.op_div_i
              | Bmod -> Bc.op_mod_i
              | Bdiva -> assert false
            in
            ignore (eb_emit eb ln o d ra rb 0 0);
            d
        | UCmp (c, a, b) ->
            let ka = kind_of a and kb = kind_of b in
            let sv = save () in
            if ka = KF || kb = KF then begin
              let ra = ce_f ln a in
              let rb = ce_f ln b in
              restore sv;
              let d = out () in
              ignore (eb_emit eb ln Bc.op_cmp_ff (cc_of c) d ra rb 0);
              d
            end
            else begin
              let ra = ce_i ln a in
              let rb = ce_i ln b in
              restore sv;
              let d = out () in
              ignore (eb_emit eb ln Bc.op_cmp_ii (cc_of c) d ra rb 0);
              d
            end
        | UAnd (a, b) ->
            let d = out () in
            let fl = ref [] in
            branch_if_false ln a fl;
            let sv = save () in
            let rb = ce_i ln b in
            restore sv;
            if rb <> d then ignore (eb_emit eb ln Bc.op_mov_i d rb 0 0 0);
            let pc = eb_emit eb ln Bc.op_jmp 0 0 0 0 0 in
            let here = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell here) !fl;
            ignore (eb_emit eb ln Bc.op_ldc_i d 0 0 0 0);
            eb_patch eb (pc + 1) (eb_pc eb);
            d
        | UOr (a, b) ->
            let d = out () in
            let tl = ref [] in
            branch_if_true ln a tl;
            let sv = save () in
            let rb = ce_i ln b in
            restore sv;
            if rb <> d then ignore (eb_emit eb ln Bc.op_mov_i d rb 0 0 0);
            let pc = eb_emit eb ln Bc.op_jmp 0 0 0 0 0 in
            let here = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell here) !tl;
            ignore (eb_emit eb ln Bc.op_ldc_i d 1 0 0 0);
            eb_patch eb (pc + 1) (eb_pc eb);
            d
        | UNeg a ->
            let sv = save () in
            let ra = ce_i ln a in
            restore sv;
            let d = out () in
            ignore (eb_emit eb ln Bc.op_neg_i d ra 0 0 0);
            d
        | UNot a ->
            let sv = save () in
            let ra = ce_i ln a in
            restore sv;
            let d = out () in
            ignore (eb_emit eb ln Bc.op_not_b d ra 0 0 0);
            d
        | ULoad (b, idx) -> load ?dst ln b idx
        | UIntOf a ->
            (match kind_of a with
             | KI -> ce_i ?dst ln a
             | _ ->
                 let sv = save () in
                 let ra = ce_f ln a in
                 restore sv;
                 let d = out () in
                 ignore (eb_emit eb ln Bc.op_f2i d ra 0 0 0);
                 d)
        | ULen b ->
            let bank, bi = regs.bmap.(b) in
            let d = out () in
            let o = match bank with `F -> Bc.op_len_f | `I -> Bc.op_len_i in
            ignore (eb_emit eb ln o d bi 0 0 0);
            d
        | UConstF _ | UMath _ | UFloatOf _ -> assert false
      and addi ?dst ln a k =
        let sv = save () in
        let ra = ce_i ln a in
        restore sv;
        let d = match dst with Some d -> d | None -> ti () in
        ignore (eb_emit eb ln Bc.op_addi_i d ra k 0 0);
        d
      and ce_f ?dst ln e : int =
        let out () = match dst with Some d -> d | None -> tf () in
        if kind_of e <> KF then begin
          (* int-kind value in float position: exactly [Value.to_float] *)
          let sv = save () in
          let ra = ce_i ln e in
          restore sv;
          let d = out () in
          ignore (eb_emit eb ln Bc.op_i2f d ra 0 0 0);
          d
        end
        else
        match e with
        | UConstF x ->
            let d = out () in
            ignore (eb_emit eb ln Bc.op_ldc_f d (fpool_idx x) 0 0 0);
            d
        | ULocal l -> snd regs.loc_reg.(l)
        | UCap c -> snd regs.cap_reg.(c)
        | UDeref d -> snd regs.der_reg.(d)
        | UReg (_, r) -> r
        (* constant * elidable load fuses; float multiply commutes
           bit-exactly, and the constant cannot trap, so either operand
           order folds to the same instruction *)
        | UBin (Bmul, UConstF c, (ULoad (b, sub) as l))
        | UBin (Bmul, (ULoad (b, sub) as l), UConstF c)
          when elide && fst regs.bmap.(b) = `F && affine_off sub <> None ->
            ignore l;
            let off = match affine_off sub with Some o -> o | None -> 0 in
            let _, bi = regs.bmap.(b) in
            record_check `F bi off;
            let d = out () in
            ignore
              (eb_emit eb ln Bc.op_mulc_ld_fu d bi iv_reg (fpool_idx c) off);
            d
        | UBin (op, a, b) ->
            let sv = save () in
            let ra = ce_f ln a in
            let rb = ce_f ln b in
            restore sv;
            let d = out () in
            let o =
              match op with
              | Badd -> Bc.op_add_f
              | Bsub -> Bc.op_sub_f
              | Bmul -> Bc.op_mul_f
              | Bdiv | Bdiva -> Bc.op_div_f
              | Bmod -> Bc.op_mod_f
            in
            ignore (eb_emit eb ln o d ra rb 0 0);
            d
        | UNeg a ->
            let sv = save () in
            let ra = ce_f ln a in
            restore sv;
            let d = out () in
            ignore (eb_emit eb ln Bc.op_neg_f d ra 0 0 0);
            d
        | UMath (m, a) ->
            let sv = save () in
            let ra = ce_f ln a in
            restore sv;
            let d = out () in
            let o =
              match m with
              | Msqrt -> Bc.op_sqrt
              | Mlog -> Bc.op_log
              | Mexp -> Bc.op_exp
              | Mfabs -> Bc.op_fabs
              | Mfloor -> Bc.op_floor
            in
            ignore (eb_emit eb ln o d ra 0 0 0);
            d
        | ULoad (b, idx) -> load ?dst ln b idx
        | UFloatOf a ->
            (match kind_of a with
             | KF -> ce_f ?dst ln a
             | _ ->
                 let sv = save () in
                 let ra = ce_i ln a in
                 restore sv;
                 let d = out () in
                 ignore (eb_emit eb ln Bc.op_i2f d ra 0 0 0);
                 d)
        | UIv | UTid | UNtd | UConstI _ | UConstB _ | UCmp _ | UAnd _
        | UOr _ | UNot _ | UIntOf _ | ULen _ ->
            assert false (* int kind; intercepted above *)
      (* array load, either bank; elided when the subscript is the
         analyser's affine shape and this is the elided variant *)
      and load ?dst ln b idx : int =
        let bank, bi = regs.bmap.(b) in
        let opg, opu =
          match bank with
          | `F -> (Bc.op_ld_f, Bc.op_ld_fu)
          | `I -> (Bc.op_ld_i, Bc.op_ld_iu)
        in
        let alloc_dst () =
          match (dst, bank) with
          | Some d, _ -> d
          | None, `F -> tf ()
          | None, `I -> ti ()
        in
        match affine_off idx with
        | Some off when elide ->
            record_check bank bi off;
            let d = alloc_dst () in
            ignore (eb_emit eb ln opu d bi iv_reg off 0);
            d
        | Some off ->
            let d = alloc_dst () in
            ignore (eb_emit eb ln opg d bi iv_reg off 0);
            d
        | None ->
            let sv = save () in
            let r = ce_i ln idx in
            restore sv;
            let d = alloc_dst () in
            ignore (eb_emit eb ln opg d bi r 0 0);
            d
      (* conditional branches; cmp conditions fuse into cmpbr (which
         branches when the condition does NOT hold), and/or short-
         circuit exactly like the closure tier *)
      and branch_if_false ln e (cells : int list ref) =
        match e with
        | UCmp (c, a, b) ->
            let ka = kind_of a and kb = kind_of b in
            let sv = save () in
            if ka = KF || kb = KF then begin
              let ra = ce_f ln a in
              let rb = ce_f ln b in
              restore sv;
              let pc = eb_emit eb ln Bc.op_cmpbr_ff (cc_of c) ra rb 0 0 in
              cells := (pc + 4) :: !cells
            end
            else begin
              let ra = ce_i ln a in
              let rb = ce_i ln b in
              restore sv;
              let pc = eb_emit eb ln Bc.op_cmpbr_ii (cc_of c) ra rb 0 0 in
              cells := (pc + 4) :: !cells
            end
        | UNot a -> branch_if_true ln a cells
        | UAnd (a, b) ->
            branch_if_false ln a cells;
            branch_if_false ln b cells
        | UOr (a, b) ->
            let tl = ref [] in
            branch_if_true ln a tl;
            branch_if_false ln b cells;
            let here = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell here) !tl
        | e ->
            let sv = save () in
            let r = ce_i ln e in
            restore sv;
            let pc = eb_emit eb ln Bc.op_brz r 0 0 0 0 in
            cells := (pc + 2) :: !cells
      and branch_if_true ln e (cells : int list ref) =
        match e with
        | UCmp (c, a, b) ->
            let ka = kind_of a and kb = kind_of b in
            let sv = save () in
            if ka = KF || kb = KF then begin
              let ra = ce_f ln a in
              let rb = ce_f ln b in
              restore sv;
              let pc =
                eb_emit eb ln Bc.op_cmpbr_ff (flip_cc (cc_of c)) ra rb 0 0
              in
              cells := (pc + 4) :: !cells
            end
            else begin
              let ra = ce_i ln a in
              let rb = ce_i ln b in
              restore sv;
              let pc =
                eb_emit eb ln Bc.op_cmpbr_ii (flip_cc (cc_of c)) ra rb 0 0
              in
              cells := (pc + 4) :: !cells
            end
        | UNot a -> branch_if_false ln a cells
        | UAnd (a, b) ->
            let fl = ref [] in
            branch_if_false ln a fl;
            branch_if_true ln b cells;
            let here = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell here) !fl
        | UOr (a, b) ->
            branch_if_true ln a cells;
            branch_if_true ln b cells
        | e ->
            let sv = save () in
            let r = ce_i ln e in
            let t = ti () in
            restore sv;
            ignore (eb_emit eb ln Bc.op_not_b t r 0 0 0);
            let pc = eb_emit eb ln Bc.op_brz t 0 0 0 0 in
            cells := (pc + 2) :: !cells
      in
      (* scalar assignment into a named register: the root writes it *)
      let emit_assign ln (k, reg) e =
        let sv = save () in
        (match k with
         | KF ->
             let r = ce_f ~dst:reg ln e in
             if r <> reg then ignore (eb_emit eb ln Bc.op_mov_f reg r 0 0 0)
         | KI | KB ->
             let r = ce_i ~dst:reg ln e in
             if r <> reg then ignore (eb_emit eb ln Bc.op_mov_i reg r 0 0 0));
        restore sv
      in
      (* [target += a[...]], [target += a[...] * b[...]] and
         [target += a[k] * b[ix[k]]] fusions.  The accmul forms carry no
         trap risk reordering only when the subscripts themselves cannot
         fault, so they are restricted to plain register subscripts; the
         gather form checks a[k], ix[k], then b[ix[k]], the closure
         tier's left-to-right order. *)
      let simple_idx sub =
        match sub with
        | UIv -> Some (iv_reg, true)
        | ULocal l when (match lkinds.(l) with Some KI -> true | _ -> false)
          ->
            Some (snd regs.loc_reg.(l), false)
        | UCap c when ckinds.(c) = `I -> Some (snd regs.cap_reg.(c), false)
        | UDeref d when dkinds.(d) = `I ->
            Some (snd regs.der_reg.(d), false)
        | _ -> None
      in
      let try_acc_fuse ln (tk, treg) target_read e =
        if tk <> KF then false
        else
          match e with
          | UBin (Badd, tr, rhs) when tr = target_read -> (
              match rhs with
              | ULoad (b, sub)
                when elide
                     && fst regs.bmap.(b) = `F
                     && affine_off sub <> None ->
                  let off =
                    match affine_off sub with Some o -> o | None -> 0
                  in
                  let _, bi = regs.bmap.(b) in
                  record_check `F bi off;
                  ignore (eb_emit eb ln Bc.op_acc_ld_fu treg bi iv_reg off 0);
                  true
              | UBin (Bmul, ULoad (b1, s1), ULoad (b2, ULoad (bx, sx)))
                when fst regs.bmap.(b1) = `F
                     && fst regs.bmap.(b2) = `F
                     && fst regs.bmap.(bx) = `I -> (
                  match (simple_idx s1, simple_idx sx) with
                  | Some (i, _), Some (i', _) when i = i' ->
                      let bi b = snd regs.bmap.(b) in
                      ignore
                        (eb_emit eb ln Bc.op_accmul_ld_ldx_f treg (bi b1) i
                           (bi bx) (bi b2));
                      true
                  | _ -> false)
              | UBin (Bmul, ULoad (b1, s1), ULoad (b2, s2))
                when fst regs.bmap.(b1) = `F && fst regs.bmap.(b2) = `F -> (
                  match (simple_idx s1, simple_idx s2) with
                  | Some (i1, a1), Some (i2, a2) ->
                      let _, k1 = regs.bmap.(b1)
                      and _, k2 = regs.bmap.(b2) in
                      let both_affine0 =
                        a1 && a2
                        && affine_off s1 = Some 0
                        && affine_off s2 = Some 0
                      in
                      if elide && both_affine0 then begin
                        record_check `F k1 0;
                        record_check `F k2 0;
                        ignore
                          (eb_emit eb ln Bc.op_accmul_ld_ld_fu treg k1 i1 k2
                             i2);
                        true
                      end
                      else begin
                        ignore
                          (eb_emit eb ln Bc.op_accmul_ld_ld_f treg k1 i1 k2
                             i2);
                        true
                      end
                  | _ -> false)
              | _ -> false)
          | _ -> false
      in
      (* The collapse(n) counter-recovery statement the preprocessor
         emits — [c_k = lb_k + ((iv / d_k) % n_k) * step_k] — fuses
         into one [recover] dispatch per nest level.  All scalars are
         register-resident ints and the step a literal, so the only
         trap risks are the division and modulo, which the opcode
         checks in the same order with the same messages. *)
      let try_recover_fuse ln (tk, treg) e =
        if tk <> KI then false
        else
          match e with
          | UBin
              (Badd, lbe,
               UBin (Bmul, UBin (Bmod, UBin (Bdiv, UIv, de), ne), se)) -> (
              let step =
                match se with
                | UConstI s -> Some s
                | UNeg (UConstI s) -> Some (-s)
                | _ -> None
              in
              match (step, simple_idx lbe, simple_idx de, simple_idx ne) with
              | Some s, Some (rlb, _), Some (rd, _), Some (rn, _) ->
                  ignore (eb_emit eb ln Bc.op_recover treg rlb rd rn s);
                  true
              | _ -> false)
          | _ -> false
      in
      (* A counted loop's back edge (rule 6): one [addcmp.br] to [top].
         When the body since [top] is one accumulate over the counter
         (rule 7), a [loop] goes in front of it instead, and the back
         edge is dropped. *)
      let close_loop ln ~top ~k ~step ~r ~cc =
        if eb_pc eb - top = Bc.width && r <> k && loopable eb.cells top k
        then begin
          let acc = Array.sub eb.cells top Bc.width in
          let acc_ln = eb.lns.(top / Bc.width) in
          eb_truncate eb top;
          let lp = eb_emit eb ln Bc.op_loop k step r 0 cc in
          ignore
            (eb_emit eb acc_ln acc.(0) acc.(1) acc.(2) acc.(3) acc.(4)
               acc.(5));
          eb_patch eb (lp + 4) (eb_pc eb)
        end
        else ignore (eb_emit eb ln Bc.op_addcmp_br k step r top cc)
      in
      (* The register an int operand already lives in, if any. *)
      let int_reg = function
        | UReg (KI, r) -> Some r
        | UTid -> Some regs.rtid
        | UNtd -> Some regs.rntd
        | e -> Option.map fst (simple_idx e)
      in
      (* Rule 5: the operands of a while's one comparison that its body
         and continuation cannot change, each computed once into a
         register that stays reserved for the loop.  The second is
         hoisted only if the first is hoisted too or cannot raise, so
         the first error at entry is the closure tier's. *)
      let hoist_test ln c stmts =
        match c with
        | UCmp (op, a, b) ->
            let wl = ref [] and wc = ref [] and wbanks = ref [] in
            iter_stmts
              (fun s ->
                match s.sk with
                | SAssignL (l, _) -> wl := l :: !wl
                | SAssignC (c, _) -> wc := c :: !wc
                | SStore (b, _, _) | SOpStore (_, b, _, _) ->
                    wbanks := fst regs.bmap.(b) :: !wbanks
                | _ -> ())
              stmts;
            let rec invariant = function
              | UConstI _ | UConstF _ | UConstB _ | ULen _ | UIv | UTid
              | UNtd | UDeref _ ->
                  true
              | ULocal l -> not (List.mem l !wl)
              | UCap c -> not (List.mem c !wc)
              | ULoad (b, idx) ->
                  (not (List.mem (fst regs.bmap.(b)) !wbanks))
                  && invariant idx
              | UBin (_, x, y) -> invariant x && invariant y
              | UNeg x | UMath (_, x) | UIntOf x | UFloatOf x -> invariant x
              | UCmp _ | UAnd _ | UOr _ | UNot _ | UReg _ -> false
            in
            let fl = kind_of a = KF || kind_of b = KF in
            (* a leaf the test reads in place needs no code *)
            let in_place e =
              match e with
              | ULocal _ | UCap _ | UIv | UTid | UNtd | UDeref _ ->
                  (not fl) || kind_of e = KF
              | _ -> false
            in
            let hoist e =
              if invariant e && not (in_place e) then
                if fl then UReg (KF, ce_f ln e)
                else UReg (kind_of e, ce_i ln e)
              else e
            in
            let a' = hoist a in
            let b' = if a' != a || not (can_raise a) then hoist b else b in
            UCmp (op, a', b')
        | c -> c
      in
      (* Rule 6: a continuation of exactly [k += imm] or [k -= imm] on
         an int register, under a test [k cc r] or [r cc k] with [r] in
         a register: (k, imm, r, cc of [k cc r]). *)
      let counted c cont =
        let step =
          match cont with
          | [ { sk = SAssignL (l, UBin (o, ULocal l', UConstI imm)); _ } ]
            when l = l' ->
              Some (ULocal l, o, imm)
          | [ { sk = SAssignC (c, UBin (o, UCap c', UConstI imm)); _ } ]
            when c = c' ->
              Some (UCap c, o, imm)
          | _ -> None
        in
        match (step, c) with
        | Some (kv, ((Badd | Bsub) as o), imm), UCmp (op, x, y) -> (
            let imm = if o = Badd then imm else -imm in
            let side =
              if x = kv then Some (y, op)
              else if y = kv then Some (x, swap_cc op)
              else None
            in
            match (side, int_reg kv) with
            | Some (other, op), Some k -> (
                match int_reg other with
                | Some r -> Some (k, imm, r, cc_of op)
                | None -> None)
            | _ -> None)
        | _ -> None
      in
      (* statements *)
      let rec cs ~brk ~cnt s =
        let ln = s.sline in
        match s.sk with
        | SAssignL (l, e) ->
            if
              not (try_acc_fuse ln regs.loc_reg.(l) (ULocal l) e)
              && not (try_recover_fuse ln regs.loc_reg.(l) e)
            then emit_assign ln regs.loc_reg.(l) e
        | SAssignC (c, e) ->
            if
              not (try_acc_fuse ln regs.cap_reg.(c) (UCap c) e)
              && not (try_recover_fuse ln regs.cap_reg.(c) e)
            then emit_assign ln regs.cap_reg.(c) e
        | SStore (b, idx, v) ->
            let bank, bi = regs.bmap.(b) in
            let sv = save () in
            let ir, off, proven =
              match affine_off idx with
              | Some off -> (iv_reg, off, elide)
              | None -> (ce_i ln idx, 0, false)
            in
            if proven then record_check bank bi off
            else begin
              let oc =
                match bank with `F -> Bc.op_chk_f | `I -> Bc.op_chk_i
              in
              ignore (eb_emit eb ln oc bi ir off 0 0)
            end;
            (* the closure tier bounds-checks before evaluating the rhs *)
            let rv =
              match bank with
              | `F -> ce_f ln v
              | `I -> (
                  match kind_of v with
                  | KI -> ce_i ln v
                  | _ ->
                      (* V.to_int truncates a float store *)
                      let rf = ce_f ln v in
                      let d = ti () in
                      ignore (eb_emit eb ln Bc.op_f2i d rf 0 0 0);
                      d)
            in
            let os = match bank with `F -> Bc.op_st_f | `I -> Bc.op_st_i in
            ignore (eb_emit eb ln os bi ir off rv 0);
            restore sv
        | SOpStore (op, b, idx, v) ->
            let bank, bi = regs.bmap.(b) in
            let sv = save () in
            let ir, off, proven =
              match affine_off idx with
              | Some off -> (iv_reg, off, elide)
              | None -> (ce_i ln idx, 0, false)
            in
            if proven then record_check bank bi off;
            (* [a[i] += v] with matching kinds fuses once proven *)
            let fused =
              proven && op = Badd
              &&
              match (bank, kind_of v) with
              | `I, KI ->
                  let rv = ce_i ln v in
                  ignore (eb_emit eb ln Bc.op_ldst_add_iu bi ir off rv 0);
                  true
              | `F, _ ->
                  let rv = ce_f ln v in
                  ignore (eb_emit eb ln Bc.op_ldst_add_fu bi ir off rv 0);
                  true
              | _ -> false
            in
            if not fused then begin
              if not proven then begin
                let oc =
                  match bank with `F -> Bc.op_chk_f | `I -> Bc.op_chk_i
                in
                ignore (eb_emit eb ln oc bi ir off 0 0)
              end;
              (* closure order: bounds check, rhs, load, combine, store *)
              let kv = kind_of v in
              match bank with
              | `F ->
                  let rv = ce_f ln v in
                  let cur = tf () in
                  let ol =
                    if proven then Bc.op_ld_fu else Bc.op_ld_f
                  in
                  ignore (eb_emit eb ln ol cur bi ir off 0);
                  let o =
                    match op with
                    | Badd -> Bc.op_add_f
                    | Bsub -> Bc.op_sub_f
                    | Bmul -> Bc.op_mul_f
                    | Bdiva -> Bc.op_div_f
                    | Bdiv | Bmod -> assert false
                  in
                  let d = tf () in
                  ignore (eb_emit eb ln o d cur rv 0 0);
                  ignore (eb_emit eb ln Bc.op_st_f bi ir off d 0)
              | `I ->
                  if kv = KI && op <> Bdiva then begin
                    let rv = ce_i ln v in
                    let cur = ti () in
                    let ol =
                      if proven then Bc.op_ld_iu else Bc.op_ld_i
                    in
                    ignore (eb_emit eb ln ol cur bi ir off 0);
                    let o =
                      match op with
                      | Badd -> Bc.op_add_i
                      | Bsub -> Bc.op_sub_i
                      | Bmul -> Bc.op_mul_i
                      | Bdiv | Bmod | Bdiva -> assert false
                    in
                    let d = ti () in
                    ignore (eb_emit eb ln o d cur rv 0 0);
                    ignore (eb_emit eb ln Bc.op_st_i bi ir off d 0)
                  end
                  else begin
                    (* float combine on an int array: V.to_int truncates
                       the result back, matching Rt + the store coercion *)
                    let rv = ce_f ln v in
                    let curi = ti () in
                    let ol =
                      if proven then Bc.op_ld_iu else Bc.op_ld_i
                    in
                    ignore (eb_emit eb ln ol curi bi ir off 0);
                    let cur = tf () in
                    ignore (eb_emit eb ln Bc.op_i2f cur curi 0 0 0);
                    let o =
                      match op with
                      | Badd -> Bc.op_add_f
                      | Bsub -> Bc.op_sub_f
                      | Bmul -> Bc.op_mul_f
                      | Bdiva -> Bc.op_div_f
                      | Bdiv | Bmod -> assert false
                    in
                    let d = tf () in
                    ignore (eb_emit eb ln o d cur rv 0 0);
                    let di = ti () in
                    ignore (eb_emit eb ln Bc.op_f2i di d 0 0 0);
                    ignore (eb_emit eb ln Bc.op_st_i bi ir off di 0)
                  end
            end;
            restore sv
        | SIf (c, a, b) ->
            let el = ref [] in
            branch_if_false ln c el;
            List.iter (cs ~brk ~cnt) a;
            if b = [] then begin
              let here = eb_pc eb in
              List.iter (fun cell -> eb_patch eb cell here) !el
            end
            else begin
              let pc = eb_emit eb ln Bc.op_jmp 0 0 0 0 0 in
              let here = eb_pc eb in
              List.iter (fun cell -> eb_patch eb cell here) !el;
              List.iter (cs ~brk ~cnt) b;
              eb_patch eb (pc + 1) (eb_pc eb)
            end
        | SWhile (c, body, cont) ->
            (* rotated: the condition is tested at entry and again at
               the back edge (inverted), so no iteration pays a jmp *)
            let sv = save () in
            let c = hoist_test ln c (body @ cont) in
            let xl = ref [] in
            branch_if_false ln c xl;
            let top = eb_pc eb in
            let brk' = ref [] and cnt' = ref [] in
            List.iter (cs ~brk:brk' ~cnt:cnt') body;
            let cont_l = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell cont_l) !cnt';
            (match counted c cont with
             | Some (k, step, r, cc) -> close_loop ln ~top ~k ~step ~r ~cc
             | None ->
                 (* cont statements: a break there exits THIS loop (the
                    closure's Break handler wraps the whole while, cont
                    included); a continue propagates to the enclosing
                    loop *)
                 List.iter (cs ~brk:brk' ~cnt) cont;
                 let tl = ref [] in
                 branch_if_true ln c tl;
                 List.iter (fun cell -> eb_patch eb cell top) !tl);
            let here = eb_pc eb in
            List.iter (fun cell -> eb_patch eb cell here) !xl;
            List.iter (fun cell -> eb_patch eb cell here) !brk';
            restore sv
        | SExpr e ->
            let sv = save () in
            (match kind_of e with
             | KF -> ignore (ce_f ln e)
             | KI | KB -> ignore (ce_i ln e));
            restore sv
        | SBreak -> (
            let pc = eb_emit eb ln Bc.op_jmp 0 0 0 0 0 in
            brk := (pc + 1) :: !brk)
        | SContinue -> (
            let pc = eb_emit eb ln Bc.op_jmp 0 0 0 0 0 in
            cnt := (pc + 1) :: !cnt)
      in
      (* drain skeleton: entry bounds test, body, back edge, halt *)
      let ln = p.line in
      let entry_cc = if p.step > 0 then Bc.cc_le else Bc.cc_ge in
      let entry =
        eb_emit eb ln Bc.op_cmpbr_ii entry_cc iv_reg upper_reg 0 0
      in
      let body_start = eb_pc eb in
      let brk = ref [] and cnt = ref [] in
      List.iter (cs ~brk ~cnt) p.ubody;
      let cont_l = eb_pc eb in
      List.iter (fun cell -> eb_patch eb cell cont_l) !cnt;
      if p.fuse_cont then
        close_loop ln ~top:body_start ~k:iv_reg ~step:p.step ~r:upper_reg
          ~cc:(if p.step > 0 then Bc.cc_le else Bc.cc_ge)
      else begin
        List.iter (cs ~brk ~cnt:(ref [])) p.ucont;
        let back_cc = if p.step > 0 then Bc.cc_gt else Bc.cc_lt in
        ignore
          (eb_emit eb ln Bc.op_cmpbr_ii back_cc iv_reg upper_reg body_start
             0)
      end;
      let exit_pc = eb_pc eb in
      eb_patch eb (entry + 4) exit_pc;
      List.iter (fun cell -> eb_patch eb cell exit_pc) !brk;
      ignore (eb_emit eb ln Bc.op_halt 0 0 0 0 0);
      let code, lines = eb_finish eb in
      let checks =
        Hashtbl.fold
          (fun (bank, karr) (lo, hi) acc ->
            { Bc.kbank = bank; karr; c_min = !lo; c_max = !hi } :: acc)
          chk_tbl []
        |> List.sort (fun a b ->
               compare
                 ((match a.Bc.kbank with `F -> 0 | `I -> 1), a.Bc.karr)
                 ((match b.Bc.kbank with `F -> 0 | `I -> 1), b.Bc.karr))
      in
      (code, lines, Array.of_list checks)
    in
    let gcode, glines, _ = emit_variant ~elide:false in
    let code, lines, checks =
      if p.opts.elide then
        let c, l, ck = emit_variant ~elide:true in
        if Array.length ck = 0 then (gcode, glines, [||]) else (c, l, ck)
      else (gcode, glines, [||])
    in
    let nints = regs.ti_base + !mti in
    let nfloats = regs.tf_base + !mtf in
    let ireg_names = Array.make nints "" in
    let freg_names = Array.make nfloats "" in
    ireg_names.(iv_reg) <- "iv";
    ireg_names.(upper_reg) <- "upper";
    if regs.rtid >= 0 then ireg_names.(regs.rtid) <- "tid";
    if regs.rntd >= 0 then ireg_names.(regs.rntd) <- "ntd";
    Array.iteri
      (fun c (k, r) ->
        let _, name = p.caps.(c) in
        match k with
        | KF -> freg_names.(r) <- name
        | KI | KB -> ireg_names.(r) <- name)
      regs.cap_reg;
    Array.iteri
      (fun d (k, r) ->
        let _, name = p.uderefs.(d) in
        match k with
        | KF -> freg_names.(r) <- "*" ^ name
        | KI | KB -> ireg_names.(r) <- "*" ^ name)
      regs.der_reg;
    Array.iteri
      (fun l (k, r) ->
        match k with
        | KF -> freg_names.(r) <- p.lnames.(l)
        | KI | KB -> ireg_names.(r) <- p.lnames.(l))
      regs.loc_reg;
    let fbases =
      Array.of_list
        (List.filteri (fun i _ -> fst regs.bmap.(i) = `F)
           (Array.to_list p.ubases)
        |> List.map (fun (slot, deref, name) ->
               { Bc.bslot = slot; deref; bname = name }))
    in
    let ibases =
      Array.of_list
        (List.filteri (fun i _ -> fst regs.bmap.(i) = `I)
           (Array.to_list p.ubases)
        |> List.map (fun (slot, deref, name) ->
               { Bc.bslot = slot; deref; bname = name }))
    in
    let caps =
      Array.mapi
        (fun c (slot, name) ->
          { Bc.slot; reg = snd regs.cap_reg.(c); ckind = ckinds.(c);
            written = p.cap_written.(c); cname = name })
        p.caps
    in
    let hoisted =
      Array.mapi
        (fun d (slot, _) -> (slot, dkinds.(d), snd regs.der_reg.(d)))
        p.uderefs
    in
    {
      Bc.code; gcode; fpool = Array.of_list (List.rev !fpool_rev); nints;
      nfloats; iv_reg; upper_reg; tid_reg = regs.rtid; ntd_reg = regs.rntd;
      caps; fbases; ibases; hoisted; checks; ivslot = p.ivslot;
      step = p.step; ireg_names; freg_names; lines; glines;
    }
  with
  | prog -> Ok prog
  | exception Bail why -> Error why
