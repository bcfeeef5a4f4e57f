(** Recursive-descent parser for Zr.

    Produces the flat {!Ast.t}.  The pragma grammar is parsed with the
    paper's scheme: OpenMP directive and clause names arrive as plain
    [Identifier] tokens and are resolved against the keyword hash map by
    {!eat_omp} — the analogue of the modified [eatToken] that "accepts
    both existing and new tags, and parses the identifier tag
    accordingly if an OpenMP keyword tag was used". *)

type state = {
  src : Source.t;
  tokens : Token.t array;
  mutable pos : int;
  (* growable node / extra / span stores *)
  mutable nodes : Ast.node array;
  mutable n_nodes : int;
  mutable extra : int array;
  mutable n_extra : int;
  mutable spans : (int * int) array;
  mutable clause_spans :
    (int * Ompfront.Directive.clause_span list) list;
}

let fail st fmt =
  let tok = st.tokens.(st.pos) in
  Source.error st.src tok.Token.start fmt

(* ------------------------------------------------------------------ *)
(* Store helpers.                                                      *)

let grow arr n dummy =
  let cap = Array.length arr in
  if n < cap then arr
  else begin
    let bigger = Array.make (max 16 (2 * cap)) dummy in
    Array.blit arr 0 bigger 0 cap;
    bigger
  end

let dummy_node = { Ast.tag = Ast.Root; main_token = 0; lhs = 0; rhs = 0 }

let add_node st node span =
  st.nodes <- grow st.nodes st.n_nodes dummy_node;
  st.spans <- grow st.spans st.n_nodes (0, 0);
  let i = st.n_nodes in
  st.nodes.(i) <- node;
  st.spans.(i) <- span;
  st.n_nodes <- st.n_nodes + 1;
  i

let set_node st i node span =
  st.nodes.(i) <- node;
  st.spans.(i) <- span

let add_extra st v =
  st.extra <- grow st.extra st.n_extra 0;
  let i = st.n_extra in
  st.extra.(i) <- v;
  st.n_extra <- st.n_extra + 1;
  i

let add_extra_list st vs =
  let b = st.n_extra in
  List.iter (fun v -> ignore (add_extra st v)) vs;
  (b, st.n_extra)

(* ------------------------------------------------------------------ *)
(* Token cursor.                                                       *)

let peek st = st.tokens.(st.pos).Token.tag

let peek_tok st = st.tokens.(st.pos)

let next st =
  let t = st.pos in
  st.pos <- st.pos + 1;
  t

(** The paper's [eatToken] for ordinary tags: if the next token matches,
    return its index and advance; otherwise [None]. *)
let eat st tag =
  if peek st = tag then Some (next st) else None

let expect st tag =
  match eat st tag with
  | Some i -> i
  | None ->
      fail st "expected '%s', found '%s'"
        (Token.tag_to_string tag)
        (Token.tag_to_string (peek st))

let tok_text st i = Tokenizer.text st.src st.tokens.(i)

(** The OpenMP side of the modified [eatToken]: succeed iff the next
    token is an identifier whose text maps to the requested OpenMP
    keyword tag in the hash map. *)
let eat_omp st kw =
  if peek st = Token.Identifier
     && Token.omp_keyword_of_string (tok_text st st.pos) = Some kw
  then Some (next st)
  else None

(** Resolve the next token to *some* OpenMP keyword (for dispatching on
    directive/clause names); does not advance on failure. *)
let peek_omp st =
  if peek st = Token.Identifier then
    Token.omp_keyword_of_string (tok_text st st.pos)
  else None

(* ------------------------------------------------------------------ *)
(* Types.                                                              *)

let rec parse_type st =
  match peek st with
  | Token.L_bracket ->
      let t0 = next st in
      let _ = expect st Token.R_bracket in
      let elem = parse_type st in
      add_node st
        { tag = Ast.Type_slice; main_token = t0; lhs = elem; rhs = 0 }
        (t0, snd_span st elem)
  | Token.Star ->
      let t0 = next st in
      let elem = parse_type st in
      add_node st
        { tag = Ast.Type_ptr; main_token = t0; lhs = elem; rhs = 0 }
        (t0, snd_span st elem)
  | Token.Identifier ->
      let t0 = next st in
      add_node st
        { tag = Ast.Type_name; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | _ -> fail st "expected a type"

and snd_span st node = snd st.spans.(node)

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing.                                   *)

(* Take the literal token at the cursor, rejecting it with [msg] where
   it is written when [read] cannot give its value. *)
let literal st read msg =
  let t0 = next st in
  let text = tok_text st t0 in
  if Option.is_none (read text) then
    Source.error st.src st.tokens.(t0).Token.start msg text;
  t0

let binop_prec = function
  | Token.Kw_or -> Some 1
  | Token.Kw_and -> Some 2
  | Token.Eq_eq | Token.Bang_eq | Token.Lt | Token.Lt_eq
  | Token.Gt | Token.Gt_eq -> Some 3
  | Token.Plus | Token.Minus -> Some 4
  | Token.Star | Token.Slash | Token.Percent -> Some 5
  | _ -> None

let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_prec (peek st) with
    | Some prec when prec >= min_prec ->
        let op = next st in
        let rhs = parse_binary st (prec + 1) in
        let span = (fst st.spans.(!lhs), snd st.spans.(rhs)) in
        lhs :=
          add_node st
            { tag = Ast.Bin_op; main_token = op; lhs = !lhs; rhs }
            span
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Token.Minus | Token.Bang ->
      let op = next st in
      let operand = parse_unary st in
      add_node st
        { tag = Ast.Un_op; main_token = op; lhs = operand; rhs = 0 }
        (op, snd st.spans.(operand))
  | Token.Amp ->
      let op = next st in
      let operand = parse_unary st in
      add_node st
        { tag = Ast.Addr_of; main_token = op; lhs = operand; rhs = 0 }
        (op, snd st.spans.(operand))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Token.L_paren ->
        let t0 = next st in
        ignore t0;
        let args = ref [] in
        if peek st <> Token.R_paren then begin
          args := [ parse_expr st ];
          while eat st Token.Comma <> None do
            args := parse_expr st :: !args
          done
        end;
        let close = expect st Token.R_paren in
        let args = List.rev !args in
        let base = add_extra st (List.length args) in
        List.iter (fun a -> ignore (add_extra st a)) args;
        let span = (fst st.spans.(!e), close) in
        e :=
          add_node st
            { tag = Ast.Call; main_token = fst st.spans.(!e);
              lhs = !e; rhs = base }
            span
    | Token.L_bracket ->
        let _ = next st in
        let idx = parse_expr st in
        let close = expect st Token.R_bracket in
        let span = (fst st.spans.(!e), close) in
        e :=
          add_node st
            { tag = Ast.Index; main_token = fst st.spans.(!e);
              lhs = !e; rhs = idx }
            span
    | Token.Dot_star ->
        let op = next st in
        let span = (fst st.spans.(!e), op) in
        e :=
          add_node st
            { tag = Ast.Deref; main_token = op; lhs = !e; rhs = 0 }
            span
    | Token.Dot ->
        let _ = next st in
        let name = expect st Token.Identifier in
        let span = (fst st.spans.(!e), name) in
        e :=
          add_node st
            { tag = Ast.Field; main_token = name; lhs = !e; rhs = 0 }
            span
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  match peek st with
  | Token.Int_literal ->
      let t0 = literal st Ast.int_of_literal
          "integer literal %s does not fit in i64" in
      add_node st { tag = Ast.Int_lit; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.Float_literal ->
      let t0 = next st in
      add_node st { tag = Ast.Float_lit; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.String_literal ->
      let t0 = literal st Ast.string_of_literal
          "string literal %s has an invalid escape sequence" in
      add_node st { tag = Ast.String_lit; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.Kw_true | Token.Kw_false ->
      let t0 = next st in
      add_node st { tag = Ast.Bool_lit; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.Kw_undefined ->
      let t0 = next st in
      add_node st
        { tag = Ast.Undefined_lit; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.Identifier ->
      let t0 = next st in
      add_node st { tag = Ast.Ident; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
  | Token.L_paren ->
      let _ = next st in
      let e = parse_expr st in
      let _ = expect st Token.R_paren in
      e
  | Token.Dot_brace ->
      (* anonymous struct literal: .{ .name = expr, ... } *)
      let t0 = next st in
      let fields = ref [] in
      if peek st <> Token.R_brace then begin
        let parse_field () =
          let _ = expect st Token.Dot in
          let name = expect st Token.Identifier in
          let _ = expect st Token.Eq in
          let v = parse_expr st in
          fields := (name, v) :: !fields
        in
        parse_field ();
        while eat st Token.Comma <> None && peek st <> Token.R_brace do
          parse_field ()
        done
      end;
      let close = expect st Token.R_brace in
      let fields = List.rev !fields in
      let base = add_extra st (List.length fields) in
      List.iter
        (fun (name, v) ->
          ignore (add_extra st name);
          ignore (add_extra st v))
        fields;
      add_node st
        { tag = Ast.Struct_lit; main_token = t0; lhs = 0; rhs = base }
        (t0, close)
  | t -> fail st "expected an expression, found '%s'" (Token.tag_to_string t)

(* ------------------------------------------------------------------ *)
(* Pragmas.                                                            *)

(* Mutable clause accumulator; encoded into extra_data when finished. *)
type clause_acc = {
  mutable flags : Ompfront.Packed.flags;
  mutable sched_word : int;
  mutable num_threads : int;
  mutable private_ : int list;
  mutable firstprivate : int list;
  mutable shared : int list;
  mutable reductions : (Ompfront.Directive.red_op * int) list;
  mutable critical_name : int;
  mutable transform : Ompfront.Packed.transform;
  mutable tile : int list;
  mutable grainsize : int;
  mutable copyprivate : int list;
  mutable cspans : Ompfront.Directive.clause_span list;
}

(* Record the span of the clause that started at keyword token [t0] and
   ended at the token just consumed. *)
let record_clause st (acc : clause_acc) cid t0 =
  acc.cspans <-
    acc.cspans
    @ [ { Ompfront.Directive.cid; ctok_first = t0; ctok_last = st.pos - 1 } ]

let fresh_clauses () = {
  flags = Ompfront.Packed.no_flags;
  sched_word =
    Ompfront.Packed.encode_schedule Ompfront.Packed.Sched_none 0;
  num_threads = 0;
  private_ = [];
  firstprivate = [];
  shared = [];
  reductions = [];
  critical_name = 0;
  transform = Ompfront.Packed.no_transform;
  tile = [];
  grainsize = 0;
  copyprivate = [];
  cspans = [];
}

let parse_ident_list st =
  let _ = expect st Token.L_paren in
  let ids = ref [] in
  let one () =
    let t0 = expect st Token.Identifier in
    let n =
      add_node st { tag = Ast.Ident; main_token = t0; lhs = 0; rhs = 0 }
        (t0, t0)
    in
    ids := n :: !ids
  in
  one ();
  while eat st Token.Comma <> None do one () done;
  let _ = expect st Token.R_paren in
  List.rev !ids

let parse_red_op st =
  match peek st with
  | Token.Plus -> ignore (next st); Ompfront.Directive.Radd
  | Token.Minus -> ignore (next st); Ompfront.Directive.Rsub
  | Token.Star -> ignore (next st); Ompfront.Directive.Rmul
  | Token.Identifier ->
      (match peek_omp st with
       | Some Token.Omp_min -> ignore (next st); Ompfront.Directive.Rmin
       | Some Token.Omp_max -> ignore (next st); Ompfront.Directive.Rmax
       | _ -> fail st "expected a reduction operator")
  | _ -> fail st "expected a reduction operator"

(* Literal integer value of an already-parsed expression node, if it is
   one: an [Int_lit], possibly under a unary minus.  Transform clause
   arguments must be compile-time literals — anything else is recorded
   as malformed and warned about (once) by the transform stage instead
   of failing the parse. *)
let node_int_lit st n =
  let node = st.nodes.(n) in
  match node.Ast.tag with
  | Ast.Int_lit -> Ast.int_of_literal (tok_text st node.Ast.main_token)
  | Ast.Un_op
    when st.tokens.(node.Ast.main_token).Token.tag = Token.Minus -> (
      let l = st.nodes.(node.Ast.lhs) in
      if l.Ast.tag <> Ast.Int_lit then None
      else
        Option.map Int.neg (Ast.int_of_literal (tok_text st l.Ast.main_token)))
  | _ -> None

let parse_clauses st (acc : clause_acc) =
  let continue_ = ref true in
  while !continue_ do
    match peek_omp st with
    | Some Token.Omp_private ->
        let t0 = next st in
        acc.private_ <- acc.private_ @ parse_ident_list st;
        record_clause st acc Ompfront.Directive.Cprivate t0
    | Some Token.Omp_firstprivate ->
        let t0 = next st in
        acc.firstprivate <- acc.firstprivate @ parse_ident_list st;
        record_clause st acc Ompfront.Directive.Cfirstprivate t0
    | Some Token.Omp_shared ->
        let t0 = next st in
        acc.shared <- acc.shared @ parse_ident_list st;
        record_clause st acc Ompfront.Directive.Cshared t0
    | Some Token.Omp_reduction ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let op = parse_red_op st in
        let _ = expect st Token.Colon in
        let ids = ref [] in
        let one () =
          let t0 = expect st Token.Identifier in
          let n =
            add_node st
              { tag = Ast.Ident; main_token = t0; lhs = 0; rhs = 0 }
              (t0, t0)
          in
          ids := n :: !ids
        in
        one ();
        while eat st Token.Comma <> None do one () done;
        let _ = expect st Token.R_paren in
        acc.reductions <-
          acc.reductions @ List.map (fun id -> (op, id)) (List.rev !ids);
        record_clause st acc Ompfront.Directive.Creduction t0
    | Some Token.Omp_schedule ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let kind =
          match peek_omp st with
          | Some Token.Omp_static -> Ompfront.Packed.Sched_static
          | Some Token.Omp_dynamic -> Ompfront.Packed.Sched_dynamic
          | Some Token.Omp_guided -> Ompfront.Packed.Sched_guided
          | Some Token.Omp_runtime -> Ompfront.Packed.Sched_runtime
          | Some Token.Omp_auto -> Ompfront.Packed.Sched_auto
          | _ -> fail st "expected a schedule kind"
        in
        ignore (next st);
        let chunk =
          if eat st Token.Comma <> None then begin
            let t = expect st Token.Int_literal in
            match Ast.int_of_literal (tok_text st t) with
            | Some c when c > 0 && c <= Ompfront.Packed.max_chunk -> c
            | _ -> fail st "invalid chunk size"
          end
          else 0
        in
        let _ = expect st Token.R_paren in
        acc.sched_word <- Ompfront.Packed.encode_schedule kind chunk;
        record_clause st acc Ompfront.Directive.Cschedule t0
    | Some Token.Omp_num_threads ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let e = parse_expr st in
        let _ = expect st Token.R_paren in
        acc.num_threads <- e;
        record_clause st acc Ompfront.Directive.Cnum_threads t0
    | Some Token.Omp_default ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let d =
          match peek_omp st with
          | Some Token.Omp_shared -> Ompfront.Packed.Default_shared
          | Some Token.Omp_none -> Ompfront.Packed.Default_none
          | _ -> fail st "expected 'shared' or 'none'"
        in
        ignore (next st);
        let _ = expect st Token.R_paren in
        acc.flags <- { acc.flags with default = d };
        record_clause st acc Ompfront.Directive.Cdefault t0
    | Some Token.Omp_nowait ->
        let t0 = next st in
        acc.flags <- { acc.flags with nowait = true };
        record_clause st acc Ompfront.Directive.Cnowait t0
    | Some Token.Omp_collapse ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let t = expect st Token.Int_literal in
        let n =
          match Ast.int_of_literal (tok_text st t) with
          | Some n when n >= 1 && n <= Ompfront.Packed.max_collapse -> n
          | _ -> fail st "invalid collapse count"
        in
        let _ = expect st Token.R_paren in
        acc.flags <- { acc.flags with collapse = n };
        record_clause st acc Ompfront.Directive.Ccollapse t0
    | Some Token.Omp_unroll ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let e = parse_expr st in
        let _ = expect st Token.R_paren in
        (match node_int_lit st e with
         | Some n when n >= 1 && n <= Ompfront.Packed.max_unroll ->
             acc.transform <- { acc.transform with unroll = n }
         | _ ->
             acc.transform <- { acc.transform with unroll_malformed = true });
        record_clause st acc Ompfront.Directive.Cunroll t0
    | Some Token.Omp_tile ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let sizes = ref [] and ok = ref true in
        let one () =
          let e = parse_expr st in
          match node_int_lit st e with
          | Some n when n >= 1 && n <= Ompfront.Packed.max_tile ->
              sizes := n :: !sizes
          | _ -> ok := false
        in
        one ();
        while eat st Token.Comma <> None do one () done;
        let _ = expect st Token.R_paren in
        if !ok then acc.tile <- acc.tile @ List.rev !sizes
        else
          acc.transform <- { acc.transform with tile_malformed = true };
        record_clause st acc Ompfront.Directive.Ctile t0
    | Some Token.Omp_interchange ->
        let t0 = next st in
        acc.transform <- { acc.transform with interchange = true };
        record_clause st acc Ompfront.Directive.Cinterchange t0
    | Some Token.Omp_grainsize ->
        let t0 = next st in
        let _ = expect st Token.L_paren in
        let t = expect st Token.Int_literal in
        let n =
          match Ast.int_of_literal (tok_text st t) with
          | Some n when n >= 1 && n <= Ompfront.Packed.max_chunk -> n
          | _ -> fail st "invalid grainsize"
        in
        let _ = expect st Token.R_paren in
        acc.grainsize <- n;
        record_clause st acc Ompfront.Directive.Cgrainsize t0
    | Some Token.Omp_copyprivate ->
        let t0 = next st in
        acc.copyprivate <- acc.copyprivate @ parse_ident_list st;
        record_clause st acc Ompfront.Directive.Ccopyprivate t0
    | _ -> continue_ := false
  done

(** Encode the accumulated clauses: list slices first, then the fixed
    18-word clause block.  Returns the block's base index. *)
let encode_clauses st (acc : clause_acc) =
  let priv = add_extra_list st acc.private_ in
  let fp = add_extra_list st acc.firstprivate in
  let sh = add_extra_list st acc.shared in
  let red =
    add_extra_list st
      (List.concat_map
         (fun (op, id) -> [ Ompfront.Directive.red_op_code op; id ])
         acc.reductions)
  in
  let tl = add_extra_list st acc.tile in
  let cp = add_extra_list st acc.copyprivate in
  let base = st.n_extra in
  ignore (add_extra st (Ompfront.Packed.encode_flags acc.flags));
  ignore (add_extra st acc.sched_word);
  ignore (add_extra st acc.num_threads);
  ignore (add_extra st (fst priv));
  ignore (add_extra st (snd priv));
  ignore (add_extra st (fst fp));
  ignore (add_extra st (snd fp));
  ignore (add_extra st (fst sh));
  ignore (add_extra st (snd sh));
  ignore (add_extra st (fst red));
  ignore (add_extra st (snd red));
  ignore (add_extra st acc.critical_name);
  ignore (add_extra st (Ompfront.Packed.encode_transform acc.transform));
  ignore (add_extra st (fst tl));
  ignore (add_extra st (snd tl));
  ignore (add_extra st acc.grainsize);
  ignore (add_extra st (fst cp));
  ignore (add_extra st (snd cp));
  if acc.cspans <> [] then
    st.clause_spans <- (base, acc.cspans) :: st.clause_spans;
  base

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

let rec parse_statement st =
  match peek st with
  | Token.Pragma_sentinel -> parse_pragma st
  | Token.L_brace -> parse_block st
  | Token.Kw_var | Token.Kw_const -> parse_var_decl st
  | Token.Kw_while -> parse_while st
  | Token.Kw_if -> parse_if st
  | Token.Kw_return ->
      let t0 = next st in
      let e = if peek st = Token.Semicolon then 0 else parse_expr st in
      let close = expect st Token.Semicolon in
      add_node st { tag = Ast.Return; main_token = t0; lhs = e; rhs = 0 }
        (t0, close)
  | Token.Kw_break ->
      let t0 = next st in
      let close = expect st Token.Semicolon in
      add_node st { tag = Ast.Break; main_token = t0; lhs = 0; rhs = 0 }
        (t0, close)
  | Token.Kw_continue ->
      let t0 = next st in
      let close = expect st Token.Semicolon in
      add_node st { tag = Ast.Continue; main_token = t0; lhs = 0; rhs = 0 }
        (t0, close)
  | _ ->
      let s = parse_assign_or_expr st in
      let close = expect st Token.Semicolon in
      let span = (fst st.spans.(s), close) in
      set_node st s st.nodes.(s) span;
      s

(* expr [op= expr] — used for plain statements and loop continuations *)
and parse_assign_or_expr st =
  let target = parse_expr st in
  match peek st with
  | Token.Eq | Token.Plus_eq | Token.Minus_eq | Token.Star_eq
  | Token.Slash_eq ->
      let op = next st in
      let value = parse_expr st in
      add_node st
        { tag = Ast.Assign; main_token = op; lhs = target; rhs = value }
        (fst st.spans.(target), snd st.spans.(value))
  | _ ->
      add_node st
        { tag = Ast.Expr_stmt; main_token = fst st.spans.(target);
          lhs = target; rhs = 0 }
        st.spans.(target)

and parse_block st =
  let t0 = expect st Token.L_brace in
  let stmts = ref [] in
  while peek st <> Token.R_brace do
    stmts := parse_statement st :: !stmts
  done;
  let close = expect st Token.R_brace in
  let b, e = add_extra_list st (List.rev !stmts) in
  add_node st { tag = Ast.Block; main_token = t0; lhs = b; rhs = e }
    (t0, close)

and parse_var_decl st =
  let kw = next st in
  let mutable_ = st.tokens.(kw).Token.tag = Token.Kw_var in
  let name = expect st Token.Identifier in
  let ty = if eat st Token.Colon <> None then parse_type st else 0 in
  let init = if eat st Token.Eq <> None then parse_expr st else 0 in
  let close = expect st Token.Semicolon in
  add_node st
    { tag = (if mutable_ then Ast.Var_decl else Ast.Const_decl);
      main_token = name; lhs = ty; rhs = init }
    (kw, close)

and parse_while st =
  let t0 = expect st Token.Kw_while in
  let _ = expect st Token.L_paren in
  let cond = parse_expr st in
  let _ = expect st Token.R_paren in
  let cont =
    if eat st Token.Colon <> None then begin
      let _ = expect st Token.L_paren in
      let c = parse_assign_or_expr st in
      let _ = expect st Token.R_paren in
      c
    end
    else 0
  in
  let body = parse_block st in
  let base = add_extra st cont in
  ignore (add_extra st body);
  add_node st { tag = Ast.While; main_token = t0; lhs = cond; rhs = base }
    (t0, snd st.spans.(body))

and parse_if st =
  let t0 = expect st Token.Kw_if in
  let _ = expect st Token.L_paren in
  let cond = parse_expr st in
  let _ = expect st Token.R_paren in
  let then_ = parse_block st in
  let else_ =
    if eat st Token.Kw_else <> None then
      if peek st = Token.Kw_if then parse_if st else parse_block st
    else 0
  in
  let base = add_extra st then_ in
  ignore (add_extra st else_);
  let last = if else_ <> 0 then snd st.spans.(else_) else snd st.spans.(then_) in
  add_node st { tag = Ast.If; main_token = t0; lhs = cond; rhs = base }
    (t0, last)

and parse_pragma st =
  let sentinel = expect st Token.Pragma_sentinel in
  let tag, acc =
    match peek_omp st with
    | Some Token.Omp_parallel ->
        ignore (next st);
        if peek_omp st = Some Token.Omp_for then begin
          ignore (next st);
          (Ast.Omp_parallel_for, fresh_clauses ())
        end
        else (Ast.Omp_parallel, fresh_clauses ())
    | Some Token.Omp_for -> ignore (next st); (Ast.Omp_for, fresh_clauses ())
    | Some Token.Omp_barrier ->
        ignore (next st); (Ast.Omp_barrier, fresh_clauses ())
    | Some Token.Omp_critical ->
        ignore (next st);
        let acc = fresh_clauses () in
        (match eat st Token.L_paren with
         | Some lp ->
             let name = expect st Token.Identifier in
             let _ = expect st Token.R_paren in
             acc.critical_name <- name;
             record_clause st acc Ompfront.Directive.Cname lp
         | None -> ());
        (Ast.Omp_critical, acc)
    | Some Token.Omp_master ->
        ignore (next st); (Ast.Omp_master, fresh_clauses ())
    | Some Token.Omp_single ->
        ignore (next st); (Ast.Omp_single, fresh_clauses ())
    | Some Token.Omp_atomic ->
        ignore (next st); (Ast.Omp_atomic, fresh_clauses ())
    | Some Token.Omp_task ->
        ignore (next st); (Ast.Omp_task, fresh_clauses ())
    | Some Token.Omp_taskwait ->
        ignore (next st); (Ast.Omp_taskwait, fresh_clauses ())
    | Some Token.Omp_taskloop ->
        ignore (next st); (Ast.Omp_taskloop, fresh_clauses ())
    | Some Token.Omp_sections ->
        ignore (next st); (Ast.Omp_sections, fresh_clauses ())
    | Some Token.Omp_section ->
        ignore (next st); (Ast.Omp_section, fresh_clauses ())
    | _ -> fail st "expected an OpenMP directive name"
  in
  parse_clauses st acc;
  let pragma_end = expect st Token.Pragma_end in
  let clause_base = encode_clauses st acc in
  match tag with
  | Ast.Omp_barrier | Ast.Omp_taskwait ->
      add_node st
        { tag; main_token = sentinel; lhs = clause_base; rhs = 0 }
        (sentinel, pragma_end)
  | _ ->
      let stmt = parse_statement st in
      (match tag, st.nodes.(stmt).Ast.tag with
       | (Ast.Omp_for | Ast.Omp_parallel_for | Ast.Omp_taskloop), Ast.While ->
           ()
       | (Ast.Omp_for | Ast.Omp_parallel_for | Ast.Omp_taskloop), _ ->
           Source.error st.src st.tokens.(sentinel).Token.start
             "an OpenMP worksharing directive must precede a while loop"
       | Ast.Omp_sections, Ast.Block ->
           (* every statement of the governed block must be a section *)
           let b = st.nodes.(stmt) in
           for i = b.Ast.lhs to b.Ast.rhs - 1 do
             let s = st.extra.(i) in
             if st.nodes.(s).Ast.tag <> Ast.Omp_section then
               Source.error st.src
                 st.tokens.(fst st.spans.(s)).Token.start
                 "every statement of a sections block must be a \
                  '//$omp section'"
           done
       | Ast.Omp_sections, _ ->
           Source.error st.src st.tokens.(sentinel).Token.start
             "an OpenMP sections directive must precede a block"
       | _ -> ());
      add_node st
        { tag; main_token = sentinel; lhs = clause_base; rhs = stmt }
        (sentinel, snd st.spans.(stmt))

(* ------------------------------------------------------------------ *)
(* Top level.                                                          *)

let parse_fn st =
  let export = eat st Token.Kw_export in
  let kw = expect st Token.Kw_fn in
  let first = match export with Some e -> e | None -> kw in
  let name = expect st Token.Identifier in
  let _ = expect st Token.L_paren in
  let params = ref [] in
  if peek st <> Token.R_paren then begin
    let one () =
      let pname = expect st Token.Identifier in
      let _ = expect st Token.Colon in
      let ty = parse_type st in
      params := (pname, ty) :: !params
    in
    one ();
    while eat st Token.Comma <> None do one () done
  end;
  let _ = expect st Token.R_paren in
  let ret = parse_type st in
  let body = parse_block st in
  let params = List.rev !params in
  let proto = add_extra st (List.length params) in
  List.iter
    (fun (pname, ty) ->
      ignore (add_extra st pname);
      ignore (add_extra st ty))
    params;
  ignore (add_extra st ret);
  add_node st { tag = Ast.Fn_decl; main_token = name; lhs = proto; rhs = body }
    (first, snd st.spans.(body))

(* //$omp threadprivate(a, b): a top-level directive marking globals as
   per-thread (the named variables go into the clause block's private
   slice). *)
let parse_threadprivate st =
  let sentinel = expect st Token.Pragma_sentinel in
  (match eat_omp st Token.Omp_threadprivate with
   | Some _ -> ()
   | None ->
       fail st "only the 'threadprivate' directive may appear at the top \
                level");
  let acc = fresh_clauses () in
  let t0 = st.pos - 1 in  (* the threadprivate keyword *)
  acc.private_ <- parse_ident_list st;
  record_clause st acc Ompfront.Directive.Cprivate t0;
  let pragma_end = expect st Token.Pragma_end in
  let clause_base = encode_clauses st acc in
  add_node st
    { tag = Ast.Omp_threadprivate; main_token = sentinel; lhs = clause_base;
      rhs = 0 }
    (sentinel, pragma_end)

let parse_top_decl st =
  match peek st with
  | Token.Kw_fn | Token.Kw_export -> parse_fn st
  | Token.Kw_var | Token.Kw_const -> parse_var_decl st
  | Token.Pragma_sentinel -> parse_threadprivate st
  | t -> fail st "expected a top-level declaration, found '%s'"
           (Token.tag_to_string t)

(** Parse a whole source buffer. *)
let parse (src : Source.t) : Ast.t * Ast.spans =
  let tokens = Tokenizer.tokenize src in
  let st = {
    src; tokens; pos = 0;
    nodes = Array.make 64 dummy_node;
    n_nodes = 0;
    extra = Array.make 64 0;
    n_extra = 0;
    spans = Array.make 64 (0, 0);
    clause_spans = [];
  } in
  (* reserve node 0 for the root *)
  ignore (add_node st dummy_node (0, 0));
  let decls = ref [] in
  while peek st <> Token.Eof do
    decls := parse_top_decl st :: !decls
  done;
  let b, e = add_extra_list st (List.rev !decls) in
  set_node st 0
    { tag = Ast.Root; main_token = 0; lhs = b; rhs = e }
    (0, max 0 (Array.length tokens - 1));
  let ast = {
    Ast.source = src;
    tokens;
    nodes = Array.sub st.nodes 0 st.n_nodes;
    extra_data = Array.sub st.extra 0 st.n_extra;
    clause_spans = List.rev st.clause_spans;
  } in
  (ast, Array.sub st.spans 0 st.n_nodes)

let parse_string ?name text = parse (Source.of_string ?name text)
