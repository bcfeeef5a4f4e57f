(** The Zr abstract syntax tree.

    The design mirrors the Zig compiler's data-oriented AST, which is
    what makes the paper's choices forced: nodes live in a flat table of
    [{tag; main_token; lhs; rhs}] records whose [lhs]/[rhs] either name
    other nodes or index into the shared [extra_data] array of 32-bit
    integers, and every node is anchored to the source text through its
    tokens.  OpenMP directives are ordinary nodes whose [lhs] points at
    their clause block in [extra_data] (paper, Figure 2). *)

type tag =
  | Root            (* lhs..rhs: extra slice of top-level decls *)
  | Fn_decl         (* main: name tok; lhs: extra proto; rhs: body block *)
  | Block           (* lhs..rhs: extra slice of statements *)
  | Var_decl        (* main: name tok; lhs: type node|0; rhs: init|0; var *)
  | Const_decl      (* as Var_decl, immutable *)
  | Assign          (* main: op tok (=, +=, ...); lhs: target; rhs: value *)
  | While           (* main: while tok; lhs: cond; rhs: extra [cont|0; body] *)
  | If              (* lhs: cond; rhs: extra [then; else|0] *)
  | Return          (* lhs: expr | 0 *)
  | Break
  | Continue
  | Expr_stmt       (* lhs: expr *)
  | Bin_op          (* main: op tok; lhs, rhs: operands *)
  | Un_op           (* main: op tok; lhs: operand *)
  | Call            (* lhs: callee; rhs: extra [n; args...] *)
  | Index           (* lhs: array expr; rhs: index expr *)
  | Field           (* lhs: expr; main: field name tok *)
  | Deref           (* lhs: expr; postfix dot-star dereference *)
  | Addr_of         (* lhs: expr  (&e) *)
  | Ident           (* main: token *)
  | Int_lit
  | Float_lit
  | String_lit
  | Bool_lit        (* main: true/false tok *)
  | Undefined_lit
  | Struct_lit      (* rhs: extra [n; (name tok, value node)...] *)
  | Type_name       (* main: token (i32, i64, f64, bool, void, name) *)
  | Type_slice      (* lhs: element type *)
  | Type_ptr        (* lhs: pointee type *)
  (* OpenMP directive statements; lhs: clause block base in extra_data;
     rhs: the governed statement node (0 for standalone directives). *)
  | Omp_parallel
  | Omp_for
  | Omp_parallel_for
  | Omp_barrier
  | Omp_critical
  | Omp_master
  | Omp_single
  | Omp_atomic
  | Omp_threadprivate  (* top-level; lhs: clause block (list in private slice) *)
  | Omp_task           (* lhs: clause block; rhs: governed statement *)
  | Omp_taskwait       (* standalone *)
  | Omp_taskloop       (* lhs: clause block; rhs: the governed while *)
  | Omp_sections       (* lhs: clause block; rhs: block of Omp_section *)
  | Omp_section        (* lhs: clause block; rhs: governed statement *)

let tag_is_omp = function
  | Omp_parallel | Omp_for | Omp_parallel_for | Omp_barrier
  | Omp_critical | Omp_master | Omp_single | Omp_atomic
  | Omp_threadprivate | Omp_task | Omp_taskwait | Omp_taskloop
  | Omp_sections | Omp_section -> true
  | Root | Fn_decl | Block | Var_decl | Const_decl | Assign | While | If
  | Return | Break | Continue | Expr_stmt | Bin_op | Un_op | Call | Index
  | Field | Deref | Addr_of | Ident | Int_lit | Float_lit | String_lit
  | Bool_lit | Undefined_lit | Struct_lit | Type_name | Type_slice
  | Type_ptr -> false

let omp_kind = function
  | Omp_parallel -> Some Ompfront.Directive.Parallel
  | Omp_for -> Some Ompfront.Directive.For
  | Omp_parallel_for -> Some Ompfront.Directive.Parallel_for
  | Omp_barrier -> Some Ompfront.Directive.Barrier
  | Omp_critical -> Some Ompfront.Directive.Critical
  | Omp_master -> Some Ompfront.Directive.Master
  | Omp_single -> Some Ompfront.Directive.Single
  | Omp_atomic -> Some Ompfront.Directive.Atomic
  | Omp_threadprivate -> Some Ompfront.Directive.Threadprivate
  | Omp_task -> Some Ompfront.Directive.Task
  | Omp_taskwait -> Some Ompfront.Directive.Taskwait
  | Omp_taskloop -> Some Ompfront.Directive.Taskloop
  | Omp_sections -> Some Ompfront.Directive.Sections
  | Omp_section -> Some Ompfront.Directive.Section
  | _ -> None

type node = {
  tag : tag;
  main_token : int;  (* index into the token array *)
  lhs : int;
  rhs : int;
}

type t = {
  source : Source.t;
  tokens : Token.t array;
  nodes : node array;        (* node 0 is the Root *)
  extra_data : int array;    (* the 32-bit side array *)
  clause_spans : (int * Ompfront.Directive.clause_span list) list;
      (* clause block base -> source spans of the clauses written on
         that directive, in source order (see {!clause_spans}) *)
}

let node t i = t.nodes.(i)

let extra t i = t.extra_data.(i)

(** Extra slice [\[b, e)] as a list. *)
let extra_slice t b e =
  Array.to_list (Array.sub t.extra_data b (e - b))

let token t i = t.tokens.(i)

let token_text t i = Tokenizer.text t.source t.tokens.(i)

(** The value of an integer literal's text (decimal digits; OCaml's
    reader skips the [_] separators), or [None] when it does not fit in
    the interpreter's 63-bit int.  The parser rejects such a literal,
    so on a parsed tree every [Int_lit] reads through {!int_lit}. *)
let int_of_literal text = int_of_string_opt text

(** The value of a string literal's text (quotes included, OCaml
    escapes), or [None] when an escape does not read; the parser
    rejects such a literal too. *)
let string_of_literal text =
  match Scanf.unescaped (String.sub text 1 (String.length text - 2)) with
  | s -> Some s
  | exception Scanf.Scan_failure _ -> None

(** The value of [Int_lit] node [i]. *)
let int_lit t i =
  match int_of_literal (token_text t t.nodes.(i).main_token) with
  | Some v -> v
  | None -> invalid_arg "Ast.int_lit: the parser admits no such literal"

(** Source byte range covered by node [i]: requires the first and last
    token indices, which the parser records implicitly through
    [main_token]; for ranges we compute bounds by walking children.  The
    preprocessor needs exact statement extents, so the parser also
    stores them: see {!Spans}. *)

(* Statement/expression extents: a parallel array filled by the parser
   mapping node index -> (first token, last token). *)
type spans = (int * int) array

let top_decls t =
  let root = t.nodes.(0) in
  extra_slice t root.lhs root.rhs

let block_stmts t i =
  let n = node t i in
  if n.tag <> Block then invalid_arg "Ast.block_stmts: not a block";
  extra_slice t n.lhs n.rhs

let call_args t i =
  let n = node t i in
  if n.tag <> Call then invalid_arg "Ast.call_args: not a call";
  let base = n.rhs in
  let count = extra t base in
  extra_slice t (base + 1) (base + 1 + count)

(** Clause view of an OpenMP directive node. *)
let clauses t i =
  let n = node t i in
  if not (tag_is_omp n.tag) then invalid_arg "Ast.clauses: not a directive";
  Ompfront.Directive.decode t.extra_data n.lhs

(** Per-clause source spans of directive node [i], in the order the
    clauses were written.  Each span covers the clause keyword through
    its closing parenthesis, so diagnostics can point at the precise
    clause instead of the whole pragma line. *)
let clause_spans t i : Ompfront.Directive.clause_span list =
  let n = node t i in
  if not (tag_is_omp n.tag) then
    invalid_arg "Ast.clause_spans: not a directive";
  match List.assoc_opt n.lhs t.clause_spans with
  | Some spans -> spans
  | None -> []

(** Byte range [\[start, stop)] of a clause span. *)
let clause_span_bytes t (cs : Ompfront.Directive.clause_span) =
  ((token t cs.Ompfront.Directive.ctok_first).Token.start,
   (token t cs.Ompfront.Directive.ctok_last).Token.stop)
