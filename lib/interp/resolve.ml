(** The tree walker's table of a parsed program ({!Interp}).

    What the walker would otherwise recompute on every evaluation is
    read here once, the first time the walker runs a parsed program
    ({!Interp.resolve} for a caller that instantiates one parse many
    times, as the race checker does), and every later evaluation reads
    it back:

    - the value of each literal token;
    - each identifier token's name, interned per program, so that a
      scope is a short list searched by integer id and no name is
      copied out of the source;
    - for each block, whether it declares a name itself (a block that
      does not needs no scope of its own);
    - for each node that can be a traced access, the byte offset of its
      site and the variable it names, for the checker's tracer.

    The table is immutable once built, so the domains of a parallel
    region share it freely.  Scope chains, globals, functions, builtins
    and escaped cells stay dynamic: they belong to an execution, not to
    the parse. *)

open Zr

type t = {
  ast : Ast.t;
  lit : Value.t array;   (** by token: a literal token's value *)
  name : int array;      (** by token: an identifier's id, -1 otherwise *)
  names : string array;  (** by id: the identifier's text *)
  scoped : bool array;   (** by node: a block that declares a name *)
  off : int array;       (** by node: byte offset of the main token *)
  hint : string array;   (** by node: the variable an access there names *)
  omp : int;             (** the id of [omp] (the API namespace), or -1 *)
}

(* The value of a literal token, [VUndef] for any other token.  The
   parser rejects a literal that does not read, so [VUndef] never
   stands for one. *)
let literal ast (tok : Token.t) : Value.t =
  let text () = Tokenizer.text ast.Ast.source tok in
  match tok.Token.tag with
  | Token.Int_literal ->
      Option.fold ~none:Value.VUndef ~some:(fun i -> Value.VInt i)
        (Ast.int_of_literal (text ()))
  | Token.Float_literal -> Value.VFloat (float_of_string (text ()))
  | Token.String_literal ->
      Option.fold ~none:Value.VUndef ~some:(fun s -> Value.VStr s)
        (Ast.string_of_literal (text ()))
  | Token.Kw_true -> Value.VBool true
  | Token.Kw_false -> Value.VBool false
  | _ -> Value.VUndef

let build (ast : Ast.t) : t =
  let ids = Hashtbl.create 64 and names = ref [] in
  let intern s =
    match Hashtbl.find_opt ids s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids s id;
        names := s :: !names;
        id
  in
  let toks = ast.Ast.tokens and nodes = ast.Ast.nodes in
  let name =
    Array.map
      (fun (tok : Token.t) ->
        match tok.Token.tag with
        | Token.Identifier -> intern (Tokenizer.text ast.Ast.source tok)
        | _ -> -1)
      toks
  in
  let names = Array.of_list (List.rev !names) in
  let declares stmt =
    match nodes.(stmt).Ast.tag with
    | Ast.Var_decl | Ast.Const_decl -> true
    | _ -> false
  in
  let rec hint node =
    let n = nodes.(node) in
    match n.Ast.tag with
    | Ast.Ident -> names.(name.(n.Ast.main_token))
    | Ast.Index | Ast.Deref | Ast.Field -> hint n.Ast.lhs
    | _ -> ""
  in
  { ast;
    lit = Array.map (literal ast) toks;
    name;
    names;
    scoped =
      Array.mapi
        (fun i (n : Ast.node) ->
          n.Ast.tag = Ast.Block && List.exists declares (Ast.block_stmts ast i))
        nodes;
    off =
      Array.map (fun (n : Ast.node) -> toks.(n.Ast.main_token).Token.start) nodes;
    hint = Array.init (Array.length nodes) hint;
    omp = Option.value (Hashtbl.find_opt ids "omp") ~default:(-1) }
