(** Source-text synthesis utilities.

    The preprocessor works on source text (the paper's design: AST nodes
    are pinned to source bytes, so code is injected by rewriting the
    text and re-parsing).  These helpers extract node extents, rewrite
    identifier occurrences inside an extent using the token stream, and
    print clause lists back to pragma syntax. *)

open Zr

type ctx = { ast : Ast.t; spans : Ast.spans }

(** Parse [text]: the input of a replacement round. *)
let parse ?(name = "<input>") text : ctx =
  let ast, spans = Parser.parse (Source.of_string ~name text) in
  { ast; spans }

(** The source text [c] was parsed from. *)
let text c = c.ast.Ast.source.Source.text

let node_first_token c i = fst c.spans.(i)
let node_last_token c i = snd c.spans.(i)

(** Byte extent [\[start, stop)] of node [i]. *)
let node_bytes c i =
  let t0 = Ast.token c.ast (node_first_token c i) in
  let t1 = Ast.token c.ast (node_last_token c i) in
  (t0.Token.start, t1.Token.stop)

let node_text c i =
  let start, stop = node_bytes c i in
  Source.slice c.ast.Ast.source ~start ~stop

let token_text c tok = Ast.token_text c.ast tok

let ident_name c node = token_text c (Ast.node c.ast node).Ast.main_token

(* ------------------------------------------------------------------ *)
(** Identifier rewriting.

    [rewrite_range c ~first_token ~last_token ~code ~pragma] returns the
    source text of the token range with every identifier occurrence
    substituted: [code name] inside ordinary code, [pragma name] inside
    pragma lines (between a sentinel and its end-of-line).  [None] keeps
    the occurrence.  An identifier immediately preceded by '.' is a
    field name and is never rewritten (the paper's no-shadowing rule
    III-B3).  When [consume_deref] holds for a substituted occurrence, a
    directly following [.*] token is swallowed — used when a pointer
    access is folded back into a plain name. *)
let rewrite_range c ~first_token ~last_token
    ?(consume_deref = fun _ -> false)
    ~(code : string -> string option)
    ~(pragma : string -> string option) () =
  let ast = c.ast in
  let src = ast.Ast.source in
  let buf = Buffer.create 256 in
  let start_byte = (Ast.token ast first_token).Token.start in
  let cursor = ref start_byte in
  let in_pragma = ref false in
  let skip_next_deref = ref false in
  for ti = first_token to last_token do
    let tok = Ast.token ast ti in
    (match tok.Token.tag with
     | Token.Pragma_sentinel -> in_pragma := true
     | Token.Pragma_end -> in_pragma := false
     | _ -> ());
    let emit_upto stop =
      Buffer.add_string buf
        (Source.slice src ~start:!cursor ~stop);
      cursor := stop
    in
    match tok.Token.tag with
    | Token.Dot_star when !skip_next_deref ->
        (* swallow: copy text before it, skip the token itself *)
        emit_upto tok.Token.start;
        cursor := tok.Token.stop;
        skip_next_deref := false
    | Token.Identifier ->
        skip_next_deref := false;
        let preceded_by_dot =
          ti > 0
          && (match (Ast.token ast (ti - 1)).Token.tag with
              | Token.Dot | Token.Dot_brace -> true
              | _ -> false)
        in
        if preceded_by_dot then ()
        else begin
          let name = Source.slice src ~start:tok.Token.start ~stop:tok.Token.stop in
          let subst = if !in_pragma then pragma name else code name in
          match subst with
          | None -> ()
          | Some replacement ->
              emit_upto tok.Token.start;
              Buffer.add_string buf replacement;
              cursor := tok.Token.stop;
              if consume_deref name then skip_next_deref := true
        end
    | _ -> skip_next_deref := false
  done;
  let stop_byte = (Ast.token ast last_token).Token.stop in
  Buffer.add_string buf (Source.slice src ~start:!cursor ~stop:stop_byte);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(** Clause printing (for the combined-construct split). *)

let print_list_clause name = function
  | [] -> ""
  | names -> Printf.sprintf " %s(%s)" name (String.concat ", " names)

let print_reductions reds =
  (* group by operator to keep the pragma compact *)
  let ops = List.sort_uniq compare (List.map fst reds) in
  String.concat ""
    (List.map
       (fun op ->
         let names =
           List.filter_map
             (fun (o, n) -> if o = op then Some n else None)
             reds
         in
         Printf.sprintf " reduction(%s: %s)"
           (Ompfront.Directive.red_op_to_string op)
           (String.concat ", " names))
       ops)

let print_schedule = function
  | None -> ""
  | Some s -> Printf.sprintf " schedule(%s)" (Omp_model.Sched.to_string s)

let print_default = function
  | Ompfront.Packed.Default_unspecified -> ""
  | Ompfront.Packed.Default_shared -> " default(shared)"
  | Ompfront.Packed.Default_none -> " default(none)"

(* ------------------------------------------------------------------ *)
(** Replacement plumbing: apply byte-range replacements to a source
    string.  Ranges must not overlap; they are applied left to right
    with the offset adjustment of the paper's Listing 5 falling out of
    the string rebuild. *)

type replacement = {
  start : int;
  stop : int;
  text : string;
}

(** Keep only the nodes whose byte range is not strictly contained in
    another listed node's range — one replacement round handles the
    outermost constructs, later rounds catch what they exposed.  (Node
    indices cannot be used for this: the parser builds children before
    parents, so an inner directive has the *smaller* index.) *)
let outermost (ranged : (int * (int * int)) list) : int list =
  List.filter_map
    (fun (d, (lo, hi)) ->
      let contained =
        List.exists
          (fun (d', (lo', hi')) ->
            d' <> d && lo >= lo' && hi <= hi' && (lo' < lo || hi < hi'))
          ranged
      in
      if contained then None else Some d)
    ranged

let apply_replacements (source : string) (rs : replacement list) : string =
  let rs = List.sort (fun a b -> compare a.start b.start) rs in
  let buf = Buffer.create (String.length source) in
  let cursor = ref 0 in
  List.iter
    (fun r ->
      if r.start < !cursor then
        invalid_arg "Synth.apply_replacements: overlapping replacements";
      Buffer.add_substring buf source !cursor (r.start - !cursor);
      Buffer.add_string buf r.text;
      cursor := r.stop)
    rs;
  Buffer.add_substring buf source !cursor (String.length source - !cursor);
  Buffer.contents buf
