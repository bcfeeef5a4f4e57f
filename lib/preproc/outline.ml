(** Pass: parallel regions → outlined functions + [__kmpc_fork_call].

    Reproduces the paper's section III-B1.  Each [parallel] directive is
    replaced by a block that packs the captured variables into three
    anonymous struct groups — firstprivate (by value), shared (by
    pointer) and reduction (atomic cells) — and calls the runtime's
    fork entry point with a pointer to a synthesised outlined function.
    The outlined function unpacks each group: firstprivate values are
    rebound under their original names, shared variables are bound as
    pointers with every access in the body rewritten to a pointer
    access, private variables are declared [undefined], and reduction
    variables are declared with the operator's identity element and
    atomically combined into their cells on exit. *)

open Zr

module Sset = Names.Sset

let ptr_suffix = "__ptr"

let is_ptr_name name =
  String.length name > String.length ptr_suffix
  && String.sub name
       (String.length name - String.length ptr_suffix)
       (String.length ptr_suffix)
     = ptr_suffix

(** Source text denoting the *value* of a captured name: names that are
    themselves pointer rebindings (from an enclosing outlining round)
    need a dereference. *)
let value_text name = if is_ptr_name name then name ^ ".*" else name

(** The pointer rebindings among privatised [names]: each is rebound to
    a local value of the same name, and its [x__ptr.*] accesses fold
    back to the plain name (through [Synth.rewrite_range
    ~consume_deref]). *)
let folded names = Sset.of_list (List.filter is_ptr_name names)

let atomic_combine_fn = function
  | Ompfront.Directive.Radd -> "__omp_atomic_combine_add"
  | Ompfront.Directive.Rsub -> "__omp_atomic_combine_add"
  | Ompfront.Directive.Rmul -> "__omp_atomic_combine_mul"
  | Ompfront.Directive.Rmin -> "__omp_atomic_combine_min"
  | Ompfront.Directive.Rmax -> "__omp_atomic_combine_max"

(** The fields of a struct literal, one per name. *)
let field_list names f = String.concat ", " (List.map f names)

type plan = {
  replacement : Synth.replacement;
  outlined : string;  (** function definition to append to the file *)
}

(** Build the outlining plan for directive node [dir]. *)
let plan_region (c : Synth.ctx) ~globals ~counter dir : plan =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let region = node.Ast.rhs in
  let name_of = Synth.ident_name c in
  let priv = List.map name_of cl.private_ in
  let fp = List.map name_of cl.firstprivate in
  let sh_explicit = List.map name_of cl.shared in
  let reds = List.map (fun (op, n) -> (op, name_of n)) cl.reductions in
  let red_names = List.map snd reds in
  let declared = Names.declared_under ast region in
  let referenced = Names.referenced_under ast region in
  let explicit =
    Sset.of_list (priv @ fp @ sh_explicit @ red_names)
  in
  let implicit =
    Sset.(diff (diff (diff referenced declared) globals) explicit)
  in
  if cl.flags.Ompfront.Packed.default = Ompfront.Packed.Default_none
     && not (Sset.is_empty implicit) then
    Source.error ast.Ast.source
      (Ast.token ast node.Ast.main_token).Token.start
      "default(none): variables %s are referenced but have no sharing \
       clause"
      (String.concat ", " (Sset.elements implicit));
  (* A name that is already a pointer rebinding (an enclosing region's
     shared variable) is shared by copying the pointer itself, with no
     rewrite; privatised, it is {!folded}.  {!Loops} and {!Tasking}
     apply the same rule. *)
  let sh_ptr, shared =
    List.partition is_ptr_name (sh_explicit @ Sset.elements implicit)
  in
  let folded = folded (fp @ priv @ red_names) in
  let fn_name = Printf.sprintf "__omp_outlined_%d" counter in
  (* ---- call site ---- *)
  let b = Buffer.create 256 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  List.iter
    (fun (_, x) ->
      bpf "    var __omp_red_%s = __omp_atomic_new(%s);\n" x (value_text x))
    reds;
  let fp_fields =
    field_list
      (List.map (fun x -> (x, value_text x)) fp
       @ List.map (fun x -> (x, x)) sh_ptr)
      (fun (x, v) -> Printf.sprintf ".%s = %s" x v)
  in
  let sh_fields =
    field_list shared (fun x -> Printf.sprintf ".%s = &%s" x (value_text x))
  in
  let red_fields =
    field_list red_names (fun x -> Printf.sprintf ".%s = __omp_red_%s" x x)
  in
  let nt_text =
    if cl.num_threads = 0 then "0" else Synth.node_text c cl.num_threads
  in
  bpf "    __kmpc_fork_call(%s, .{ %s }, .{ %s }, .{ %s }, %s);\n"
    fn_name fp_fields sh_fields red_fields nt_text;
  List.iter
    (fun (_, x) ->
      bpf "    %s = __omp_atomic_load(__omp_red_%s);\n" (value_text x) x)
    reds;
  bpf "}";
  let dir_start, _ = Synth.node_bytes c dir in
  let _, region_stop = Synth.node_bytes c region in
  let replacement =
    { Synth.start = dir_start; stop = region_stop; text = Buffer.contents b }
  in
  (* ---- outlined function ---- *)
  let shared_set = Sset.of_list shared in
  let body_text =
    Synth.rewrite_range c
      ~first_token:(Synth.node_first_token c region)
      ~last_token:(Synth.node_last_token c region)
      ~consume_deref:(fun name -> Sset.mem name folded)
      ~code:(fun name ->
        if Sset.mem name shared_set then Some (name ^ ptr_suffix ^ ".*")
        else if Sset.mem name folded then Some name
        else None)
      ~pragma:(fun name ->
        if Sset.mem name shared_set then Some (name ^ ptr_suffix)
        else None)
      ()
  in
  let o = Buffer.create 256 in
  let opf fmt = Printf.ksprintf (Buffer.add_string o) fmt in
  opf "fn %s(fp: anytype, sh: anytype, red: anytype) void {\n" fn_name;
  List.iter (fun x -> opf "    var %s = fp.%s;\n" x x) (fp @ sh_ptr);
  List.iter (fun x -> opf "    var %s%s = sh.%s;\n" x ptr_suffix x) shared;
  List.iter (fun x -> opf "    var %s = undefined;\n" x) priv;
  List.iter
    (fun (op, x) ->
      opf "    var %s = %s;\n" x
        (Ompfront.Directive.red_op_identity op (Printf.sprintf "red.%s" x)))
    reds;
  let body_text =
    if (Ast.node ast region).Ast.tag = Ast.Block then body_text
    else "{ " ^ body_text ^ " }"
  in
  opf "    %s\n" body_text;
  List.iter
    (fun (op, x) -> opf "    %s(red.%s, %s);\n" (atomic_combine_fn op) x x)
    reds;
  opf "}\n";
  { replacement; outlined = Buffer.contents o }

(** Run the pass once over [c]: replace every [parallel] region,
    appending the outlined functions at the end of the file.  Returns
    [None] when there was nothing to do.  [counter] supplies unique
    outlined-function indices across repeated rounds. *)
let round ~counter (c : Synth.ctx) : string option =
  let dirs = Names.omp_nodes c.ast (fun tag -> tag = Ast.Omp_parallel) in
  (* Only outline regions not nested inside another parallel region in
     the same round; inner ones are caught by the next round's re-parse
     of the outlined function. *)
  let outermost =
    Synth.outermost (List.map (fun d -> (d, Synth.node_bytes c d)) dirs)
  in
  match outermost with
  | [] -> None
  | dirs ->
      let globals = Names.globals c.ast in
      let plans =
        List.map
          (fun d ->
            let k = !counter in
            incr counter;
            plan_region c ~globals ~counter:k d)
          dirs
      in
      let rewritten =
        Synth.apply_replacements (Synth.text c)
          (List.map (fun p -> p.replacement) plans)
      in
      let appended =
        String.concat "\n" (List.map (fun p -> p.outlined) plans)
      in
      Some (rewritten ^ "\n" ^ appended)

let run ?name ~counter source = round ~counter (Synth.parse ?name source)
