(** Pass: deferred tasking and sections worksharing.

    Runs after region outlining and worksharing loops, so by the time a
    [task] body is inspected every variable that was shared in an
    enclosing region is already a pointer rebinding ([x__ptr]).  That
    makes OpenMP's task data-environment defaults fall out of one rule:
    capture everything the body references *by value*.  A pointer
    rebinding copied by value still points at the shared variable —
    the task sees it shared — while a plain local copied by value is a
    snapshot at creation time, i.e. firstprivate, exactly the default
    the specification gives tasks for variables not shared in the
    enclosing context.

    [task] outlines its body into [fn __omp_task_N(fp, sh)] and replaces
    the construct with [__kmpc_omp_task(__omp_task_N, .{...}, .{...})];
    the runtime defers the closure to the work-stealing deques (or runs
    it undeferred on serial teams).  [taskwait] is a direct runtime
    call.  [taskloop grainsize(g)] tiles the iteration space into
    ceil(trips/g) chunks, emits one [//$omp task] per chunk (lowered by
    the next round of this same pass) and closes with a taskwait.
    [sections] reuses the dynamic-dispatch protocol over the section
    indices [0, n) with chunk 1, so the checker's existing dispatch
    decision points cover which thread runs which section. *)

open Zr

module Sset = Names.Sset

let task_tags = function
  | Ast.Omp_task | Ast.Omp_taskwait | Ast.Omp_taskloop | Ast.Omp_sections
  | Ast.Omp_section -> true
  | _ -> false

type plan = {
  replacement : Synth.replacement;
  outlined : string option;  (** task function to append, if any *)
}

(* --------------------------- capture model -------------------------- *)

(** How one variable crosses into a task body.  This partition is the
    single source of truth for task data environments: {!plan_task}
    renders the outline from it, and the static analyser
    ({!Analyze.Taskgraph}) consumes the same lists so both layers agree
    on which cells a deferred body can share with its creator. *)
type capture = {
  cname : string;
  corigin : [ `Private | `Firstprivate | `Shared | `Implicit ];
      (** the clause that scoped the name, or [`Implicit] for the
          by-value default *)
  cby : [ `Value | `Ref | `Privatised ];
      (** [`Value]: snapshot at creation (firstprivate semantics; for a
          pointer rebinding the pointee stays shared).  [`Ref]: captured
          by address — the task aliases the creator's cell.
          [`Privatised]: fresh uninitialised task-local storage. *)
}

(** The capture list of a [task]-family construct (anything with a
    governed body and task data-environment defaults: [task] and
    [taskloop]).  Works on both the original source (analysis time,
    where enclosing-shared names are still plain) and the
    post-outlining source (lowering time, where they are [__ptr]
    rebindings) — the partition rule is the same.  [globals] is
    {!Names.globals} of the AST, which callers build once per pass. *)
let captures (c : Synth.ctx) ~globals dir : capture list =
  let ast = c.Synth.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let body = node.Ast.rhs in
  let name_of = Synth.ident_name c in
  let priv = List.map name_of cl.private_ in
  let fp = List.map name_of cl.firstprivate in
  let sh_explicit = List.map name_of cl.shared in
  let declared = Names.declared_under ast body in
  let referenced = Names.referenced_under ast body in
  let explicit = Sset.of_list (priv @ fp @ sh_explicit) in
  let implicit =
    Sset.elements
      Sset.(diff (diff (diff referenced declared) globals) explicit)
  in
  List.map (fun x -> { cname = x; corigin = `Private; cby = `Privatised })
    priv
  @ List.map (fun x -> { cname = x; corigin = `Firstprivate; cby = `Value })
      fp
  @ List.map
      (fun x ->
        (* shared(x__ptr) names a pointer rebinding: copying the pointer
           keeps the pointee shared; a plain local must be captured by
           address *)
        { cname = x; corigin = `Shared;
          cby = (if Outline.is_ptr_name x then `Value else `Ref) })
      sh_explicit
  @ List.map (fun x -> { cname = x; corigin = `Implicit; cby = `Value })
      implicit

let stmt_plan c dir text =
  let node = Ast.node c.Synth.ast dir in
  let dir_start, _ = Synth.node_bytes c dir in
  let stop =
    if node.Ast.rhs = 0 then snd (Synth.node_bytes c dir)
    else snd (Synth.node_bytes c node.Ast.rhs)
  in
  { replacement = { Synth.start = dir_start; stop; text }; outlined = None }

(* ------------------------------- task ----------------------------- *)

let plan_task (c : Synth.ctx) ~globals ~counter dir : plan =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let body = node.Ast.rhs in
  let caps = captures c ~globals dir in
  let sel p = List.filter_map (fun x -> if p x then Some x.cname else None) in
  let priv = sel (fun x -> x.corigin = `Private) caps in
  let fp = sel (fun x -> x.corigin = `Firstprivate) caps in
  (* An explicit shared(x__ptr) names a variable that is already a
     pointer rebinding: copying the pointer keeps the pointee shared,
     no rewrite needed — same treatment as the implicit captures.  A
     plain shared(s) local must be captured by address with the body
     rewritten to pointer accesses, as in region outlining. *)
  let sh_plain = sel (fun x -> x.corigin = `Shared && x.cby = `Ref) caps in
  let sh_ptr = sel (fun x -> x.corigin = `Shared && x.cby = `Value) caps in
  let implicit = sel (fun x -> x.corigin = `Implicit) caps in
  let byval = implicit @ sh_ptr in
  (* Explicit firstprivate/private of a pointer rebinding rebinds the
     name to a task-local value; the body's [x__ptr.*] accesses fold
     back to the plain name by swallowing the dereference. *)
  let folded = Outline.folded (fp @ priv) in
  let fn_name = Printf.sprintf "__omp_task_%d" counter in
  (* ---- creation site ---- *)
  let fp_fields =
    Outline.field_list
      (List.map (fun x -> (x, Outline.value_text x)) fp
       @ List.map (fun x -> (x, x)) byval)
      (fun (x, v) -> Printf.sprintf ".%s = %s" x v)
  in
  let sh_fields =
    Outline.field_list sh_plain
      (fun x -> Printf.sprintf ".%s = &%s" x (Outline.value_text x))
  in
  let text =
    Printf.sprintf "__kmpc_omp_task(%s, .{ %s }, .{ %s });"
      fn_name fp_fields sh_fields
  in
  let dir_start, _ = Synth.node_bytes c dir in
  let _, body_stop = Synth.node_bytes c body in
  let replacement =
    { Synth.start = dir_start; stop = body_stop; text }
  in
  (* ---- outlined task function ---- *)
  let sh_set = Sset.of_list sh_plain in
  let body_text =
    Synth.rewrite_range c
      ~first_token:(Synth.node_first_token c body)
      ~last_token:(Synth.node_last_token c body)
      ~consume_deref:(fun name -> Sset.mem name folded)
      ~code:(fun name ->
        if Sset.mem name sh_set then
          Some (name ^ Outline.ptr_suffix ^ ".*")
        else if Sset.mem name folded then Some name
        else None)
      ~pragma:(fun name ->
        if Sset.mem name sh_set then Some (name ^ Outline.ptr_suffix)
        else None)
      ()
  in
  let o = Buffer.create 256 in
  let opf fmt = Printf.ksprintf (Buffer.add_string o) fmt in
  opf "fn %s(fp: anytype, sh: anytype) void {\n" fn_name;
  List.iter (fun x -> opf "    var %s = fp.%s;\n" x x) (fp @ byval);
  List.iter
    (fun x -> opf "    var %s%s = sh.%s;\n" x Outline.ptr_suffix x)
    sh_plain;
  List.iter (fun x -> opf "    var %s = undefined;\n" x) priv;
  let body_text =
    if (Ast.node ast body).Ast.tag = Ast.Block then body_text
    else "{ " ^ body_text ^ " }"
  in
  opf "    %s\n" body_text;
  opf "}\n";
  { replacement; outlined = Some (Buffer.contents o) }

(* ----------------------------- taskloop --------------------------- *)

let plan_taskloop (c : Synth.ctx) dir : plan =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let wh = node.Ast.rhs in
  let lp, lp_step, _ = Nest.lowered ast dir in
  let g = max 1 cl.grainsize in
  let name_of = Synth.ident_name c in
  let priv = List.map name_of cl.private_ in
  let fp = List.map name_of cl.firstprivate in
  (* privatise the counter into the per-task induction variable *)
  let map name = if name = lp.Nest.counter then Some "__omp_tl_iv" else None in
  let rw n =
    Synth.rewrite_range c
      ~first_token:(Synth.node_first_token c n)
      ~last_token:(Synth.node_last_token c n)
      ~consume_deref:(fun name -> map name <> None)
      ~code:map ~pragma:map ()
  in
  let upper_text = rw lp.bound in
  let body_text = rw lp.body in
  let counter_value = if lp.is_ptr then lp.counter ^ ".*" else lp.counter in
  let step = Loops.step_text c lp_step in
  let incl = if lp.inclusive then "1" else "0" in
  let clause_text =
    Synth.print_list_clause "firstprivate" fp
    ^ Synth.print_list_clause "private" priv
  in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  bpf "    var __omp_tl_lb = %s;\n" counter_value;
  bpf "    var __omp_tl_trips = __omp_trips(__omp_tl_lb, %s, %s, %s);\n"
    upper_text step incl;
  bpf "    var __omp_tl_done = 0;\n";
  bpf "    while (__omp_tl_done < __omp_tl_trips) : \
       (__omp_tl_done += %d) {\n" g;
  bpf "        var __omp_tl_first = __omp_tl_done;\n";
  bpf "        //$omp task%s\n" clause_text;
  bpf "        {\n";
  bpf "            var __omp_tl_stop = __omp_min(__omp_tl_first + %d, \
       __omp_tl_trips);\n" g;
  bpf "            var __omp_tl_k = __omp_tl_first;\n";
  bpf "            while (__omp_tl_k < __omp_tl_stop) : \
       (__omp_tl_k += 1) {\n";
  bpf "                var __omp_tl_iv = __omp_tl_lb + __omp_tl_k * (%s);\n"
    step;
  bpf "                %s\n" body_text;
  bpf "            }\n";
  bpf "        }\n";
  bpf "    }\n";
  bpf "    __kmpc_omp_taskwait();\n";
  bpf "}";
  let dir_start, _ = Synth.node_bytes c dir in
  let _, wh_stop = Synth.node_bytes c wh in
  { replacement =
      { Synth.start = dir_start; stop = wh_stop; text = Buffer.contents b };
    outlined = None }

(* ----------------------------- sections --------------------------- *)

let plan_sections (c : Synth.ctx) dir : plan =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let block = node.Ast.rhs in
  let name_of = Synth.ident_name c in
  let priv = List.map name_of cl.private_ in
  let fp = List.map name_of cl.firstprivate in
  let bodies =
    List.map
      (fun s -> (Ast.node ast s).Ast.rhs)
      (Ast.block_stmts ast block)
  in
  let n = List.length bodies in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  List.iter (fun x -> bpf "    var %s = undefined;\n" x) priv;
  List.iter
    (fun x -> bpf "    var %s = %s;\n" x (Outline.value_text x))
    fp;
  bpf "    var __omp_h = __kmpc_dispatch_init_dynamic(0, %d, 1, 1, 0);\n" n;
  bpf "    var __omp_c = __kmpc_dispatch_next(__omp_h);\n";
  bpf "    while (__omp_c.more) : \
       (__omp_c = __kmpc_dispatch_next(__omp_h)) {\n";
  bpf "        var __omp_sec = __omp_c.lower;\n";
  bpf "        while (__omp_ws_cmp(__omp_sec, __omp_c.upper, 1)) : \
       (__omp_sec += 1) {\n";
  List.iteri
    (fun i body ->
      bpf "            %sif (__omp_sec == %d) {\n%s\n            }\n"
        (if i = 0 then "" else "else ")
        i (Synth.node_text c body))
    bodies;
  bpf "        }\n";
  bpf "    }\n";
  if not cl.flags.Ompfront.Packed.nowait then bpf "    __kmpc_barrier();\n";
  bpf "}";
  let dir_start, _ = Synth.node_bytes c dir in
  let _, block_stop = Synth.node_bytes c block in
  { replacement =
      { Synth.start = dir_start; stop = block_stop;
        text = Buffer.contents b };
    outlined = None }

(* ------------------------------- pass ----------------------------- *)

let plan_one (c : Synth.ctx) ~globals ~counter dir : plan =
  let node = Ast.node c.Synth.ast dir in
  match node.Ast.tag with
  | Ast.Omp_task ->
      let k = !counter in
      incr counter;
      plan_task c ~globals ~counter:k dir
  | Ast.Omp_taskwait -> stmt_plan c dir "__kmpc_omp_taskwait();"
  | Ast.Omp_taskloop -> plan_taskloop c dir
  | Ast.Omp_sections -> plan_sections c dir
  | Ast.Omp_section ->
      Source.error c.Synth.ast.Ast.source
        (Ast.token c.Synth.ast node.Ast.main_token).Token.start
        "orphaned '//$omp section': section directives are only valid \
         directly inside a sections block"
  | _ -> assert false

(** One round of the pass; [None] when no tasking directive was found.
    [counter] supplies unique task-function indices across rounds. *)
let round ~counter (c : Synth.ctx) : string option =
  match Names.omp_nodes c.ast task_tags with
  | [] -> None
  | dirs ->
      (* Outermost-first: a sections construct consumes its nested
         section nodes, a task body keeps its nested pragmas verbatim
         for the next round. *)
      let outermost =
        Synth.outermost (List.map (fun d -> (d, Synth.node_bytes c d)) dirs)
      in
      let globals = Names.globals c.ast in
      let plans = List.map (fun d -> plan_one c ~globals ~counter d) outermost in
      let rewritten =
        Synth.apply_replacements (Synth.text c)
          (List.map (fun p -> p.replacement) plans)
      in
      let appended =
        List.filter_map (fun p -> p.outlined) plans
      in
      Some
        (match appended with
         | [] -> rewritten
         | fns -> rewritten ^ "\n" ^ String.concat "\n" fns)

let run ?name ~counter source = round ~counter (Synth.parse ?name source)
