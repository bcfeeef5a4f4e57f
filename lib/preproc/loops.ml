(** Pass: worksharing loops → [__kmpc_for_static_*] / [__kmpc_dispatch_*].

    Reproduces the paper's section III-B2.  The bounds are recovered
    syntactically from the Zig-style [while] loop, by {!Nest}: the lower
    bound is the counter's value on entry, the upper bound is the
    right-hand side of the comparison, the comparison operator decides
    inclusivity, and the increment comes from the right-hand side of the
    compound assignment in the continuation expression.  Static unchunked loops
    lower to the [for_static_init/fini] pair; chunked static, dynamic,
    guided and runtime schedules lower to the dispatcher protocol
    ([dispatch_init]/[dispatch_next]).

    The loop counter is always privatised into a fresh [__omp_iv]
    variable, and loop-level [reduction] clauses create thread-local
    accumulators combined into the original variable under the
    reduction critical section — the temporaries "may not share their
    names with the shared variable they are being reduced into"
    (III-B3), hence the [__omp_red_] prefix. *)

open Zr

open Ompfront

let combine_expr op target tmp =
  match op with
  | Directive.Radd | Directive.Rsub ->
      Printf.sprintf "%s = %s + %s;" target target tmp
  | Directive.Rmul -> Printf.sprintf "%s = %s * %s;" target target tmp
  | Directive.Rmin -> Printf.sprintf "%s = __omp_min(%s, %s);" target target tmp
  | Directive.Rmax -> Printf.sprintf "%s = __omp_max(%s, %s);" target target tmp

(* The step as text, sign included: [s] for [+= s], [-(s)] for [-= s]. *)
let step_text (c : Synth.ctx) (s : Nest.step) =
  let t = Synth.node_text c s.Nest.node in
  if s.sign > 0 then t else "-(" ^ t ^ ")"

let plan_loop (c : Synth.ctx) ~globals dir : Synth.replacement =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let wh = node.Ast.rhs in
  (* The pragma's loop, then levels 1..depth-1 of the collapsed nest,
     outermost first.  A body that is not a canonical nest at some level
     is a hard (diagnosed) error — collapse is never silently ignored. *)
  let lp, lp_step, nest_levels = Nest.lowered ast dir in
  let depth = 1 + List.length nest_levels in
  let collapsed = depth >= 2 in
  (* Collapsed counter name at nest level [k] (0 = the pragma's loop). *)
  let cname k = Printf.sprintf "__omp_c%d" k in
  let level_of name =
    if name = lp.Nest.counter then Some 0
    else
      let rec find k = function
        | [] -> None
        | (_, (ilp : Nest.loop), _) :: rest ->
            if ilp.counter = name then Some k else find (k + 1) rest
      in
      find 1 nest_levels
  in
  let name_of = Synth.ident_name c in
  let priv = List.map name_of cl.private_ in
  let fp = List.map name_of cl.firstprivate in
  let reds = List.map (fun (op, n) -> (op, name_of n)) cl.reductions in
  (* Rewriting map: privatise the counter(s), redirect reduction vars to
     their thread-local temporaries.  A privatised pointer rebinding (a
     region's shared variable) is redeclared as a local value, so its
     [x__ptr.*] accesses fold back to the plain name, as in {!Outline}
     and {!Tasking}. *)
  let red_tmp x = "__omp_red_" ^ x in
  let folded = Outline.folded (fp @ priv) in
  let map name =
    match level_of name with
    | Some 0 -> Some (if collapsed then cname 0 else "__omp_iv")
    | Some k -> Some (cname k)
    | None ->
        if List.exists (fun (_, x) -> x = name) reds then
          Some (red_tmp name)
        else if Names.Sset.mem name folded then Some name
        else None
  in
  let consume name = map name <> None in
  let rw node_ =
    Synth.rewrite_range c
      ~first_token:(Synth.node_first_token c node_)
      ~last_token:(Synth.node_last_token c node_)
      ~consume_deref:consume ~code:map ~pragma:map ()
  in
  let upper_text = rw lp.bound in
  let cont_text = rw lp.cont in
  let body_text =
    (* only the innermost body runs *)
    match List.rev nest_levels with
    | [] -> rw lp.body
    | (_, (innermost : Nest.loop), _) :: _ -> rw innermost.body
  in
  let counter_value = if lp.is_ptr then lp.counter ^ ".*" else lp.counter in
  let step = step_text c lp_step in
  let incl = if lp.inclusive then "1" else "0" in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  List.iter (fun x -> bpf "    var %s = undefined;\n" x) priv;
  List.iter
    (fun x -> bpf "    var %s = %s;\n" x (Outline.value_text x))
    fp;
  (* The identity's type comes from the original variable, looked at
     without a traced read (a read of a shared original would race with
     teammates' combines): through the address of a global, else through
     the variable's value, which is a region's pointer rebinding or a
     thread-private local. *)
  List.iter
    (fun (op, x) ->
      let of_ = if Names.Sset.mem x globals then "&" ^ x else x in
      bpf "    var %s = %s;\n" (red_tmp x) (Directive.red_op_identity op of_))
    reds;
  bpf "    var __omp_iv = undefined;\n";
  (* For collapse(n) the worksharing runs over the fused linear space
     [0, product of all trip counts) and the n original counters are
     recovered by division/modulo per iteration: counter k is
     [lb_k + ((iv / d_k) % n_k) * step_k], where the divisor [d_k] is
     the product of the trip counts of the levels nested inside k. *)
  let counter_value, upper_text, step, incl, cont_text =
    if not collapsed then (counter_value, upper_text, step, incl, cont_text)
    else begin
      bpf "    var __omp_lb0 = %s;\n" counter_value;
      List.iteri
        (fun idx (init_expr, _, _) ->
          bpf "    var __omp_lb%d = %s;\n" (idx + 1) (rw init_expr))
        nest_levels;
      bpf "    var __omp_n0 = __omp_trips(__omp_lb0, %s, %s, %s);\n"
        upper_text step incl;
      List.iteri
        (fun idx (_, (ilp : Nest.loop), s) ->
          let k = idx + 1 in
          bpf "    var __omp_n%d = __omp_trips(__omp_lb%d, %s, %s, %s);\n"
            k k (rw ilp.bound) (step_text c s)
            (if ilp.inclusive then "1" else "0"))
        nest_levels;
      bpf "    var __omp_d%d = 1;\n" (depth - 1);
      for k = depth - 2 downto 0 do
        bpf "    var __omp_d%d = __omp_d%d * __omp_n%d;\n" k (k + 1) (k + 1)
      done;
      (* Initialised to 0, not [undefined]: the recovery statements
         assign every counter before any read, but the bytecode tier
         observes captured slots at drain entry and an [undefined]
         value has no register kind — it would force a bailout. *)
      for k = 0 to depth - 1 do
        bpf "    var %s = 0;\n" (cname k)
      done;
      ("0", "__omp_n0 * __omp_d0", "1", "0", "__omp_iv += 1")
    end
  in
  (* Inside the claimed range, a collapsed loop recovers the counters
     from the linear index before running the body. *)
  let body_text =
    if not collapsed then body_text
    else begin
      let buf = Buffer.create 256 in
      Buffer.add_string buf "{\n";
      let steps =
        List.map (step_text c)
          (lp_step :: List.map (fun (_, _, s) -> s) nest_levels)
      in
      List.iteri
        (fun k step_k ->
          Buffer.add_string buf
            (Printf.sprintf
               "            %s = __omp_lb%d + ((__omp_iv / __omp_d%d) %% \
                __omp_n%d) * (%s);\n"
               (cname k) k k k step_k))
        steps;
      Buffer.add_string buf
        (Printf.sprintf "            %s\n        }" body_text);
      Buffer.contents buf
    end
  in
  (match cl.schedule with
   | None | Some (Omp_model.Sched.Static None) | Some Omp_model.Sched.Auto ->
       bpf "    var __omp_ws = __kmpc_for_static_init(%s, %s, %s, %s);\n"
         counter_value upper_text step incl;
       bpf "    if (__omp_ws.has) {\n";
       bpf "        __omp_iv = __omp_ws.lower;\n";
       bpf "        while (__omp_ws_cmp(__omp_iv, __omp_ws.upper, %s)) : \
            (%s) %s\n" step cont_text body_text;
       bpf "    }\n";
       bpf "    __kmpc_for_static_fini();\n"
   | Some sched ->
       let init_fn =
         match sched with
         | Omp_model.Sched.Static (Some _) -> "__kmpc_static_chunked_init"
         | Omp_model.Sched.Dynamic _ -> "__kmpc_dispatch_init_dynamic"
         | Omp_model.Sched.Guided _ -> "__kmpc_dispatch_init_guided"
         | Omp_model.Sched.Runtime -> "__kmpc_dispatch_init_runtime"
         | Omp_model.Sched.Static None | Omp_model.Sched.Auto ->
             assert false
       in
       let chunk =
         match Omp_model.Sched.chunk sched with
         | Some c -> string_of_int c
         | None -> "1"
       in
       bpf "    var __omp_h = %s(%s, %s, %s, %s, %s);\n" init_fn
         counter_value upper_text step chunk incl;
       bpf "    var __omp_c = __kmpc_dispatch_next(__omp_h);\n";
       bpf "    while (__omp_c.more) : \
            (__omp_c = __kmpc_dispatch_next(__omp_h)) {\n";
       bpf "        __omp_iv = __omp_c.lower;\n";
       bpf "        while (__omp_ws_cmp(__omp_iv, __omp_c.upper, %s)) : \
            (%s) %s\n" step cont_text body_text;
       bpf "    }\n");
  List.iter
    (fun (op, x) ->
      bpf "    __kmpc_critical(\"__omp_reduction\");\n";
      bpf "    %s\n" (combine_expr op (Outline.value_text x) (red_tmp x));
      bpf "    __kmpc_end_critical(\"__omp_reduction\");\n")
    reds;
  if not cl.flags.Packed.nowait then bpf "    __kmpc_barrier();\n";
  bpf "}";
  let dir_start, _ = Synth.node_bytes c dir in
  let _, wh_stop = Synth.node_bytes c wh in
  { Synth.start = dir_start; stop = wh_stop; text = Buffer.contents b }

(** One round of the pass; [None] when no worksharing directive found. *)
let round (c : Synth.ctx) : string option =
  match Names.omp_nodes c.ast (fun tag -> tag = Ast.Omp_for) with
  | [] -> None
  | dirs ->
      (* Skip directives nested inside another worksharing loop's range
         this round (inner loops are handled by the next round). *)
      let outermost =
        Synth.outermost (List.map (fun d -> (d, Synth.node_bytes c d)) dirs)
      in
      let globals = Names.globals c.ast in
      Some
        (Synth.apply_replacements (Synth.text c)
           (List.map (plan_loop c ~globals) outermost))

let run ?name source = round (Synth.parse ?name source)
