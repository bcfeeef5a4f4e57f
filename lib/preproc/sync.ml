(** Passes for the remaining constructs: the combined-construct split
    and the synchronisation directives.

    [split_combined] runs before the parallel pass and rewrites each
    [parallel for] into a [parallel] region wrapping a [for] loop,
    distributing the clauses to the construct they belong to (data
    sharing and reductions to the region; schedule, nowait and collapse
    to the loop).

    [run_sync] runs last and lowers [barrier], [critical], [master],
    [single] and [atomic] to runtime calls. *)

open Zr

open Ompfront

let clauses_for_parallel (c : Synth.ctx) (cl : Directive.clauses) =
  let name_of = Synth.ident_name c in
  let names = List.map name_of in
  String.concat ""
    [ Synth.print_default cl.flags.Packed.default;
      (if cl.num_threads = 0 then ""
       else Printf.sprintf " num_threads(%s)" (Synth.node_text c cl.num_threads));
      Synth.print_list_clause "private" (names cl.private_);
      Synth.print_list_clause "firstprivate" (names cl.firstprivate);
      Synth.print_list_clause "shared" (names cl.shared);
      Synth.print_reductions
        (List.map (fun (op, n) -> (op, name_of n)) cl.reductions);
    ]

let clauses_for_loop (cl : Directive.clauses) =
  String.concat ""
    [ Synth.print_schedule cl.schedule;
      (if cl.flags.Packed.nowait then " nowait" else "");
      (if cl.flags.Packed.collapse > 1 then
         Printf.sprintf " collapse(%d)" cl.flags.Packed.collapse
       else "");
    ]

let split_one (c : Synth.ctx) dir : Synth.replacement =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let wh = node.Ast.rhs in
  let wh_text = Synth.node_text c wh in
  let text =
    Printf.sprintf "//$omp parallel%s\n{\n//$omp for%s\n%s\n}"
      (clauses_for_parallel c cl)
      (clauses_for_loop cl)
      wh_text
  in
  let dir_start, _ = Synth.node_bytes c dir in
  let _, wh_stop = Synth.node_bytes c wh in
  { Synth.start = dir_start; stop = wh_stop; text }

(** One round of the split; [None] when no combined construct is left.
    A [parallel for] nested in another one is split by a later round,
    after its enclosing construct's replacement has copied it. *)
let split_round (c : Synth.ctx) : string option =
  match Names.omp_nodes c.ast (fun tag -> tag = Ast.Omp_parallel_for) with
  | [] -> None
  | dirs ->
      let outermost =
        Synth.outermost (List.map (fun d -> (d, Synth.node_bytes c d)) dirs)
      in
      Some
        (Synth.apply_replacements (Synth.text c)
           (List.map (split_one c) outermost))

let split_combined ?name source = split_round (Synth.parse ?name source)

(* ------------------------------------------------------------------ *)

let sync_tags = function
  | Ast.Omp_barrier | Ast.Omp_critical | Ast.Omp_master | Ast.Omp_single
  | Ast.Omp_atomic -> true
  | _ -> false

let lower_sync (c : Synth.ctx) dir : Synth.replacement =
  let ast = c.ast in
  let node = Ast.node ast dir in
  let cl = Ast.clauses ast dir in
  let stmt_text () = Synth.node_text c node.Ast.rhs in
  let text =
    match node.Ast.tag with
    | Ast.Omp_barrier -> "__kmpc_barrier();"
    | Ast.Omp_critical ->
        let name =
          if cl.critical_name = 0 then "__omp_critical_unnamed"
          else Ast.token_text ast cl.critical_name
        in
        Printf.sprintf "{\n__kmpc_critical(\"%s\");\n%s\n__kmpc_end_critical(\"%s\");\n}"
          name (stmt_text ()) name
    | Ast.Omp_master ->
        Printf.sprintf "if (__omp_get_thread_num() == 0) %s" (stmt_text ())
    | Ast.Omp_single when cl.copyprivate <> [] ->
        (* copyprivate forbids nowait: the broadcast needs the implied
           barrier between the claimer's put and everyone's get *)
        let cp = List.map (Synth.ident_name c) cl.copyprivate in
        let fields =
          String.concat ", "
            (List.map
               (fun x ->
                 Printf.sprintf ".%s = %s" x (Outline.value_text x))
               cp)
        in
        let assigns =
          String.concat "\n"
            (List.map
               (fun x ->
                 Printf.sprintf "%s = __omp_cp.%s;"
                   (Outline.value_text x) x)
               cp)
        in
        Printf.sprintf
          "{\nif (__kmpc_single()) {\n%s\n__kmpc_copyprivate_put(.{ %s \
           });\n__kmpc_end_single();\n}\n__kmpc_barrier();\nvar __omp_cp \
           = __kmpc_copyprivate_get();\n%s\n}"
          (stmt_text ()) fields assigns
    | Ast.Omp_single ->
        let barrier =
          if cl.flags.Packed.nowait then "" else "\n__kmpc_barrier();"
        in
        Printf.sprintf
          "{\nif (__kmpc_single()) {\n%s\n__kmpc_end_single();\n}%s\n}"
          (stmt_text ()) barrier
    | Ast.Omp_atomic ->
        Printf.sprintf "{\n__kmpc_atomic_begin();\n%s\n__kmpc_atomic_end();\n}"
          (stmt_text ())
    | _ -> assert false
  in
  let dir_start, _ = Synth.node_bytes c dir in
  let stop =
    if node.Ast.rhs = 0 then snd (Synth.node_bytes c dir)
    else snd (Synth.node_bytes c node.Ast.rhs)
  in
  { Synth.start = dir_start; stop; text }

let sync_round (c : Synth.ctx) : string option =
  match Names.omp_nodes c.ast sync_tags with
  | [] -> None
  | dirs ->
      (* Outermost-first; nested sync constructs are handled by later
         rounds of the same pass. *)
      let outermost =
        Synth.outermost (List.map (fun d -> (d, Synth.node_bytes c d)) dirs)
      in
      Some
        (Synth.apply_replacements (Synth.text c)
           (List.map (lower_sync c) outermost))

let run_sync ?name source = sync_round (Synth.parse ?name source)
