(** Autoscoping: from conflicts to clause diagnoses and repairs (the
    analyser's third pass).

    For every conflict {!Depend} reports, this pass infers the minimal
    clause change that makes the region correct and emits a finding
    that names it — mirroring the suggestions the dynamic detector
    prints, so the same defect gets the same advice from both
    backends:

    - every write to the cell matches one reduction pattern
      [x = x op e] and the combined operand varies with the loop →
      the variable belongs in a [reduction(op: x)] clause;
    - the same pattern with a loop-invariant operand → the update
      needs an [//$omp atomic];
    - the conflict crosses a [nowait] boundary → the [nowait] clause
      must go;
    - a loop-carried dependence between distinct affine subscripts →
      no clause fixes it; reported as a [dep] finding;
    - anything else → mutual exclusion or privatisation, reported
      without an automatic fix.

    The pass also diffs declared clauses against inferred ones:
    [default(none)] regions with unscoped variables (the same variable
    set, and so the same finding id, as the preprocessor's runtime
    diagnostic), [private] variables read before any write (should be
    [firstprivate]), and advisory notes for clauses that name
    variables the construct never touches. *)

open Zr
module D = Ompfront.Directive
module Df = Dataflow
module Report = Check.Report
module Names = Preproc.Names
module Sset = Names.Sset

type out = {
  findings : Report.finding list;  (** verdict-affecting (PROVEN) *)
  may : Report.finding list;       (** advisory (MAY) *)
  fixes : Fix.action list;
}

(* ----------------------------- rendering --------------------------- *)

type rctx = {
  ast : Ast.t;
  spans : Ast.spans;
  sctx : Preproc.Synth.ctx;
}

let pos_of r byte =
  let line, col = Source.position r.ast.Ast.source byte in
  Printf.sprintf "%d:%d" line col

let node_start r i = fst (Preproc.Synth.node_bytes r.sctx i)

let rw_s = function `R -> "read" | `W -> "write"

let render_access r (a : Df.access) =
  Printf.sprintf "%s@%s" (rw_s a.Df.rw) (pos_of r (node_start r a.Df.anode))

let snippet r byte =
  let text = r.ast.Ast.source.Source.text in
  let n = String.length text in
  let b = ref (max 0 (min byte (n - 1))) and e = ref byte in
  while !b > 0 && text.[!b - 1] <> '\n' do decr b done;
  while !e < n && text.[!e] <> '\n' do incr e done;
  String.trim (String.sub text !b (!e - !b))

(* Span of [var]'s identifier inside a clause of directive [dir], so
   the caret lands on the clause entry being diagnosed. *)
let clause_ident_span r dir var =
  let cl = Ast.clauses r.ast dir in
  let ids =
    cl.D.private_ @ cl.D.firstprivate @ cl.D.shared
    @ List.map snd cl.D.reductions
  in
  List.find_map
    (fun id ->
      if Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token = var then
        Some (Preproc.Synth.node_bytes r.sctx id)
      else None)
    ids

let clause_kw_span r dir cid =
  List.find_map
    (fun cs ->
      if cs.D.cid = cid then Some (Ast.clause_span_bytes r.ast cs) else None)
    (Ast.clause_spans r.ast dir)

(* ------------------------- conflict repairs ------------------------ *)

type repair =
  | Rreduction of D.red_op * int   (* op, target directive *)
  | Ratomic of int                 (* the racing update statement *)
  | Ratomic_all of int list        (* every racing update statement *)
  | Rnowait of int                 (* directive whose nowait must go *)
  | Rtaskwait of int               (* insert taskwait before this stmt *)
  | Rcapture_fp of int             (* task whose shared(v) should be
                                      firstprivate(v) *)
  | Rnone

(* Every unsynchronised write to [var] in the region matches one
   reduction pattern with a consistent operator. *)
let reduction_of_writes (region : Df.region) var =
  let writes =
    List.filter
      (fun (a : Df.access) ->
        a.Df.var = var && a.Df.rw = `W && not a.Df.viacall
        && a.Df.sync = Df.Snone)
      region.Df.accesses
  in
  match writes with
  | [] -> None
  | w :: _ -> (
      match w.Df.red with
      | None -> None
      | Some (op, _) ->
          if
            List.for_all
              (fun (a : Df.access) ->
                match a.Df.red with Some (o, _) -> o = op | None -> false)
              writes
          then
            Some
              ( op,
                List.exists
                  (fun (a : Df.access) ->
                    match a.Df.red with Some (_, dep) -> dep | None -> false)
                  writes,
                writes )
          else None)

(* The directive a reduction clause belongs on: the region directive
   when it scopes the variable (or is a combined construct); otherwise
   the worksharing loop the racing write sits in. *)
let reduction_target r (region : Df.region) (w : Df.access) =
  let cl = Ast.clauses r.ast region.Df.rdir in
  let shared_names =
    List.map
      (fun id -> Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token)
      cl.D.shared
  in
  if region.Df.rkind = D.Parallel_for || List.mem w.Df.var shared_names then
    region.Df.rdir
  else
    match w.Df.mult with Df.Mdist l -> l | _ -> region.Df.rdir

(* Task-involved conflicts get their own repair ladder, ordered by how
   much behaviour the rewrite preserves:
   1. the task only *reads* an explicitly shared(v) local → capture it
      by value instead: [firstprivate(v)] snapshots at creation;
   2. the task races with the creator's continuation → insert the
      missing [//$omp taskwait] before the dependent statement;
   3. all racing writes are one reduction pattern (task pairs,
      sections) → [//$omp atomic] on every update;
   4. otherwise no clause fixes it — generic advice. *)
let task_repair r (region : Df.region) (cf : Depend.conflict) : repair =
  let a = cf.Depend.a and b = cf.Depend.b in
  let var = a.Df.var in
  let atomic_fallback () =
    match reduction_of_writes region var with
    | Some (_, false, writes) ->
        Ratomic_all (List.map (fun (w : Df.access) -> w.Df.anode) writes)
    | _ -> Rnone
  in
  let split =
    match (a.Df.task, b.Df.task) with
    | t, 0 when t <> 0 -> Some (t, b)
    | 0, t when t <> 0 -> Some (t, a)
    | _ -> None
  in
  match split with
  | Some (t, code) -> (
      match List.assoc_opt t region.Df.tasks with
      | Some i when i.Df.tparent = code.Df.task ->
          let in_shared_clause =
            i.Df.tkind = Df.Ttask
            && List.exists
                 (fun id ->
                   Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token
                   = var)
                 (Ast.clauses r.ast i.Df.tdir).D.shared
          in
          let task_read_only =
            List.for_all
              (fun (x : Df.access) ->
                x.Df.task <> t || x.Df.var <> var || x.Df.rw = `R)
              region.Df.accesses
          in
          if in_shared_clause && task_read_only then Rcapture_fp i.Df.tdir
          else if code.Df.seq > i.Df.tspawn then Rtaskwait code.Df.anode
          else atomic_fallback ()
      | _ -> atomic_fallback ())
  | None -> atomic_fallback ()

let repair_of_conflict r (region : Df.region) (cf : Depend.conflict) : repair
    =
  let a = cf.Depend.a and b = cf.Depend.b in
  let var = a.Df.var in
  let write = if b.Df.rw = `W then b else a in
  match cf.Depend.carried with
  | Some _ -> Rnone  (* a carried dependence is not a scoping bug *)
  | None -> (
      if a.Df.task <> 0 || b.Df.task <> 0 then task_repair r region cf
      else
      match reduction_of_writes region var with
      | Some (op, dep, _) ->
          if dep then Rreduction (op, reduction_target r region write)
          else Ratomic write.Df.anode
      | None -> (
          (* a conflict across constructs whose first side escapes its
             implicit barrier: drop the nowait *)
          let nowait_dir (x : Df.access) =
            match x.Df.mult with
            | Df.Mdist l -> (
                match List.assoc_opt l region.Df.loops with
                | Some li when li.Df.lnowait -> Some l
                | _ -> None)
            | Df.Msingle (d, true) -> Some d
            | _ -> None
          in
          let different_constructs =
            match (a.Df.mult, b.Df.mult) with
            | Df.Mdist l1, Df.Mdist l2 -> l1 <> l2
            | Df.Mdist _, _ | _, Df.Mdist _ -> true
            | Df.Msingle (d1, _), Df.Msingle (d2, _) -> d1 <> d2
            | _ -> false
          in
          if different_constructs then
            match nowait_dir a with
            | Some d -> Rnowait d
            | None -> (
                match nowait_dir b with Some d -> Rnowait d | None -> Rnone)
          else Rnone))

let suggestion_of r = function
  | Rreduction (op, _) , var ->
      Printf.sprintf "reduction(%s: %s)" (D.red_op_to_string op) var
  | (Ratomic _ | Ratomic_all _), _ -> "//$omp atomic before the update"
  | Rnowait dir, _ ->
      ignore r;
      ignore dir;
      "removing nowait"
  | Rtaskwait _, _ -> "//$omp taskwait before the dependent statement"
  | Rcapture_fp _, var ->
      Printf.sprintf
        "firstprivate(%s) on the task: capture the value at creation" var
  | Rnone, var ->
      Printf.sprintf
        "atomic/critical around the conflicting accesses, or private(%s)"
        var

let fixes_of_repair var = function
  | Rreduction (op, dir) -> [ Fix.Move_to_reduction { dir; op; var } ]
  | Ratomic stmt -> [ Fix.Insert_atomic { stmt } ]
  | Ratomic_all stmts ->
      List.map (fun stmt -> Fix.Insert_atomic { stmt }) stmts
  | Rnowait dir -> [ Fix.Remove_nowait { dir } ]
  | Rtaskwait stmt -> [ Fix.Insert_taskwait { stmt } ]
  | Rcapture_fp dir -> [ Fix.Shared_to_firstprivate { dir; var } ]
  | Rnone -> []

let span_of_repair r region var repair (b : Df.access) =
  match repair with
  | Rreduction (_, dir) -> (
      match clause_ident_span r dir var with
      | Some s -> Some s
      | None -> clause_ident_span r region.Df.rdir var)
  | Ratomic stmt -> Some (Preproc.Synth.node_bytes r.sctx stmt)
  | Ratomic_all (stmt :: _) -> Some (Preproc.Synth.node_bytes r.sctx stmt)
  | Rtaskwait stmt -> Some (Preproc.Synth.node_bytes r.sctx stmt)
  | Rcapture_fp dir -> (
      match clause_ident_span r dir var with
      | Some s -> Some s
      | None -> Some (Preproc.Synth.node_bytes r.sctx b.Df.anode))
  | Rnowait dir -> (
      match clause_kw_span r dir D.Cnowait with
      | Some s -> Some s
      | None -> Some (Preproc.Synth.node_bytes r.sctx b.Df.anode))
  | Ratomic_all [] | Rnone ->
      Some (Preproc.Synth.node_bytes r.sctx b.Df.anode)

(* --------------------------- the pass body ------------------------- *)

let conflict_findings r (region : Df.region) =
  let findings = ref [] and may = ref [] and fixes = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (cf : Depend.conflict) ->
      let a = cf.Depend.a and b = cf.Depend.b in
      let var = Report.clean_var a.Df.var in
      let repair = repair_of_conflict r region cf in
      let suggestion = suggestion_of r (repair, var) in
      let key = (var, suggestion, cf.Depend.carried <> None) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let span = span_of_repair r region var repair b in
        match cf.Depend.verdict with
        | Depend.VProven reason ->
            (match cf.Depend.carried with
             | Some c ->
                 let line =
                   Printf.sprintf
                     "dep %s: distance %d, direction (%s): %s vs %s :: \
                      `%s` :: %s"
                     var c.Depend.distance c.Depend.direction
                     (render_access r a) (render_access r b)
                     (snippet r (node_start r b.Df.anode))
                     "a clause cannot fix a loop-carried dependence; \
                      restructure the loop"
                 in
                 findings :=
                   Report.dep ~var ~verdict:Report.Proven ?span line
                   :: !findings
             | None ->
                 let line =
                   Printf.sprintf "race %s: %s vs %s :: `%s` :: suggest %s"
                     var (render_access r a) (render_access r b)
                     (snippet r (node_start r b.Df.anode))
                     suggestion
                 in
                 ignore reason;
                 findings :=
                   Report.race ~var ~verdict:Report.Proven ?span line
                   :: !findings);
            fixes := List.rev_append (fixes_of_repair a.Df.var repair) !fixes
        | Depend.VMay reason ->
            let line =
              Printf.sprintf "may %s %s: %s vs %s :: %s"
                (if cf.Depend.carried <> None then "dep" else "race")
                var (render_access r a) (render_access r b) reason
            in
            let mk = if cf.Depend.carried <> None then Report.dep else Report.race in
            may := mk ~var ~verdict:Report.May ?span line :: !may
        | Depend.VNone -> ()
      end)
    (Depend.conflicts region);
  (List.rev !findings, List.rev !may, List.rev !fixes)

(* ------------------------- clause diagnosis ------------------------ *)

(* default(none): replicate the preprocessor's variable set exactly so
   both backends derive the same finding id. *)
let default_none_check r (region : Df.region) =
  let dir = region.Df.rdir in
  let n = Ast.node r.ast dir in
  let cl = Ast.clauses r.ast dir in
  if cl.D.flags.default <> Ompfront.Packed.Default_none || n.Ast.rhs = 0 then
    None
  else
    let name_of id =
      Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token
    in
    let explicit =
      Sset.of_list
        (List.map name_of
           (cl.D.private_ @ cl.D.firstprivate @ cl.D.shared
            @ List.map snd cl.D.reductions))
    in
    let body = n.Ast.rhs in
    let implicit =
      Sset.(
        diff
          (diff
             (diff
                (Names.referenced_under r.ast body)
                (Names.declared_under r.ast body))
             (Names.globals r.ast))
          explicit)
    in
    if Sset.is_empty implicit then None
    else
      let vars = Sset.elements implicit in
      let id = "lint|default-none|" ^ String.concat "," vars in
      let span = clause_kw_span r dir D.Cdefault in
      let line =
        Printf.sprintf
          "scope default(none): variable(s) %s referenced without a \
           sharing clause :: suggest shared(%s)"
          (String.concat ", " vars)
          (String.concat ", " vars)
      in
      Some
        ( Report.scope ~id ~verdict:Report.Proven ?span line,
          Fix.Add_shared { dir; vars } )

(* First textual access to [v] under node [i]: reads before writes
   within one statement, matching evaluation order for the shapes the
   preprocessor accepts. *)
let first_access r v i : [ `R | `W ] option =
  let result = ref None in
  let set x = if !result = None then result := Some x in
  let rec go j =
    if !result <> None then ()
    else
      let n = Ast.node r.ast j in
      match n.Ast.tag with
      | Ast.Ident ->
          if Ast.token_text r.ast n.Ast.main_token = v then set `R
      | Ast.Assign -> (
          let tn = Ast.node r.ast n.Ast.lhs in
          let target_is_v =
            tn.Ast.tag = Ast.Ident
            && Ast.token_text r.ast tn.Ast.main_token = v
          in
          let optok = (Ast.token r.ast n.Ast.main_token).Token.tag in
          if target_is_v && optok = Token.Eq then begin
            go n.Ast.rhs;
            set `W
          end
          else begin
            if target_is_v then set `R;
            go n.Ast.lhs;
            go n.Ast.rhs
          end)
      | Ast.Call ->
          List.iter go (Ast.call_args r.ast j)
      | Ast.Field -> ()
      | _ -> List.iter go (Names.children r.ast j)
  in
  go i;
  !result

(* private(v) read before any write: the value is undefined there;
   firstprivate is almost always what was meant. *)
let private_read_first r dir =
  let n = Ast.node r.ast dir in
  if n.Ast.rhs = 0 then []
  else
    let cl = Ast.clauses r.ast dir in
    (* the counter of a worksharing loop is rebound by the lowering,
       not read uninitialised *)
    let skip =
      match n.Ast.tag with
      | Ast.Omp_for | Ast.Omp_parallel_for -> (
          match Preproc.Nest.counter r.ast n.Ast.rhs with
          | Ok (v, false, _) -> Sset.singleton v
          | _ -> Sset.empty)
      | _ -> Sset.empty
    in
    List.filter_map
      (fun id ->
        let v = Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token in
        if Sset.mem v skip then None
        else
          match first_access r v n.Ast.rhs with
          | Some `R ->
              let span = Some (Preproc.Synth.node_bytes r.sctx id) in
              let pos = pos_of r (fst (Option.get span)) in
              let line =
                Printf.sprintf
                  "scope private(%s) at %s: read before any write in the \
                   construct :: suggest firstprivate(%s)"
                  v pos v
              in
              Some
                ( Report.scope
                    ~id:(Printf.sprintf "scope|firstprivate|%s@%s" v pos)
                    ~verdict:Report.Proven ?span line,
                  Fix.Private_to_firstprivate { dir; var = v } )
          | _ -> None)
      cl.D.private_

(* Advisory: clauses naming variables the construct never references. *)
let unused_clause_names r dir =
  let n = Ast.node r.ast dir in
  if n.Ast.rhs = 0 then []
  else
    let cl = Ast.clauses r.ast dir in
    let refd = Names.referenced_under r.ast n.Ast.rhs in
    let check cname ids =
      List.filter_map
        (fun id ->
          let v = Ast.token_text r.ast (Ast.node r.ast id).Ast.main_token in
          if Sset.mem v refd then None
          else
            let span = Some (Preproc.Synth.node_bytes r.sctx id) in
            let pos = pos_of r (fst (Option.get span)) in
            Some
              (Report.scope
                 ~id:(Printf.sprintf "scope|unused|%s|%s@%s" cname v pos)
                 ~verdict:Report.May ?span
                 (Printf.sprintf
                    "may scope %s(%s) at %s: the construct never \
                     references %s"
                    cname v pos v)))
        ids
    in
    check "private" cl.D.private_
    @ check "firstprivate" cl.D.firstprivate
    @ check "shared" cl.D.shared
    @ check "reduction" (List.map snd cl.D.reductions)

(* ------------------------------ driver ----------------------------- *)

let directives_under r dir =
  let acc = ref [] in
  Names.walk r.ast dir (fun j ->
      if Ast.tag_is_omp (Ast.node r.ast j).Ast.tag then acc := j :: !acc);
  List.sort compare !acc

let run (df : Df.result) : out =
  let r =
    { ast = df.Df.ast; spans = df.Df.spans;
      sctx = { Preproc.Synth.ast = df.Df.ast; spans = df.Df.spans } }
  in
  let findings = ref [] and may = ref [] and fixes = ref [] in
  let add (f, m, x) =
    findings := !findings @ f;
    may := !may @ m;
    fixes := !fixes @ x
  in
  List.iter
    (fun (region : Df.region) ->
      add (conflict_findings r region);
      (* pseudo-regions (sequential frames with orphaned tasks) have a
         Fn_decl as [rdir]: no clauses of their own, and their subtree
         may contain real regions already diagnosed above *)
      if not region.Df.rseq then begin
        (match default_none_check r region with
         | Some (f, fix) -> add ([ f ], [], [ fix ])
         | None -> ());
        List.iter
          (fun dir ->
            let scoped = private_read_first r dir in
            add (List.map fst scoped, [], List.map snd scoped);
            add ([], unused_clause_names r dir, []))
          (directives_under r region.Df.rdir)
      end)
    df.Df.regions;
  { findings = !findings; may = !may; fixes = !fixes }
