(** Def/use dataflow over parallel regions (the analyser's first pass).

    The pass never executes the program.  It walks every parallel
    region of the AST and collects, for each *shared* storage cell, the
    set of accesses the region can perform, each annotated with

    - its {e multiplicity}: who executes it — every thread ([Mall]),
      the iterations of a worksharing loop distributed over the team
      ([Mdist]), one unspecified thread ([Msingle]) or the master
      thread ([Mmaster]);
    - its {e phase}: a barrier-ordering equivalence class.  Two
      accesses in different phases are ordered by a barrier and can
      never race; phases advance at explicit barriers and at the
      implicit barrier ending a non-[nowait] worksharing loop or
      [single].  Sequential [while] back-edges union the entry and
      exit phases (sound: a barrier inside the loop still separates
      accesses of the *same* iteration, and cross-iteration pairs
      collapse into one class);
    - its {e synchronisation}: enclosing [critical] (by name) or
      [atomic];
    - for array accesses, a {e subscript shape}: [i + c] relative to
      the governing worksharing loop ([Saffine]), a compile-time
      constant ([Sconst]), or unknown ([Sopaque]).

    Accesses to privatised names (clause-private, region-local
    declarations, worksharing counters, threadprivate globals) are not
    recorded: they cannot conflict.

    A small literal-constant environment is threaded through the
    sequential statement scan so loop bounds like [while (i < n)] with
    [var n: i64 = 64] earlier in the function resolve to trip counts.
    Inside a region only region-local (per-thread) names are tracked;
    any name assigned under the region by the team is dropped from the
    environment at region entry — except worksharing counters, whose
    in-loop updates act on privatised copies. *)

open Zr
module D = Ompfront.Directive
module Names = Preproc.Names
module Nest = Preproc.Nest
module Sset = Names.Sset

(* ------------------------------ model ----------------------------- *)

type mult =
  | Mall                      (** executed by every thread of the team *)
  | Mdist of int              (** distributed iterations of loop [dir] *)
  | Msingle of int * bool     (** a [single]; the bool is [nowait] *)
  | Mmaster of int            (** a [master] *)
  | Mseq
      (** sequential code of a function frame outside any parallel
          region — the encountering thread of orphaned tasking
          constructs *)

type sync = Snone | Scrit of string | Satomic

(** Subscript shape of an array access. *)
type sub =
  | Saffine of int * int  (** [counter + c] of worksharing loop [dir] *)
  | Sconst of int         (** a compile-time constant index *)
  | Sopaque               (** anything else *)

type access = {
  var : string;
  rw : [ `R | `W ];
  anode : int;          (** AST node to point diagnostics at *)
  seq : int;            (** source-order sequence number in the region *)
  phase : int;          (** resolved barrier phase (after union-find) *)
  mult : mult;
  sync : sync;
  sub : sub option;     (** [None] for scalar accesses *)
  guarded : bool;       (** under an [if]: may not execute *)
  viacall : bool;       (** conservative effect of passing to a call *)
  task : int;
      (** the innermost [task]/[taskloop]/[section] body the access
          sits in (its directive/section node), or [0] for code of the
          encountering frame *)
  red : (D.red_op * bool) option;
      (** the write of a recognised [x = x op e] / [x op= e] pattern;
          the bool records whether [e] depends on loop data (an index
          expression, the loop counter, or a call) *)
}

(** Static description of one worksharing loop. *)
type loop_info = {
  ldir : int;              (** the [Omp_for]/[Omp_parallel_for] node *)
  counter : string;
  lb : int option;         (** counter value at loop entry, if known *)
  ub : int option;         (** folded bound expression, if known *)
  linclusive : bool;       (** [<=] / [>=] comparison *)
  step : int option;       (** signed literal step, if known *)
  trips : int option;      (** iteration count, if known *)
  lnowait : bool;
  static_unchunked : bool;
      (** no schedule clause, [schedule(static)] without chunk, or
          [schedule(auto)]: each thread owns one contiguous block *)
  collapse2 : bool;
}

(* ---------------------------- task graph --------------------------- *)

type tkind =
  | Ttask             (** one [//$omp task] construct *)
  | Tchunk            (** the chunk tasks of one [taskloop] *)
  | Tsection of int   (** section [i] of a [sections] construct *)

(** One deferred-execution node of the region's task graph.  A node
    stands for *all* dynamic instances of the construct ([tmulti] says
    whether there can be more than one per encountering thread). *)
type task_info = {
  tdir : int;            (** the construct / section node *)
  tkind : tkind;
  tparent : int;         (** enclosing task frame, [0] = encountering code *)
  tspawn : int;          (** seq of the creation point *)
  mutable tcomplete : (int * mult) option;
      (** seq and multiplicity of the [taskwait] (or construct-end
          wait) that joins this node, if one dominates region end *)
  tmulti : bool;         (** may be instantiated more than once *)
  tteam : bool;          (** encountered by every thread / every iteration *)
  tcmult : mult;         (** multiplicity of the creating code *)
  tgroup : int;          (** the [sections] construct for sections, else 0 *)
  tinstloop : int;
      (** when nonzero: instances are identified by the iterations of
          this sequential/taskloop node, whose counter the body captures
          by value — subscripts affine in it distinguish instances *)
  tgrain : int;          (** iterations per instance (taskloop grainsize) *)
}

(** Synchronisation points, recorded for the completion-edge table. *)
type sync_kind = Ktaskwait | Kbarrier | Kcopyprivate

type region = {
  rdir : int;       (** the [Omp_parallel] / [Omp_parallel_for] node *)
  rkind : D.kind;
  accesses : access list;           (** shared cells only, phase-resolved *)
  loops : (int * loop_info) list;   (** worksharing loops by directive *)
  sloops : (int * loop_info) list;
      (** sequential/taskloop loops that identify task instances *)
  tasks : (int * task_info) list;   (** task-graph nodes by construct *)
  tsyncs : (int * sync_kind) list;  (** sync points by seq, source order *)
  reenter : int list;
      (** [single] directives inside a sequential loop: re-encountered,
          so distinct executing threads are possible across encounters *)
  rseq : bool;
      (** a pseudo-region: the sequential frame of a function with
          orphaned tasking constructs ([rdir] is the [Fn_decl]) *)
}

type result = {
  ast : Ast.t;
  spans : Ast.spans;
  regions : region list;
  tp : Sset.t;          (** threadprivate globals *)
}

(* --------------------------- environment -------------------------- *)

type env = {
  ast : Ast.t;
  spans : Ast.spans;
  tp : Sset.t;
  fnames : Sset.t;                 (* function names: never data cells *)
  arrays : Sset.t;                 (* array-like names, for call effects *)
  known : (string, int) Hashtbl.t; (* literal constants, flow-tracked *)
  mutable seq : int;
  (* per-region state *)
  mutable phase : int;
  mutable next_phase : int;
  uf : (int, int) Hashtbl.t;       (* phase union-find *)
  mutable accesses : access list;
  mutable loops : (int * loop_info) list;
  mutable sloops : (int * loop_info) list;
  mutable tasks : (int * task_info) list;
  mutable tsyncs : (int * sync_kind) list;
  mutable reenter : int list;
  mutable locals : Sset.t;         (* declared under the region body *)
  mutable byref : Sset.t;
      (* locals captured by reference by some task of the region: the
         one kind of local that IS a shared cell *)
  captures : int -> Preproc.Tasking.capture list;
      (* a task construct's captures, against one set of top-level
         names per analysis *)
}

(** Scan context: properties of the enclosing constructs. *)
type ctx = {
  mult : mult;
  sync : sync;
  guarded : bool;
  privat : Sset.t;           (* privatised names: not shared cells *)
  loop : loop_info option;   (* innermost governing worksharing loop *)
  task : int;                (* innermost task frame node, 0 = none *)
  inloop : bool;             (* under a sequential loop: re-executed *)
  seqloop : loop_info option;
      (* the unique enclosing sequential loop, when there is exactly
         one — candidates for task-instance identification *)
}

let node e i = Ast.node e.ast i
let text e tok = Ast.token_text e.ast tok
let tok_tag e i = (Ast.token e.ast i).Token.tag

let base_ident e i =
  let rec go i =
    let n = node e i in
    match n.Ast.tag with
    | Ast.Ident -> Some (text e n.main_token)
    | Ast.Index | Ast.Field | Ast.Deref -> go n.Ast.lhs
    | _ -> None
  in
  go i

let assign_targets e i =
  let acc = ref Sset.empty in
  Names.walk e.ast i (fun j ->
      let n = node e j in
      if n.Ast.tag = Ast.Assign then
        match base_ident e n.Ast.lhs with
        | Some v -> acc := Sset.add v !acc
        | None -> ());
  !acc

(* ------------------------- constant folding ----------------------- *)

let lookup e = Hashtbl.find_opt e.known

let fold e = Nest.fold ~lookup:(lookup e) e.ast

(* Constant-environment updates for one declaration/assignment.  In
   region scope only per-thread (local) names may keep tracked values:
   a shared name written under the region has no single value at any
   program point of the parallel execution. *)
let update_known e ~in_region s =
  let n = node e s in
  match n.Ast.tag with
  | Ast.Var_decl | Ast.Const_decl ->
      let name = text e n.main_token in
      if n.Ast.rhs <> 0 then (
        match fold e n.rhs with
        | Some v -> Hashtbl.replace e.known name v
        | None -> Hashtbl.remove e.known name)
      else Hashtbl.remove e.known name
  | Ast.Assign -> (
      match (node e n.Ast.lhs).Ast.tag with
      | Ast.Ident ->
          let name = text e (node e n.Ast.lhs).Ast.main_token in
          let trackable = (not in_region) || Sset.mem name e.locals in
          if trackable && tok_tag e n.main_token = Token.Eq then (
            match fold e n.rhs with
            | Some v -> Hashtbl.replace e.known name v
            | None -> Hashtbl.remove e.known name)
          else Hashtbl.remove e.known name
      | _ -> (
          match base_ident e n.Ast.lhs with
          | Some name -> Hashtbl.remove e.known name
          | None -> ()))
  | _ -> ()

let kill_assigned e i =
  Sset.iter (Hashtbl.remove e.known) (assign_targets e i)

(* ------------------------------ phases ---------------------------- *)

let rec uf_find e p =
  match Hashtbl.find_opt e.uf p with
  | None -> p
  | Some q ->
      let r = uf_find e q in
      if r <> q then Hashtbl.replace e.uf p r;
      r

let uf_union e a b =
  let ra = uf_find e a and rb = uf_find e b in
  if ra <> rb then Hashtbl.replace e.uf rb ra

let new_phase e =
  e.tsyncs <- (e.seq, Kbarrier) :: e.tsyncs;
  e.phase <- e.next_phase;
  e.next_phase <- e.next_phase + 1

(* ----------------------------- recording -------------------------- *)

(* A region-local declaration is per-thread storage — except when some
   task of the region captures it by reference: then the creator's cell
   is aliased by a deferred body and both sides' accesses matter.  A
   name privatised by a clause (or by a task's by-value capture) in the
   current context stays skipped either way. *)
let record e ctx ~rw ~var ?sub ?(viacall = false) ?red ~anode () =
  if
    Sset.mem var ctx.privat || Sset.mem var e.fnames || Sset.mem var e.tp
    || (Sset.mem var e.locals && not (Sset.mem var e.byref))
  then ()
  else
    e.accesses <-
      { var; rw; anode; seq = e.seq; phase = e.phase; mult = ctx.mult;
        sync = ctx.sync; sub; guarded = ctx.guarded; viacall;
        task = ctx.task; red }
      :: e.accesses

(* Subscript classification relative to the governing loop: affine
   with a unit coefficient in its counter, or constant.  Under a
   collapsed loop every counter-dependent subscript is opaque. *)
let classify e ctx idx : sub =
  let li =
    match ctx.loop with Some li when not li.collapse2 -> Some li | _ -> None
  in
  let outer = Option.map (fun li -> li.counter) li in
  match (Nest.affine ~lookup:(lookup e) ?outer e.ast idx, li) with
  | Some { co = 0; k; _ }, _ -> Sconst k
  | Some { co = 1; k; _ }, Some li -> Saffine (li.ldir, k)
  | _ -> Sopaque

(* --------------------- reduction-pattern detection ----------------- *)

let is_ident_named e i v =
  let n = node e i in
  n.Ast.tag = Ast.Ident && text e n.main_token = v

let mentions e i v =
  let found = ref false in
  Names.walk e.ast i (fun j ->
      if is_ident_named e j v then found := true);
  !found

(* Does the combining operand vary with the loop iteration?  An index
   expression, the governing counter, or any call is taken to. *)
let loop_dependent e ctx i =
  let dep = ref false in
  Names.walk e.ast i (fun j ->
      let n = node e j in
      match n.Ast.tag with
      | Ast.Index | Ast.Call -> dep := true
      | Ast.Ident -> (
          match ctx.loop with
          | Some li when text e n.main_token = li.counter -> dep := true
          | _ -> ())
      | _ -> ());
  !dep

(* [v = v op e] (op commutative for [+]/[*]) and
   [v = __omp_max(v, e)] / [__omp_min]. *)
let detect_red e v value : (D.red_op * int) option =
  let n = node e value in
  match n.Ast.tag with
  | Ast.Bin_op -> (
      let op =
        match tok_tag e n.main_token with
        | Token.Plus -> Some D.Radd
        | Token.Minus -> Some D.Rsub
        | Token.Star -> Some D.Rmul
        | _ -> None
      in
      match op with
      | None -> None
      | Some op ->
          if is_ident_named e n.lhs v && not (mentions e n.rhs v) then
            Some (op, n.rhs)
          else if
            (op = D.Radd || op = D.Rmul)
            && is_ident_named e n.rhs v
            && not (mentions e n.lhs v)
          then Some (op, n.lhs)
          else None)
  | Ast.Call -> (
      let callee = node e n.lhs in
      if callee.Ast.tag <> Ast.Ident then None
      else
        let op =
          match text e callee.Ast.main_token with
          | "__omp_max" -> Some D.Rmax
          | "__omp_min" -> Some D.Rmin
          | _ -> None
        in
        match (op, Ast.call_args e.ast value) with
        | Some op, [ a; b ] ->
            if is_ident_named e a v && not (mentions e b v) then Some (op, b)
            else if is_ident_named e b v && not (mentions e a v) then
              Some (op, a)
            else None
        | _ -> None)
  | _ -> None

let red_of_op_tok = function
  | Token.Plus_eq -> Some D.Radd
  | Token.Minus_eq -> Some D.Rsub
  | Token.Star_eq -> Some D.Rmul
  | _ -> None

(* ---------------------- the region statement scan ------------------ *)

let clause_name e id = text e (node e id).Ast.main_token

let clause_names e ids = List.map (clause_name e) ids

let privatised e (cl : D.clauses) =
  List.fold_left
    (fun acc id -> Sset.add (clause_name e id) acc)
    Sset.empty
    (cl.D.private_ @ cl.D.firstprivate @ List.map snd cl.D.reductions)

(* [loop_info] of a worksharing, taskloop or sequential loop: bounds
   and step fold through the constant environment as it stands at the
   loop's entry. *)
let loop_info e ~ldir (l : Nest.loop) ~lnowait ~static_unchunked ~collapse2 =
  let lb = lookup e l.counter and ub = fold e l.bound in
  let step =
    match l.step with
    | Ok s -> Option.map (fun v -> s.sign * v) (fold e s.node)
    | Error _ -> None
  in
  { ldir; counter = l.counter; lb; ub; linclusive = l.inclusive; step;
    trips = Nest.trips l ~lb ~ub ~step; lnowait; static_unchunked;
    collapse2 }

let rec scan_stmt e ctx s =
  let n = node e s in
  e.seq <- e.seq + 1;
  match n.Ast.tag with
  | Ast.Block -> List.iter (scan_stmt e ctx) (Ast.block_stmts e.ast s)
  | Ast.Var_decl | Ast.Const_decl ->
      if n.Ast.rhs <> 0 then scan_expr e ctx n.Ast.rhs;
      update_known e ~in_region:true s
  | Ast.Assign ->
      scan_assign e ctx s;
      update_known e ~in_region:true s
  | Ast.Expr_stmt -> scan_expr e ctx n.Ast.lhs
  | Ast.Return -> if n.Ast.lhs <> 0 then scan_expr e ctx n.Ast.lhs
  | Ast.Break | Ast.Continue -> ()
  | Ast.While ->
      (* sequential loop inside the region.  If it is the unique
         enclosing sequential loop and decomposable, its iterations can
         identify instances of tasks spawned in the body (provided the
         body captures the counter by value). *)
      let sli =
        if ctx.inloop then None
        else
          match Nest.read e.ast s with
          | Ok l ->
              let li =
                loop_info e ~ldir:s l ~lnowait:true ~static_unchunked:false
                  ~collapse2:false
              in
              e.sloops <- (s, li) :: e.sloops;
              Some li
          | Error _ -> None
      in
      kill_assigned e s;
      let p_entry = e.phase in
      let lctx = { ctx with inloop = true; seqloop = sli } in
      scan_expr e lctx n.Ast.lhs;
      let cont = Ast.extra e.ast n.Ast.rhs in
      let body = Ast.extra e.ast (n.Ast.rhs + 1) in
      scan_stmt e lctx body;
      if cont <> 0 then scan_stmt e lctx cont;
      (* the back edge: entry and exit phases are one class *)
      uf_union e p_entry e.phase;
      e.phase <- uf_find e e.phase;
      kill_assigned e s
  | Ast.If ->
      scan_expr e ctx n.Ast.lhs;
      let then_ = Ast.extra e.ast n.Ast.rhs in
      let else_ = Ast.extra e.ast (n.Ast.rhs + 1) in
      let p0 = e.phase in
      let gctx = { ctx with guarded = true } in
      scan_stmt e gctx then_;
      let p1 = e.phase in
      e.phase <- p0;
      if else_ <> 0 then scan_stmt e gctx else_;
      let p2 = e.phase in
      if p1 <> p0 || p2 <> p0 then begin
        uf_union e p1 p2;
        e.phase <- uf_find e p1
      end;
      kill_assigned e s
  | Ast.Omp_barrier -> new_phase e
  | Ast.Omp_for ->
      scan_ws e ctx s (Ast.clauses e.ast s) n.Ast.rhs ~combine_late:false
  | Ast.Omp_single ->
      let cl = Ast.clauses e.ast s in
      if ctx.inloop then e.reenter <- s :: e.reenter;
      let ctx' = { ctx with mult = Msingle (s, cl.D.flags.nowait) } in
      scan_stmt e ctx' n.Ast.rhs;
      if cl.D.copyprivate <> [] then
        e.tsyncs <- (e.seq, Kcopyprivate) :: e.tsyncs;
      if not cl.D.flags.nowait then new_phase e
  | Ast.Omp_master -> scan_stmt e { ctx with mult = Mmaster s } n.Ast.rhs
  | Ast.Omp_critical ->
      let cl = Ast.clauses e.ast s in
      let name =
        if cl.D.critical_name = 0 then "<unnamed>"
        else text e cl.D.critical_name
      in
      scan_stmt e { ctx with sync = Scrit name } n.Ast.rhs
  | Ast.Omp_atomic -> scan_stmt e { ctx with sync = Satomic } n.Ast.rhs
  | Ast.Omp_task -> scan_task e ctx s
  | Ast.Omp_taskwait ->
      (* joins the *direct* children of the current frame — exactly the
         checker's completion discipline.  Under an [if] the wait may
         not execute, so no completion edge can be assumed. *)
      e.tsyncs <- (e.seq, Ktaskwait) :: e.tsyncs;
      if not ctx.guarded then
        List.iter
          (fun ((_, i) : int * task_info) ->
            if i.tparent = ctx.task && i.tcomplete = None then
              i.tcomplete <- Some (e.seq, ctx.mult))
          e.tasks
  | Ast.Omp_taskloop -> scan_taskloop e ctx s
  | Ast.Omp_sections -> scan_sections e ctx s
  | Ast.Omp_section ->
      (* orphaned section (tolerated by the parser): scan the body *)
      scan_stmt e ctx n.Ast.rhs
  | Ast.Omp_parallel | Ast.Omp_parallel_for ->
      (* a nested team: analysed as its own region, skipped here *)
      kill_assigned e s
  | Ast.Omp_threadprivate -> ()
  | _ -> scan_expr e ctx s

and scan_assign e ctx s =
  let n = node e s in
  let optok = tok_tag e n.main_token in
  let target = n.Ast.lhs and value = n.Ast.rhs in
  let tn = node e target in
  match tn.Ast.tag with
  | Ast.Ident -> (
      let v = text e tn.Ast.main_token in
      match optok with
      | Token.Eq -> (
          match detect_red e v value with
          | Some (op, operand) ->
              scan_expr e ctx value;
              let dep = loop_dependent e ctx operand in
              record e ctx ~rw:`W ~var:v ~red:(op, dep) ~anode:s ()
          | None ->
              scan_expr e ctx value;
              record e ctx ~rw:`W ~var:v ~anode:s ())
      | _ ->
          record e ctx ~rw:`R ~var:v ~anode:target ();
          scan_expr e ctx value;
          let red =
            match red_of_op_tok optok with
            | Some op -> Some (op, loop_dependent e ctx value)
            | None -> None
          in
          record e ctx ~rw:`W ~var:v ?red ~anode:s ())
  | Ast.Index -> (
      match (node e tn.Ast.lhs).Ast.tag with
      | Ast.Ident ->
          let arr = text e (node e tn.Ast.lhs).Ast.main_token in
          let sb = classify e ctx tn.Ast.rhs in
          scan_expr e ctx tn.Ast.rhs;
          if optok <> Token.Eq then
            record e ctx ~rw:`R ~var:arr ~sub:sb ~anode:target ();
          scan_expr e ctx value;
          record e ctx ~rw:`W ~var:arr ~sub:sb ~anode:s ()
      | _ ->
          scan_expr e ctx target;
          scan_expr e ctx value)
  | Ast.Deref -> (
      match base_ident e tn.Ast.lhs with
      | Some v ->
          if optok <> Token.Eq then record e ctx ~rw:`R ~var:v ~anode:target ();
          scan_expr e ctx value;
          record e ctx ~rw:`W ~var:v ~anode:s ()
      | None ->
          scan_expr e ctx target;
          scan_expr e ctx value)
  | _ ->
      scan_expr e ctx target;
      scan_expr e ctx value

and scan_expr e ctx x =
  let n = node e x in
  match n.Ast.tag with
  | Ast.Ident -> record e ctx ~rw:`R ~var:(text e n.main_token) ~anode:x ()
  | Ast.Index ->
      (match (node e n.Ast.lhs).Ast.tag with
       | Ast.Ident ->
           let arr = text e (node e n.Ast.lhs).Ast.main_token in
           let sb = classify e ctx n.Ast.rhs in
           record e ctx ~rw:`R ~var:arr ~sub:sb ~anode:x ()
       | _ -> scan_expr e ctx n.Ast.lhs);
      scan_expr e ctx n.Ast.rhs
  | Ast.Call ->
      (* callee heads are names of code, not data; a bare identifier
         argument is read — and, if it names an array or slice, the
         callee may write through it *)
      List.iter
        (fun a ->
          let an = node e a in
          if an.Ast.tag = Ast.Ident then begin
            let v = text e an.Ast.main_token in
            record e ctx ~rw:`R ~var:v ~anode:a ();
            if Sset.mem v e.arrays then
              record e ctx ~rw:`W ~var:v ~sub:Sopaque ~viacall:true ~anode:a
                ()
          end
          else scan_expr e ctx a)
        (Ast.call_args e.ast x)
  | Ast.Field -> ()  (* namespace/struct heads: omp.get_thread_num *)
  | Ast.Deref -> (
      match base_ident e n.Ast.lhs with
      | Some v -> record e ctx ~rw:`R ~var:v ~anode:x ()
      | None -> scan_expr e ctx n.Ast.lhs)
  | Ast.Addr_of -> ()
  | Ast.Assign -> scan_assign e ctx x
  | _ -> List.iter (scan_expr e ctx) (Names.children e.ast x)

and scan_ws e ctx dir (cl : D.clauses) wh ~combine_late =
  match Nest.read e.ast wh with
  | Error _ -> scan_stmt e ctx wh  (* malformed: scan redundantly *)
  | Ok p ->
      let collapse2 = cl.D.flags.collapse >= 2 in
      let static_unchunked =
        match cl.D.schedule with
        | None | Some (Omp_model.Sched.Static None) | Some Omp_model.Sched.Auto
          ->
            true
        | Some _ -> false
      in
      let li =
        loop_info e ~ldir:dir p ~lnowait:cl.D.flags.nowait ~static_unchunked
          ~collapse2
      in
      e.loops <- (dir, li) :: e.loops;
      (* the loop reads its lower bound and bound expression on entry *)
      record e ctx ~rw:`R ~var:p.counter ~anode:p.counter_node ();
      scan_expr e ctx p.bound;
      List.iter
        (fun id ->
          record e ctx ~rw:`R ~var:(clause_name e id) ~anode:id ())
        cl.D.firstprivate;
      let privat' =
        Sset.add p.counter (Sset.union (privatised e cl) ctx.privat)
      in
      (* collapse(2): the body is [init; inner while]; the inner counter
         is privatised too and subscripts degrade to opaque *)
      let privat' =
        match (collapse2, Nest.level e.ast p.body) with
        | true, Ok (_, inner) -> (
            match Nest.read e.ast inner with
            | Ok il -> Sset.add il.counter privat'
            | Error _ -> privat')
        | _ -> privat'
      in
      let ctx' =
        { ctx with
          mult = Mdist dir; privat = privat'; loop = Some li;
          (* each thread runs its chunk's iterations sequentially, so a
             task in the body is spawned once per iteration; the
             globally-distinct counter values identify instances *)
          inloop = true;
          seqloop = (if ctx.inloop then None else Some li) }
      in
      kill_assigned e wh;
      scan_stmt e ctx' p.body;
      e.seq <- e.seq + 1;
      scan_stmt e ctx' p.cont;
      (* reduction combines: each thread merges its accumulator into
         the shared cell under the reduction critical section *)
      let combines () =
        let cctx = { ctx with sync = Scrit "__omp_reduction" } in
        List.iter
          (fun (op, id) ->
            let v = clause_name e id in
            e.seq <- e.seq + 1;
            record e cctx ~rw:`R ~var:v ~anode:id ();
            record e cctx ~rw:`W ~var:v ~red:(op, true) ~anode:id ())
          cl.D.reductions
      in
      if combine_late then begin
        (* combined parallel-for: the combine runs at region end,
           after the loop's implicit barrier *)
        if not cl.D.flags.nowait then new_phase e;
        combines ()
      end
      else begin
        combines ();
        if not cl.D.flags.nowait then new_phase e
      end

(* ------------------------- tasking constructs ---------------------- *)

and task_captures e dir = e.captures dir

and cap_names caps p =
  List.filter_map
    (fun (c : Preproc.Tasking.capture) -> if p c then Some c.cname else None)
    caps

(* Names the deferred body sees as task-private snapshots: clause
   private/firstprivate, plus implicit by-value captures of creator
   locals.  A by-value captured slice still aliases its cells, so local
   arrays are not snapshots (they are added to [e.byref] instead). *)
and snapshot_names e caps =
  cap_names caps (fun c ->
      match c.Preproc.Tasking.corigin with
      | `Private | `Firstprivate -> true
      | `Implicit ->
          Sset.mem c.cname e.locals && not (Sset.mem c.cname e.arrays)
      | `Shared -> false)

and is_team_mult = function Mall | Mdist _ -> true | _ -> false

and scan_task e ctx dir =
  let n = node e dir in
  let cl = Ast.clauses e.ast dir in
  let caps = task_captures e dir in
  (* creation point: explicit firstprivate and implicit by-value
     captures of shared cells are read in the creator's context *)
  List.iter
    (fun id -> record e ctx ~rw:`R ~var:(clause_name e id) ~anode:id ())
    cl.D.firstprivate;
  List.iter
    (fun v ->
      if Sset.mem v e.byref then record e ctx ~rw:`R ~var:v ~anode:dir ())
    (cap_names caps (fun c ->
         c.Preproc.Tasking.corigin = `Implicit && c.cby = `Value));
  (* instances of a task spawned in the unique enclosing sequential
     loop are identified by its iterations when the body captures the
     counter by value: subscripts affine in that counter then
     distinguish instances *)
  let tinstloop =
    match ctx.seqloop with
    | Some li
      when li.step <> None
           && List.exists
                (fun (c : Preproc.Tasking.capture) ->
                  c.cname = li.counter && c.cby = `Value)
                caps ->
        li.ldir
    | _ -> 0
  in
  let info =
    { tdir = dir; tkind = Ttask; tparent = ctx.task; tspawn = e.seq;
      tcomplete = None; tmulti = ctx.inloop; tteam = is_team_mult ctx.mult;
      tcmult = ctx.mult; tgroup = 0; tinstloop; tgrain = 1 }
  in
  e.tasks <- (dir, info) :: e.tasks;
  (* the body defers: it runs outside the creator's critical/atomic
     and sees its by-value captures as private snapshots *)
  let bctx =
    { ctx with
      task = dir; sync = Snone;
      privat =
        List.fold_left
          (fun s v -> Sset.add v s)
          ctx.privat (snapshot_names e caps);
      loop = (if tinstloop <> 0 then ctx.seqloop else ctx.loop) }
  in
  scan_stmt e bctx n.Ast.rhs

and scan_taskloop e ctx dir =
  let cl = Ast.clauses e.ast dir in
  let wh = (node e dir).Ast.rhs in
  match Nest.read e.ast wh with
  | Error _ -> scan_stmt e ctx wh (* malformed: scan redundantly *)
  | Ok p ->
      let li =
        loop_info e ~ldir:dir p ~lnowait:true ~static_unchunked:false
          ~collapse2:false
      in
      e.sloops <- (dir, li) :: e.sloops;
      (* entry: lower bound, bound expression and firstprivate reads *)
      record e ctx ~rw:`R ~var:p.counter ~anode:p.counter_node ();
      scan_expr e ctx p.bound;
      List.iter
        (fun id -> record e ctx ~rw:`R ~var:(clause_name e id) ~anode:id ())
        cl.D.firstprivate;
      let caps = task_captures e dir in
      let info =
        { tdir = dir; tkind = Tchunk; tparent = ctx.task; tspawn = e.seq;
          tcomplete = None; tmulti = true; tteam = is_team_mult ctx.mult;
          tcmult = ctx.mult; tgroup = 0; tinstloop = dir;
          tgrain = max 1 cl.D.grainsize }
      in
      e.tasks <- (dir, info) :: e.tasks;
      let bctx =
        { ctx with
          task = dir; sync = Snone;
          privat =
            List.fold_left
              (fun s v -> Sset.add v s)
              (Sset.add p.counter ctx.privat)
              (snapshot_names e caps);
          loop = Some li }
      in
      kill_assigned e wh;
      scan_stmt e bctx p.body;
      e.seq <- e.seq + 1;
      scan_stmt e bctx p.cont;
      (* the lowering closes the construct with a taskwait: every open
         direct child of the encountering frame joins here (its own
         chunks unconditionally — if the construct did not run, there
         is no chunk to order) *)
      e.seq <- e.seq + 1;
      e.tsyncs <- (e.seq, Ktaskwait) :: e.tsyncs;
      List.iter
        (fun ((d, i) : int * task_info) ->
          if
            i.tcomplete = None
            && (d = dir || ((not ctx.guarded) && i.tparent = ctx.task))
          then i.tcomplete <- Some (e.seq, ctx.mult))
        e.tasks

and scan_sections e ctx dir =
  let n = node e dir in
  let cl = Ast.clauses e.ast dir in
  let priv = privatised e cl in
  List.iter
    (fun id -> record e ctx ~rw:`R ~var:(clause_name e id) ~anode:id ())
    cl.D.firstprivate;
  let spawn = e.seq in
  let secs =
    List.filter
      (fun s -> (node e s).Ast.tag = Ast.Omp_section)
      (Ast.block_stmts e.ast n.Ast.rhs)
  in
  List.iteri
    (fun k s ->
      let info =
        { tdir = s; tkind = Tsection k; tparent = ctx.task; tspawn = spawn;
          tcomplete = None; tmulti = ctx.inloop; tteam = false;
          tcmult = ctx.mult; tgroup = dir; tinstloop = 0; tgrain = 1 }
      in
      e.tasks <- (s, info) :: e.tasks;
      e.seq <- e.seq + 1;
      let bctx = { ctx with task = s; privat = Sset.union priv ctx.privat } in
      scan_stmt e bctx (node e s).Ast.rhs)
    secs;
  e.seq <- e.seq + 1;
  if not cl.D.flags.nowait then begin
    List.iter
      (fun ((_, i) : int * task_info) ->
        if i.tgroup = dir && i.tcomplete = None then
          i.tcomplete <- Some (e.seq, ctx.mult))
      e.tasks;
    new_phase e
  end

(* --------------------------- region driver ------------------------- *)

(* Worksharing counters under [dir]: their in-region assignments act on
   privatised copies, so they must survive the region-entry kill of the
   constant environment. *)
let ws_counters e dir =
  let acc = ref Sset.empty in
  Names.walk e.ast dir (fun j ->
      let n = node e j in
      match n.Ast.tag with
      | Ast.Omp_for | Ast.Omp_parallel_for -> (
          match Nest.read e.ast n.Ast.rhs with
          | Ok p -> acc := Sset.add p.counter !acc
          | Error _ -> ())
      | _ -> ());
  !acc

(* Locals that behave as shared cells because a task of [dir]'s subtree
   captures them: explicit by-reference shares, plus by-value captured
   slices (copying a slice aliases its cells). *)
let byref_locals e dir locals =
  let acc = ref Sset.empty in
  Names.walk e.ast dir (fun j ->
      match (node e j).Ast.tag with
      | Ast.Omp_task | Ast.Omp_taskloop ->
          List.iter
            (fun (c : Preproc.Tasking.capture) ->
              let aliasing =
                c.cby = `Ref
                || (c.cby = `Value && Sset.mem c.cname e.arrays)
              in
              if aliasing && Sset.mem c.cname locals then
                acc := Sset.add c.cname !acc)
            (task_captures e j)
      | _ -> ());
  !acc

let reset_region_state e locals =
  e.phase <- 0;
  e.next_phase <- 1;
  Hashtbl.reset e.uf;
  e.accesses <- [];
  e.loops <- [];
  e.sloops <- [];
  e.tasks <- [];
  e.tsyncs <- [];
  e.reenter <- [];
  e.locals <- locals;
  e.byref <- Sset.empty

let finish_region e ~rdir ~rkind ~rseq : region =
  let accesses =
    List.rev_map
      (fun (a : access) -> { a with phase = uf_find e a.phase })
      e.accesses
  in
  { rdir; rkind; accesses;
    loops = List.rev e.loops;
    sloops = List.rev e.sloops;
    tasks = List.rev e.tasks;
    tsyncs = List.rev e.tsyncs;
    reenter = e.reenter;
    rseq }

let analyze_region e dir : region =
  let n = node e dir in
  let cl = Ast.clauses e.ast dir in
  reset_region_state e
    (if n.Ast.rhs <> 0 then Names.declared_under e.ast n.Ast.rhs
     else Sset.empty);
  e.byref <- byref_locals e dir e.locals;
  (* names the team writes have no single value inside the region *)
  let counters = ws_counters e dir in
  Sset.iter
    (fun v -> if not (Sset.mem v counters) then Hashtbl.remove e.known v)
    (assign_targets e dir);
  let ctx =
    { mult = Mall; sync = Snone; guarded = false;
      privat = privatised e cl; loop = None; task = 0; inloop = false;
      seqloop = None }
  in
  (match n.Ast.tag with
   | Ast.Omp_parallel -> scan_stmt e ctx n.Ast.rhs
   | Ast.Omp_parallel_for -> scan_ws e ctx dir cl n.Ast.rhs ~combine_late:true
   | _ -> invalid_arg "Dataflow.analyze_region: not a region");
  finish_region e ~rdir:dir
    ~rkind:
      (match Ast.omp_kind n.Ast.tag with Some k -> k | None -> D.Parallel)
    ~rseq:false

(* The sequential frame of a function whose body spawns tasks outside
   any parallel region (orphaned tasking, e.g. recursive [task fib]
   under a [single] elsewhere).  The frame's own code has multiplicity
   [Mseq]; parameters count as locals (per-activation storage). *)
let fn_params e fnnode =
  let n = node e fnnode in
  let count = Ast.extra e.ast n.Ast.lhs in
  let acc = ref Sset.empty in
  for k = 0 to count - 1 do
    let name_tok = Ast.extra e.ast (n.Ast.lhs + 1 + (2 * k)) in
    acc := Sset.add (Ast.token_text e.ast name_tok) !acc
  done;
  !acc

let analyze_seq_frame e fnnode : region =
  let body = (node e fnnode).Ast.rhs in
  reset_region_state e
    (Sset.union (fn_params e fnnode) (Names.declared_under e.ast body));
  e.byref <- byref_locals e fnnode e.locals;
  let ctx =
    { mult = Mseq; sync = Snone; guarded = false; privat = Sset.empty;
      loop = None; task = 0; inloop = false; seqloop = None }
  in
  scan_stmt e ctx body;
  finish_region e ~rdir:fnnode ~rkind:D.Parallel ~rseq:true

(* Array-like names of the program: declared with a slice type or
   initialised from an allocator, or slice-typed function parameters. *)
let array_names (ast : Ast.t) : Sset.t =
  let acc = ref Sset.empty in
  Names.walk ast 0 (fun j ->
      let n = Ast.node ast j in
      match n.Ast.tag with
      | Ast.Var_decl | Ast.Const_decl ->
          let is_slice =
            (n.Ast.lhs <> 0
             && (Ast.node ast n.Ast.lhs).Ast.tag = Ast.Type_slice)
            ||
            (n.Ast.rhs <> 0
             &&
             let i = Ast.node ast n.Ast.rhs in
             i.Ast.tag = Ast.Call
             &&
             let c = Ast.node ast i.Ast.lhs in
             c.Ast.tag = Ast.Ident
             &&
             let name = Ast.token_text ast c.Ast.main_token in
             String.length name >= 5 && String.sub name 0 5 = "alloc")
          in
          if is_slice then
            acc := Sset.add (Ast.token_text ast n.main_token) !acc
      | Ast.Index -> (
          let b = Ast.node ast n.Ast.lhs in
          if b.Ast.tag = Ast.Ident then
            acc := Sset.add (Ast.token_text ast b.Ast.main_token) !acc)
      | Ast.Fn_decl ->
          (* proto: [count; (name tok, type node)*; ret] *)
          let count = Ast.extra ast n.Ast.lhs in
          for k = 0 to count - 1 do
            let name_tok = Ast.extra ast (n.Ast.lhs + 1 + (2 * k)) in
            let ty = Ast.extra ast (n.Ast.lhs + 2 + (2 * k)) in
            if ty <> 0 && (Ast.node ast ty).Ast.tag = Ast.Type_slice then
              acc := Sset.add (Ast.token_text ast name_tok) !acc
          done
      | _ -> ());
  !acc

let fn_names (ast : Ast.t) : Sset.t =
  List.fold_left
    (fun acc d ->
      let n = Ast.node ast d in
      if n.Ast.tag = Ast.Fn_decl then
        Sset.add (Ast.token_text ast n.main_token) acc
      else acc)
    Sset.empty (Ast.top_decls ast)

(* The function-level sequential scan: track literal constants up to
   each region, analyse the region, conservatively kill what it (or any
   other compound statement) assigned. *)
let rec seq_scan e regions_acc s =
  let n = node e s in
  match n.Ast.tag with
  | Ast.Block -> List.iter (seq_scan e regions_acc) (Ast.block_stmts e.ast s)
  | Ast.Var_decl | Ast.Const_decl | Ast.Assign ->
      update_known e ~in_region:false s
  | Ast.Omp_parallel | Ast.Omp_parallel_for ->
      regions_acc := analyze_region e s :: !regions_acc;
      kill_assigned e s;
      (* nested regions (each thread forks a sub-team) are analysed as
         independent regions of their own *)
      Names.walk e.ast s (fun j ->
          if j <> s then
            match (node e j).Ast.tag with
            | Ast.Omp_parallel | Ast.Omp_parallel_for ->
                regions_acc := analyze_region e j :: !regions_acc
            | _ -> ())
  | Ast.While ->
      kill_assigned e s;
      let body = Ast.extra e.ast (n.Ast.rhs + 1) in
      seq_scan e regions_acc body;
      kill_assigned e s
  | Ast.If ->
      kill_assigned e s;
      let then_ = Ast.extra e.ast n.Ast.rhs in
      let else_ = Ast.extra e.ast (n.Ast.rhs + 1) in
      seq_scan e regions_acc then_;
      if else_ <> 0 then seq_scan e regions_acc else_;
      kill_assigned e s
  | Ast.Omp_for | Ast.Omp_single | Ast.Omp_master | Ast.Omp_critical
  | Ast.Omp_atomic ->
      (* orphaned worksharing outside a region: scan for nested
         regions only (there are none by construction) *)
      kill_assigned e s
  | _ -> ()

let run (ast : Ast.t) (spans : Ast.spans) : result =
  let tp = ref Sset.empty in
  List.iter
    (fun d ->
      let n = Ast.node ast d in
      if n.Ast.tag = Ast.Omp_threadprivate then
        List.iter
          (fun id ->
            tp :=
              Sset.add
                (Ast.token_text ast (Ast.node ast id).Ast.main_token)
                !tp)
          (Ast.clauses ast d).D.private_)
    (Ast.top_decls ast);
  let e =
    { ast; spans; tp = !tp; fnames = fn_names ast; arrays = array_names ast;
      known = Hashtbl.create 16; seq = 0; phase = 0; next_phase = 1;
      uf = Hashtbl.create 16; accesses = []; loops = []; sloops = [];
      tasks = []; tsyncs = []; reenter = []; locals = Sset.empty;
      byref = Sset.empty;
      captures =
        Preproc.Tasking.captures { Preproc.Synth.ast = ast; spans }
          ~globals:(Preproc.Names.globals ast) }
  in
  let regions = ref [] in
  (* a task-family construct with no enclosing parallel region: the
     function's sequential frame is analysed as a pseudo-region *)
  let has_orphaned_tasking body =
    let under_region = Hashtbl.create 64 in
    Names.walk ast body (fun j ->
        match (Ast.node ast j).Ast.tag with
        | Ast.Omp_parallel | Ast.Omp_parallel_for ->
            Names.walk ast j (fun k -> Hashtbl.replace under_region k ())
        | _ -> ());
    let found = ref false in
    Names.walk ast body (fun j ->
        match (Ast.node ast j).Ast.tag with
        | Ast.Omp_task | Ast.Omp_taskloop | Ast.Omp_sections ->
            if not (Hashtbl.mem under_region j) then found := true
        | _ -> ());
    !found
  in
  List.iter
    (fun d ->
      let n = Ast.node ast d in
      if n.Ast.tag = Ast.Fn_decl then begin
        Hashtbl.reset e.known;
        seq_scan e regions n.Ast.rhs;
        if has_orphaned_tasking n.Ast.rhs then begin
          Hashtbl.reset e.known;
          regions := analyze_seq_frame e d :: !regions
        end
      end)
    (Ast.top_decls ast);
  { ast; spans; regions = List.rev !regions; tp = !tp }
