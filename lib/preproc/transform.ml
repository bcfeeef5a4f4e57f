(** Pass: loop-transformation clauses — [tile(sizes)], [unroll(n)],
    [interchange] — as legality-proven source rewrites.

    Runs {e first} in the preprocessor pipeline, before the combined
    split and outlining, so every refusal diagnostic still carries the
    user's original source coordinates and loop counters are still the
    plain identifiers the user wrote (after outlining they reappear as
    [x__ptr.*] captures).  Each transform is a pure source-to-source
    rewrite through {!Synth}: the pragma is re-emitted byte-identically
    minus its transform clauses, the loop text is synthesised, and
    everything outside the replaced range is untouched.

    Legality is decided statically, in the style of Kruse & Finkel's
    transformation pragmas: the body's array subscripts are folded to
    literal-affine forms over the nest's counters, dependence distance
    vectors are computed with the same {!Omp_model.Depvec} arithmetic
    the analyser's SIV battery uses, and each transform demands its
    classical fact —

    - [interchange]: no [(<, >)] distance vector;
    - [unroll(n)] / [tile(t)]: every dependence carried by the grouped
      dimension has distance 0 or at least the factor;
    - two-dimensional [tile(t1, t2)] additionally demands interchange
      legality (the tile traversal reorders across the two loops).

    A transform whose facts cannot be established is {e refused}, never
    miscompiled: the clauses are stripped, a warning is printed once
    (under the [ZIGOMP_WARNINGS] gate), and the refusal is exposed to
    the static analyser as a PROVEN (provably illegal) or MAY
    (unprovable) record for the shared report.  [~force:true] applies a
    transform regardless of legality — the test suite uses it to show
    that a refused rewrite really does introduce the predicted race. *)

open Zr
open Ompfront

type verdict = Proven | May

type refusal = {
  verdict : verdict;
  clause : string;   (** "tile" | "unroll" | "interchange" | "transform" *)
  reason : string;
  line : int;        (** 1-based source line of the directive *)
}

let transform_cids =
  [ Directive.Ctile; Directive.Cunroll; Directive.Cinterchange ]

(* ------------------------------------------------------------------ *)
(* Warn-once plumbing, sharing the runtime's ZIGOMP_WARNINGS gate.     *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 8

(* For tests only: lets the warn-once latch be exercised repeatedly. *)
let forget_warnings () = Hashtbl.reset warned

let warn_once key fmt =
  Printf.ksprintf
    (fun msg ->
      if not (Hashtbl.mem warned key) then begin
        Hashtbl.add warned key ();
        if Omprt.Icv.warnings_enabled () then
          Printf.eprintf "zigomp: warning: %s\n%!" msg
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Loop-nest recovery through {!Nest}.  A header the lowering would
   reject is a refusal here; transforms additionally need a literal
   step, which {!Nest.step_fault} judges as the lowering does.        *)

type loop = {
  h : Nest.loop;
  upper_text : string;
  step : int;               (* literal step, sign included *)
  trips : int option;       (* when both bounds fold to literals *)
}

(* Recover one canonical counted loop.  [lb counter] is the counter's
   literal value on entry, when the caller can see its initialisation. *)
let recover (c : Synth.ctx) wh ~lb : (loop, string) result =
  match Nest.read c.ast wh with
  | Error _ | Ok { step = Error _; _ } -> Error "not a canonical counted loop"
  | Ok ({ step = Ok s; _ } as h) -> (
      match Nest.fold c.ast s.node with
      | None -> Error "the loop step is not an integer literal"
      | Some v -> (
          let step = s.sign * v in
          match Nest.step_fault h step with
          | Some reason -> Error reason
          | None ->
              let trips =
                Nest.trips h ~lb:(lb h.counter) ~ub:(Nest.fold c.ast h.bound)
                  ~step:(Some step)
              in
              Ok { h; upper_text = Synth.node_text c h.bound; step; trips }))

(* The outer counter's initialisation is the statement just before the
   pragma in its enclosing block, out of the header's reach; recover a
   literal value from it so trip counts can bound the dependence
   windows. *)
let outer_lb (c : Synth.ctx) dir ~counter : int option =
  let ast = c.ast in
  let found = ref None in
  Array.iteri
    (fun i (n : Ast.node) ->
      if !found = None && n.Ast.tag = Ast.Block then begin
        let rec prev_of = function
          | p :: d :: _ when d = dir -> Some p
          | _ :: tl -> prev_of tl
          | [] -> None
        in
        match prev_of (Ast.block_stmts ast i) with
        | None -> ()
        | Some prev -> (
            let p = Ast.node ast prev in
            match p.Ast.tag with
            | Ast.Var_decl
              when p.Ast.rhs <> 0
                   && Ast.token_text ast p.Ast.main_token = counter ->
                found := Nest.fold ast p.Ast.rhs
            | Ast.Assign
              when (Ast.token ast p.Ast.main_token).Token.tag = Token.Eq
              ->
                let l = Ast.node ast p.Ast.lhs in
                if
                  l.Ast.tag = Ast.Ident
                  && Ast.token_text ast l.Ast.main_token = counter
                then found := Nest.fold ast p.Ast.rhs
            | _ -> ())
      end)
    ast.Ast.nodes;
  !found

(* ------------------------------------------------------------------ *)
(* Body access collection.                                             *)

type access = {
  base : string;
  idx : Nest.affine option;
  w : bool;
  guarded : bool;
}

type facts = {
  mutable accs : access list;
  mutable blocker : string option;  (* shape making analysis impossible *)
  mutable locals : Names.Sset.t;
}

let pure_fns =
  [ "sqrt"; "log"; "exp"; "fabs"; "floor"; "int_of"; "float_of"; "len" ]

let omp_query_fns = [ "get_thread_num"; "get_num_threads" ]

let block fa reason = if fa.blocker = None then fa.blocker <- Some reason

(* Walk the (innermost) body of the nest.  Writes to any scalar that is
   not a body-local are a carried dependence of distance 1 we do not
   try to reason away; writes to the counters change the iteration
   space itself.  Both block every transform. *)
let collect (c : Synth.ctx) ~outer ~inner ~counters body : facts =
  let ast = c.ast in
  let fa = { accs = []; blocker = None; locals = Names.Sset.empty } in
  let base_name node =
    let n = Ast.node ast node in
    match n.Ast.tag with
    | Ast.Ident -> Some (Ast.token_text ast n.Ast.main_token)
    | Ast.Deref ->
        let l = Ast.node ast n.Ast.lhs in
        if l.Ast.tag = Ast.Ident then
          Some (Ast.token_text ast l.Ast.main_token)
        else None
    | _ -> None
  in
  let add ~w ~guarded node idx_node =
    match base_name node with
    | None -> block fa "unsupported array base expression"
    | Some base ->
        fa.accs <-
          { base; idx = Nest.affine ~outer ?inner ast idx_node; w; guarded }
          :: fa.accs
  in
  let pure_callee node =
    let callee = Ast.node ast node in
    match callee.Ast.tag with
    | Ast.Ident ->
        List.mem (Ast.token_text ast callee.Ast.main_token) pure_fns
    | Ast.Field ->
        let base = Ast.node ast callee.Ast.lhs in
        base.Ast.tag = Ast.Ident
        && Ast.token_text ast base.Ast.main_token = "omp"
        && List.mem
             (Ast.token_text ast callee.Ast.main_token)
             omp_query_fns
    | _ -> false
  in
  let rec go ~guarded node =
    let n = Ast.node ast node in
    match n.Ast.tag with
    | Ast.Block -> List.iter (go ~guarded) (Ast.block_stmts ast node)
    | Ast.Var_decl | Ast.Const_decl ->
        fa.locals <-
          Names.Sset.add (Ast.token_text ast n.Ast.main_token) fa.locals;
        if n.Ast.rhs <> 0 then go_expr ~guarded n.Ast.rhs
    | Ast.Assign -> (
        let compound =
          (Ast.token ast n.Ast.main_token).Token.tag <> Token.Eq
        in
        let tgt = Ast.node ast n.Ast.lhs in
        (match tgt.Ast.tag with
         | Ast.Ident | Ast.Deref -> (
             match base_name n.Ast.lhs with
             | Some name when List.mem name counters ->
                 block fa
                   (Printf.sprintf
                      "the loop counter '%s' is written in the body" name)
             | Some name when Names.Sset.mem name fa.locals -> ()
             | Some name ->
                 block fa
                   (Printf.sprintf
                      "the scalar '%s' is written in the body (a carried \
                       dependence of distance 1)" name)
             | None -> block fa "unsupported assignment target")
         | Ast.Index ->
             add ~w:true ~guarded tgt.Ast.lhs tgt.Ast.rhs;
             if compound then add ~w:false ~guarded tgt.Ast.lhs tgt.Ast.rhs;
             go_expr ~guarded tgt.Ast.rhs
         | _ -> block fa "unsupported assignment target");
        go_expr ~guarded n.Ast.rhs)
    | Ast.If ->
        go_expr ~guarded n.Ast.lhs;
        let then_ = Ast.extra ast n.Ast.rhs in
        let else_ = Ast.extra ast (n.Ast.rhs + 1) in
        go ~guarded:true then_;
        if else_ <> 0 then go ~guarded:true else_
    | Ast.While -> block fa "a further nested loop inside the body"
    | Ast.Break | Ast.Continue -> block fa "loop-control flow in the body"
    | Ast.Return -> block fa "return inside the body"
    | Ast.Expr_stmt -> go_expr ~guarded n.Ast.lhs
    | _ -> block fa "unsupported statement in the body"
  and go_expr ~guarded node =
    let n = Ast.node ast node in
    match n.Ast.tag with
    | Ast.Index ->
        add ~w:false ~guarded n.Ast.lhs n.Ast.rhs;
        go_expr ~guarded n.Ast.rhs
    | Ast.Call ->
        if pure_callee n.Ast.lhs then
          List.iter (go_expr ~guarded) (Ast.call_args ast node)
        else block fa "a call with unknown effects in the body"
    | Ast.Bin_op ->
        go_expr ~guarded n.Ast.lhs;
        go_expr ~guarded n.Ast.rhs
    | Ast.Un_op | Ast.Deref | Ast.Addr_of -> go_expr ~guarded n.Ast.lhs
    | Ast.Ident | Ast.Int_lit | Ast.Float_lit | Ast.Bool_lit
    | Ast.Undefined_lit | Ast.Field -> ()
    | _ -> block fa "unsupported expression in the body"
  in
  go ~guarded:false body;
  fa

(* ------------------------------------------------------------------ *)
(* Dependence vectors.                                                 *)

(* Distance vectors of one subscript pair over the nest: the address
   advances [ao = co*step_outer] per outer iteration and
   [ai = ci*step_inner] per inner one; a dependence is an integer
   solution of [ao*di + ai*dj = k2 - k1] inside the iteration window.
   Families that ignore one counter are summarised by representative
   unit vectors in the free dimension.  [Error] when the vectors cannot
   be enumerated (non-literal inner bounds leave the dj window
   unbounded). *)
let pair_vectors ~ao ~ai ~to_ ~ti (l1 : Nest.affine) (l2 : Nest.affine) :
    ((int * int) list, string) result =
  let delta = l2.k - l1.k in
  let within_o di = match to_ with Some t -> abs di < t | None -> true in
  let within_i dj = match ti with Some t -> abs dj < t | None -> true in
  if ao = 0 && ai = 0 then
    if delta = 0 then
      (* the same cell on every iteration *)
      Ok [ (0, 1); (1, 0); (1, -1); (1, 1) ]
    else Ok []
  else if ai = 0 then
    match Omp_model.Depvec.siv_distance ~c1:l1.k ~c2:l2.k ~step:ao with
    | None -> Ok []
    | Some di when not (within_o di) -> Ok []
    | Some di -> Ok [ (di, 0); (di, 1); (di, -1) ]
  else if ao = 0 then
    match Omp_model.Depvec.siv_distance ~c1:l1.k ~c2:l2.k ~step:ai with
    | None -> Ok []
    | Some dj when not (within_i dj) -> Ok []
    | Some dj -> Ok [ (0, dj); (1, dj); (-1, dj) ]
  else
    match ti with
    | None -> Error "the inner loop bounds are not integer literals"
    | Some t ->
        (* enumerate dj over the inner window — solutions with
           |dj| >= t cannot be realised by the nest — and solve the
           linear relation for di *)
        if t > 32768 then Error "dependence window too large"
        else begin
          let out = ref [] in
          for dj = -(t - 1) to t - 1 do
            let rem = delta - (ai * dj) in
            if rem mod ao = 0 then begin
              let di = rem / ao in
              if within_o di && (di <> 0 || dj <> 0) then
                out := (di, dj) :: !out
            end
          done;
          Ok (List.rev !out)
        end

type deps = {
  vectors : (int * int) list;   (* deduped, normalised source-first *)
  all_unguarded : bool;         (* every contributing access unguarded *)
  exact : bool;                 (* no pair was dropped as unanalysable *)
  unknown : string option;      (* first reason a pair was dropped *)
}

let dependences ~(outer : loop) ~(inner : loop option) (fa : facts) : deps =
  let so = outer.step in
  let si = match inner with Some l -> l.step | None -> 1 in
  let to_ = outer.trips in
  let ti = match inner with Some l -> l.trips | None -> Some 1 in
  let accs = Array.of_list fa.accs in
  let n = Array.length accs in
  let vectors = ref [] and all_ung = ref true and unknown = ref None in
  let note_unknown r = if !unknown = None then unknown := Some r in
  for x = 0 to n - 1 do
    for y = x to n - 1 do
      let a = accs.(x) and b = accs.(y) in
      let self = x = y in
      if a.base = b.base && (a.w || b.w) && ((not self) || a.w) then begin
        match (a.idx, b.idx) with
        | None, _ | _, None ->
            note_unknown
              (Printf.sprintf
                 "a subscript of '%s' is not literal-affine in the loop \
                  counters" a.base)
        | Some l1, Some l2 ->
            if l1.co <> l2.co || l1.ci <> l2.ci then
              note_unknown
                (Printf.sprintf
                   "subscripts of '%s' have different counter \
                    coefficients" a.base)
            else (
              match
                pair_vectors ~ao:(l1.co * so) ~ai:(l1.ci * si) ~to_ ~ti l1
                  l2
              with
              | Error r -> note_unknown r
              | Ok vs ->
                  List.iter
                    (fun (di, dj) ->
                      if (di, dj) <> (0, 0) then begin
                        let v =
                          if di > 0 || (di = 0 && dj > 0) then (di, dj)
                          else (-di, -dj)
                        in
                        if not (List.mem v !vectors) then
                          vectors := v :: !vectors;
                        if a.guarded || b.guarded then all_ung := false
                      end)
                    vs)
      end
    done
  done;
  { vectors = !vectors; all_unguarded = !all_ung;
    exact = !unknown = None; unknown = !unknown }

(* ------------------------------------------------------------------ *)
(* Legality decisions.                                                 *)

let refuse ~line ~clause verdict reason = { verdict; clause; reason; line }

(* Refuse when [check] fails on the vectors (PROVEN if the vector set is
   exact and unguarded, MAY otherwise) or when a pair was unanalysable
   (always MAY: the missing vectors could be the violating ones). *)
let decide ~line ~clause (d : deps) check ~describe ~vectors :
    refusal option =
  if not (check vectors) then
    let verdict = if d.exact && d.all_unguarded then Proven else May in
    Some (refuse ~line ~clause verdict (describe vectors))
  else
    match d.unknown with
    | Some r -> Some (refuse ~line ~clause May r)
    | None -> None

let show_vec (di, dj) =
  Printf.sprintf "(%s, %s)"
    Omp_model.Depvec.(dir_to_string (dir_of_distance di))
    Omp_model.Depvec.(dir_to_string (dir_of_distance dj))

(* Two conditions: the classical one (no [(<, >)] vector — the swap
   must not reverse a dependence of the sequential nest), and a
   worksharing-specific one — the swap moves the [omp for] onto the old
   inner loop, so a dependence carried by it ([(=, <)] or [(=, >)]),
   harmless while each outer iteration ran on one thread, would now
   cross threads.  The user's pragma only ever asserted
   outer-parallelism; refusing keeps that contract. *)
let check_interchange ~line d =
  let ws_safe (d1, d2) = not (d1 = 0 && d2 <> 0) in
  decide ~line ~clause:"interchange" d
    (fun vs ->
      Omp_model.Depvec.interchange_legal vs && List.for_all ws_safe vs)
    ~vectors:d.vectors
    ~describe:(fun vs ->
      if not (Omp_model.Depvec.interchange_legal vs) then
        let bad =
          List.filter (fun (di, dj) -> di > 0 && dj < 0) vs
          |> List.map show_vec
          |> List.sort_uniq compare
        in
        Printf.sprintf
          "interchange would reverse a dependence with direction vector \
           %s"
          (String.concat ", " bad)
      else
        let bad =
          List.filter (fun v -> not (ws_safe v)) vs
          |> List.map show_vec
          |> List.sort_uniq compare
        in
        Printf.sprintf
          "interchange would move the worksharing onto a loop carrying \
           a dependence (direction vector %s)"
          (String.concat ", " bad))

(* Grouping legality of one dimension: dependences equal in this
   dimension but carried by the other loop are ordered there and do not
   constrain the grouping. *)
let check_group ~line ~clause ~which ~factor d =
  let dim = match which with `Outer -> fst | `Inner -> snd in
  let other = match which with `Outer -> snd | `Inner -> fst in
  let dists =
    List.filter_map
      (fun v ->
        if dim v = 0 && other v <> 0 then None else Some (dim v))
      d.vectors
  in
  decide ~line ~clause d
    (fun ds -> Omp_model.Depvec.group_legal ~factor ds)
    ~vectors:dists
    ~describe:(fun ds ->
      let bad =
        List.filter (fun x -> x <> 0 && abs x < factor) ds
        |> List.map (fun x -> string_of_int (abs x))
        |> List.sort_uniq compare
      in
      Printf.sprintf
        "a dependence carried at distance %s is shorter than the %s \
         factor %d"
        (String.concat ", " bad) clause factor)

(* ------------------------------------------------------------------ *)
(* Emission.                                                           *)

let op_str (l : loop) =
  match (l.h.up, l.h.inclusive) with
  | true, false -> "<"
  | true, true -> "<="
  | false, false -> ">"
  | false, true -> ">="

let strict_str (l : loop) = if l.step > 0 then "<" else ">"

let counter_value (l : loop) =
  if l.h.is_ptr then l.h.counter ^ ".*" else l.h.counter

(* [x += d] / [x -= d] with the literal kept positive. *)
let cont_str name d =
  if d >= 0 then Printf.sprintf "%s += %d" name d
  else Printf.sprintf "%s -= %d" name (-d)

(* [x + d] / [x - d] with the literal kept positive. *)
let offset_str name d =
  if d >= 0 then Printf.sprintf "%s + %d" name d
  else Printf.sprintf "%s - %d" name (-d)

(* Rewrite a node's text, mapping counter names and swallowing the
   [.*] of pointer counters. *)
let rw_counters (c : Synth.ctx) (map : (string * string) list) node =
  let subst name = List.assoc_opt name map in
  Synth.rewrite_range c
    ~first_token:(Synth.node_first_token c node)
    ~last_token:(Synth.node_last_token c node)
    ~consume_deref:(fun name -> List.mem_assoc name map)
    ~code:subst ~pragma:subst ()

(* The pragma text of [dir] with the transform clauses cut out. *)
let pragma_without (c : Synth.ctx) dir =
  let ast = c.ast in
  let dir_start, _ = Synth.node_bytes c dir in
  let wh = (Ast.node ast dir).Ast.rhs in
  let wh_start, _ = Synth.node_bytes c wh in
  let cuts =
    List.filter_map
      (fun cs ->
        if List.mem cs.Directive.cid transform_cids then
          Some (Ast.clause_span_bytes ast cs)
        else None)
      (Ast.clause_spans ast dir)
    |> List.sort compare
  in
  let buf = Buffer.create 80 in
  let cursor = ref dir_start in
  List.iter
    (fun (b, e) ->
      Buffer.add_string buf
        (Source.slice ast.Ast.source ~start:!cursor ~stop:b);
      cursor := e)
    cuts;
  Buffer.add_string buf
    (Source.slice ast.Ast.source ~start:!cursor ~stop:wh_start);
  Buffer.contents buf

(* unroll(u): multiply the step, keep the lead body, replicate the rest
   behind per-replica tail guards.  Replicas run in iteration order, so
   each grouped chunk keeps its sequential semantics. *)
let emit_unroll (c : Synth.ctx) (l : loop) ~u : string =
  let cv = counter_value l in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "while (%s %s %s) : (%s) {\n" cv (op_str l) l.upper_text
    (cont_str cv (u * l.step));
  bpf "    %s\n" (Synth.node_text c l.h.body);
  for kk = 1 to u - 1 do
    let repl = Printf.sprintf "(%s)" (offset_str cv (kk * l.step)) in
    bpf "    if (%s %s %s) %s\n" repl (op_str l) l.upper_text
      (rw_counters c [ (l.h.counter, repl) ] l.h.body)
  done;
  bpf "}";
  Buffer.contents b

(* tile(t) on one loop: the worksharing loop strides by [t*step]; a
   fresh point counter sweeps each tile. *)
let emit_tile1 (c : Synth.ctx) (l : loop) ~t ~uid : string =
  let cv = counter_value l in
  let p = Printf.sprintf "__omp_p0_%d" uid in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "while (%s %s %s) : (%s) {\n" cv (op_str l) l.upper_text
    (cont_str cv (t * l.step));
  bpf "    var %s = %s;\n" p cv;
  bpf "    while ((%s %s %s) and (%s %s %s)) : (%s) %s\n" p (op_str l)
    l.upper_text p (strict_str l)
    (offset_str cv (t * l.step))
    (cont_str p l.step)
    (rw_counters c [ (l.h.counter, p) ] l.h.body);
  bpf "}";
  Buffer.contents b

(* tile(t1, t2) on a 2-nest: tile loops outermost (the worksharing loop
   becomes the outer tile loop), point loops sweep each t1 x t2 tile. *)
let emit_tile2 (c : Synth.ctx) (outer : loop) (inner : loop)
    ~(init_text : string) ~t1 ~t2 ~uid : string =
  let cvo = counter_value outer in
  let tj = Printf.sprintf "__omp_t1_%d" uid in
  let p0 = Printf.sprintf "__omp_p0_%d" uid in
  let p1 = Printf.sprintf "__omp_p1_%d" uid in
  let body =
    rw_counters c
      [ (outer.h.counter, p0); (inner.h.counter, p1) ]
      inner.h.body
  in
  let b = Buffer.create 768 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "while (%s %s %s) : (%s) {\n" cvo (op_str outer) outer.upper_text
    (cont_str cvo (t1 * outer.step));
  bpf "    var %s = %s;\n" tj init_text;
  bpf "    while (%s %s %s) : (%s) {\n" tj (op_str inner) inner.upper_text
    (cont_str tj (t2 * inner.step));
  bpf "        var %s = %s;\n" p0 cvo;
  bpf "        while ((%s %s %s) and (%s %s %s)) : (%s) {\n" p0
    (op_str outer) outer.upper_text p0 (strict_str outer)
    (offset_str cvo (t1 * outer.step))
    (cont_str p0 outer.step);
  bpf "            var %s = %s;\n" p1 tj;
  bpf "            while ((%s %s %s) and (%s %s %s)) : (%s) %s\n" p1
    (op_str inner) inner.upper_text p1 (strict_str inner)
    (offset_str tj (t2 * inner.step))
    (cont_str p1 inner.step) body;
  bpf "        }\n";
  bpf "    }\n";
  bpf "}";
  Buffer.contents b

(* interchange: the inner loop becomes the worksharing loop; both
   levels run on fresh counters (the originals are never written back,
   as with every lowered counter). *)
let emit_interchange (c : Synth.ctx) ~(pragma : string) (outer : loop)
    (inner : loop) ~(init_text : string) ~uid : string =
  let x0 = Printf.sprintf "__omp_x0_%d" uid in
  let x1 = Printf.sprintf "__omp_x1_%d" uid in
  let body =
    rw_counters c
      [ (outer.h.counter, x0); (inner.h.counter, x1) ]
      inner.h.body
  in
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "{\n";
  bpf "var %s = %s;\n" x1 init_text;
  bpf "%s" pragma;
  bpf "while (%s %s %s) : (%s) {\n" x1 (op_str inner) inner.upper_text
    (cont_str x1 inner.step);
  bpf "    var %s = %s;\n" x0 (counter_value outer);
  bpf "    while (%s %s %s) : (%s) %s\n" x0 (op_str outer)
    outer.upper_text (cont_str x0 outer.step) body;
  bpf "}\n";
  bpf "}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Planning.                                                           *)

(* The nest a transform was checked on and the body facts it derived;
   {!footprints} reads them instead of deriving them again. *)
type nest = { outer : loop; inner : loop option; facts : facts }

type plan_result =
  | Nothing                                     (* no transform clauses *)
  | Apply of Synth.replacement * nest
  | Refuse of refusal list * Synth.replacement  (* strip the clauses *)

let dir_line (c : Synth.ctx) dir =
  Source.line_of c.ast.Ast.source
    (Ast.token c.ast (Ast.node c.ast dir).Ast.main_token).Token.start

let clause_text (c : Synth.ctx) dir cid =
  match
    List.find_opt
      (fun cs -> cs.Directive.cid = cid)
      (Ast.clause_spans c.ast dir)
  with
  | Some cs ->
      let b, e = Ast.clause_span_bytes c.ast cs in
      Source.slice c.ast.Ast.source ~start:b ~stop:e
  | None -> Directive.clause_id_to_string cid

(* The replacement that only strips the transform clauses (refusal and
   malformed paths): pragma minus the clauses, loop text untouched. *)
let strip_replacement (c : Synth.ctx) dir : Synth.replacement =
  let wh = (Ast.node c.ast dir).Ast.rhs in
  let dir_start, _ = Synth.node_bytes c dir in
  let _, wh_stop = Synth.node_bytes c wh in
  { Synth.start = dir_start; stop = wh_stop;
    text = pragma_without c dir ^ Synth.node_text c wh }

let plan (c : Synth.ctx) ?(force = false) dir : plan_result =
  let ast = c.ast in
  let cl = Ast.clauses ast dir in
  let tr = cl.Directive.transform in
  let has_transform =
    tr.Packed.unroll > 0 || tr.Packed.interchange
    || cl.Directive.tile <> [] || tr.Packed.unroll_malformed
    || tr.Packed.tile_malformed
  in
  if not has_transform then Nothing
  else begin
    let line = dir_line c dir in
    if tr.Packed.unroll_malformed then
      warn_once
        (Printf.sprintf "unroll-malformed@%d" line)
        "ignoring malformed '%s' at line %d (expected a positive integer \
         literal up to %d); no unroll applied"
        (clause_text c dir Directive.Cunroll)
        line Packed.max_unroll;
    if tr.Packed.tile_malformed then
      warn_once
        (Printf.sprintf "tile-malformed@%d" line)
        "ignoring malformed '%s' at line %d (expected positive integer \
         literal tile sizes up to %d); no tiling applied"
        (clause_text c dir Directive.Ctile)
        line Packed.max_tile;
    let requested =
      (if cl.Directive.tile <> [] then [ "tile" ] else [])
      @ (if tr.Packed.unroll > 1 then [ "unroll" ] else [])
      @ if tr.Packed.interchange then [ "interchange" ] else []
    in
    let refusals = ref [] in
    let refused v clause reason =
      refusals := refuse ~line ~clause v reason :: !refusals
    in
    let wh = (Ast.node ast dir).Ast.rhs in
    let finish () = Refuse (List.rev !refusals, strip_replacement c dir) in
    match requested with
    | [] ->
        (* only malformed clauses, or the identity unroll(1): strip *)
        finish ()
    | _ :: _ :: _ ->
        refused May "transform"
          "transform composition is not supported; write one of tile, \
           unroll or interchange per directive";
        finish ()
    | [ clause ] ->
        if cl.Directive.flags.Packed.collapse > 1 then begin
          refused May clause
            "transforms do not compose with collapse on the same \
             directive";
          finish ()
        end
        else if List.length cl.Directive.tile > 2 then begin
          refused May "tile" "tile depth beyond 2 is not supported";
          finish ()
        end
        else begin
          match recover c wh ~lb:(fun counter -> outer_lb c dir ~counter) with
          | Error e ->
              refused May clause e;
              finish ()
          | Ok outer -> (
              (* the canonical 2-nest under [outer]: [None] when the body
                 is not a nest at all (fine for 1-D transforms) *)
              let nest =
                match Nest.level ast outer.h.body with
                | Error _ -> Ok None
                | Ok (init, iwh) -> (
                    match recover c iwh ~lb:(fun _ -> Nest.fold ast init) with
                    | Error e -> Error ("inner loop: " ^ e)
                    | Ok inner -> Ok (Some (inner, init)))
              in
              match nest with
              | Error e ->
                  refused May clause e;
                  finish ()
              | Ok nest ->
                  let needs_nest =
                    clause = "interchange"
                    || List.length cl.Directive.tile = 2
                  in
                  let rectangular =
                    match nest with
                    | None -> true
                    | Some (inner, init_expr) ->
                        let refs =
                          Names.Sset.union
                            (Names.referenced_under ast inner.h.bound)
                            (Names.referenced_under ast init_expr)
                        in
                        not (Names.Sset.mem outer.h.counter refs)
                  in
                  if needs_nest && nest = None then begin
                    refused May clause
                      "the directive needs a perfectly nested 2-deep \
                       canonical loop nest";
                    finish ()
                  end
                  else if nest <> None && not rectangular then begin
                    refused May clause
                      "the loop nest is not rectangular (the inner \
                       bounds depend on the outer counter)";
                    finish ()
                  end
                  else begin
                    let inner = Option.map fst nest in
                    let init_text =
                      Option.map (fun (_, e) -> Synth.node_text c e) nest
                    in
                    let counters =
                      outer.h.counter
                      ::
                      (match inner with
                       | Some l -> [ l.h.counter ]
                       | None -> [])
                    in
                    let analysis_body =
                      match inner with
                      | Some l -> l.h.body
                      | None -> outer.h.body
                    in
                    let fa =
                      collect c ~outer:outer.h.counter
                        ~inner:(Option.map (fun l -> l.h.counter) inner)
                        ~counters analysis_body
                    in
                    (* reductions reorder their combines under any
                       regrouping; refuse rather than change the
                       result *)
                    if cl.Directive.reductions <> [] then
                      refused May clause
                        "the directive carries a reduction; regrouping \
                         would reorder the combines";
                    (match fa.blocker with
                     | Some r -> refused May clause r
                     | None ->
                         let d = dependences ~outer ~inner fa in
                         let dec =
                           match clause with
                           | "interchange" -> check_interchange ~line d
                           | "unroll" ->
                               let which =
                                 if inner = None then `Outer else `Inner
                               in
                               check_group ~line ~clause ~which
                                 ~factor:tr.Packed.unroll d
                           | "tile" -> (
                               match cl.Directive.tile with
                               | [ t1 ] ->
                                   check_group ~line ~clause ~which:`Outer
                                     ~factor:t1 d
                               | [ t1; t2 ] -> (
                                   match
                                     check_group ~line ~clause
                                       ~which:`Outer ~factor:t1 d
                                   with
                                   | Some r -> Some r
                                   | None -> (
                                       match
                                         check_group ~line ~clause
                                           ~which:`Inner ~factor:t2 d
                                       with
                                       | Some r -> Some r
                                       | None ->
                                           Option.map
                                             (fun r ->
                                               { r with clause = "tile" })
                                             (check_interchange ~line d)))
                               | _ -> assert false)
                           | _ -> assert false
                         in
                         (match dec with
                          | Some r -> refusals := r :: !refusals
                          | None -> ()));
                    if !refusals <> [] && not force then finish ()
                    else begin
                      let uid = line in
                      let pragma = pragma_without c dir in
                      let loop_text =
                        match (clause, inner, init_text) with
                        | "unroll", None, _ ->
                            emit_unroll c outer ~u:tr.Packed.unroll
                        | "unroll", Some il, _ ->
                            (* unroll the innermost loop in place *)
                            let o_start, o_stop =
                              Synth.node_bytes c outer.h.wh
                            in
                            let i_start, i_stop =
                              Synth.node_bytes c il.h.wh
                            in
                            Source.slice ast.Ast.source ~start:o_start
                              ~stop:i_start
                            ^ emit_unroll c il ~u:tr.Packed.unroll
                            ^ Source.slice ast.Ast.source ~start:i_stop
                                ~stop:o_stop
                        | "tile", _, _
                          when List.length cl.Directive.tile = 1 ->
                            emit_tile1 c outer
                              ~t:(List.hd cl.Directive.tile) ~uid
                        | "tile", Some il, Some itext ->
                            let t1, t2 =
                              match cl.Directive.tile with
                              | [ a; b ] -> (a, b)
                              | _ -> assert false
                            in
                            emit_tile2 c outer il ~init_text:itext ~t1 ~t2
                              ~uid
                        | "interchange", Some il, Some itext ->
                            emit_interchange c ~pragma outer il
                              ~init_text:itext ~uid
                        | _ -> assert false
                      in
                      let dir_start, _ = Synth.node_bytes c dir in
                      let _, wh_stop = Synth.node_bytes c wh in
                      let text =
                        (* interchange re-emits the pragma inside its
                           block, ahead of the new worksharing loop *)
                        if clause = "interchange" then loop_text
                        else pragma ^ loop_text
                      in
                      Apply
                        ( { Synth.start = dir_start; stop = wh_stop; text },
                          { outer; inner; facts = fa } )
                    end
                  end)
        end
  end

(* ------------------------------------------------------------------ *)
(* Pipeline step and analyser entry points.                            *)

let transform_dirs ast =
  Names.omp_nodes ast (fun tag ->
      tag = Ast.Omp_for || tag = Ast.Omp_parallel_for)

(** One round of the pass; [None] when no directive carries transform
    clauses.  Refused transforms strip their clauses (and warn once,
    gated by [ZIGOMP_WARNINGS]); [~force:true] applies regardless of
    legality, for tests that demonstrate a refusal was sound. *)
let round ?(force = false) (c : Synth.ctx) : string option =
  let planned =
    transform_dirs c.ast
    |> List.filter_map (fun d ->
           match plan c ~force d with
           | Nothing -> None
           | p -> Some (d, p))
  in
  match planned with
  | [] -> None
  | _ ->
      let outermost =
        Synth.outermost
          (List.map (fun (d, _) -> (d, Synth.node_bytes c d)) planned)
      in
      let reps =
        List.filter_map
          (fun (d, p) ->
            if not (List.mem d outermost) then None
            else
              match p with
              | Nothing -> None
              | Apply (r, _) -> Some r
              | Refuse (rs, strip) ->
                  List.iter
                    (fun r ->
                      warn_once
                        (Printf.sprintf "%s@%d" r.clause r.line)
                        "refusing %s at line %d: %s [%s]" r.clause r.line
                        r.reason
                        (match r.verdict with
                         | Proven -> "PROVEN"
                         | May -> "MAY"))
                    rs;
                  Some strip)
          planned
      in
      Some (Synth.apply_replacements (Synth.text c) reps)

let run ?name ?force source = round ?force (Synth.parse ?name source)

(** Refusals of every transform-carrying directive of an already parsed
    program, for the static analyser's report.  Positions are original
    source positions, since this pass runs before any other rewrite. *)
let assess (c : Synth.ctx) : refusal list =
  transform_dirs c.ast
  |> List.concat_map (fun d ->
         match plan c d with
         | Nothing | Apply _ -> []
         | Refuse (rs, _) -> rs)

(* ------------------------------------------------------------------ *)
(* Static cache-footprint estimation for [zrc analyze --predict].
   For every tiling that passes the legality check and has literal
   bounds, estimate (in bytes, with 8-byte elements) the nest's
   cold-cache traffic and the working set between reuses of an array
   element, before and after tiling.  The untiled reuse distance of a
   rectangular 2-nest is one full inner sweep — the data the loop
   streams through before the outer counter advances and inner-indexed
   elements are touched again; the tiled reuse distance is one
   [t1 x t2] block.  The roofline model ({!Sim.Perfmodel}) turns the
   two working sets into L3 miss factors and a predicted arithmetic
   intensity / speedup. *)

type footprint = {
  fp_line : int;       (** directive source line *)
  fp_desc : string;    (** the clause, e.g. ["tile(8, 8)"] *)
  fp_iters : float;    (** total point iterations of the nest *)
  fp_accesses : int;   (** indexed accesses per point iteration *)
  fp_bytes : float;    (** cold-cache bytes of one full traversal *)
  fp_ws_before : float;(** bytes between reuses, untiled *)
  fp_ws_after : float; (** bytes between reuses, tiled *)
}

let footprints (c : Synth.ctx) : footprint list =
  let elt = 8.0 in
  transform_dirs c.ast
  |> List.filter_map (fun dir ->
         let cl = Ast.clauses c.ast dir in
         if cl.Directive.tile = [] then None
         else
           match plan c dir with
           | Nothing | Refuse _ -> None
           | Apply (_, { outer; inner; facts = fa }) -> (
               match (outer.trips, Option.map (fun l -> l.trips) inner) with
               | None, _ | _, Some None -> None
               | Some t_o, ti_opt ->
                   let t_i = match ti_opt with Some (Some t) -> t | _ -> 1 in
                   let naccs = List.length fa.accs in
                   (* distinct (base, co, ci) access groups *)
                   let groups =
                     List.sort_uniq compare
                       (List.filter_map
                          (fun a ->
                            match a.idx with
                            | Some l -> Some (a.base, l.Nest.co, l.ci)
                            | None -> None)
                          fa.accs)
                   in
                   let so = abs outer.step in
                   let si =
                     match inner with Some l -> abs l.step | None -> 1
                   in
                   let span ~ospan ~ispan (_, co, ci) =
                     elt
                     *. float_of_int
                          ((abs (co * so) * max 0 (ospan - 1))
                          + (abs (ci * si) * max 0 (ispan - 1))
                          + 1)
                   in
                   let sum f =
                     List.fold_left (fun acc g -> acc +. f g) 0. groups
                   in
                   let bytes = sum (span ~ospan:t_o ~ispan:t_i) in
                   let ws_before, ws_after =
                     match (inner, cl.Directive.tile) with
                     | Some _, [ t1; t2 ] ->
                         ( sum (span ~ospan:1 ~ispan:t_i),
                           sum
                             (span ~ospan:(min t1 t_o) ~ispan:(min t2 t_i)) )
                     | _ ->
                         (* 1-D tiling leaves the reuse pattern of a
                            single streamed loop unchanged *)
                         let ws = sum (span ~ospan:t_o ~ispan:t_i) in
                         (ws, ws)
                   in
                   Some
                     { fp_line = dir_line c dir;
                       fp_desc = clause_text c dir Directive.Ctile;
                       fp_iters = float_of_int (t_o * t_i);
                       fp_accesses = naccs;
                       fp_bytes = bytes;
                       fp_ws_before = ws_before;
                       fp_ws_after = ws_after }))
