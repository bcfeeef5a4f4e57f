(** The canonical loop form, read once for every consumer.

    A worksharing loop ([for], [parallel for], [taskloop]) governs a
    Zig-style [while] whose header carries the iteration space (the
    paper's section III-B2): the counter and the bound sit in the
    comparison, whose operator decides direction and inclusivity, and
    the increment is the right-hand side of the compound assignment in
    the continuation.  A [collapse(n)] nest adds levels of the form
    [[init; while]].  This module is the one reader of that header and
    of those levels, the one constant folder, the one reader of affine
    subscripts, and the one way to a trip count:

    - {!Loops} and {!Tasking} lower what {!lowered} accepts, and
      {!Preprocess.run_parsed} calls it on the user's text first, so a
      loop-form error names the user's line;
    - {!Transform} refuses, with its own reasons, what its literal
      rewrites cannot honour;
    - the static analyser reads tolerantly: whatever it cannot read
      degrades to unknown.

    Reading never raises; only {!lowered} does. *)

open Zr

(* ------------------------------------------------------------------ *)
(* Constants and affine forms.                                         *)

(** [co * outer + ci * inner + k] over a nest's counters. *)
type affine = { co : int; ci : int; k : int }

let const k = { co = 0; ci = 0; k }

let is_const a = a.co = 0 && a.ci = 0

let scale s a = { co = s * a.co; ci = s * a.ci; k = s * a.k }

(** [affine ?lookup ?outer ?inner ast node] — [node] as an affine form
    in the counters named [outer] and [inner] (a counter reads as [i]
    or as [i.*]); integer literals fold, and so do the names [lookup]
    knows.  [None] for anything else. *)
let rec affine ?(lookup = fun _ -> None) ?outer ?inner ast node :
    affine option =
  let n = Ast.node ast node in
  let counter name =
    if outer = Some name then Some { co = 1; ci = 0; k = 0 }
    else if inner = Some name then Some { co = 0; ci = 1; k = 0 }
    else None
  in
  let sub = affine ~lookup ?outer ?inner ast in
  let op () = (Ast.token ast n.Ast.main_token).Token.tag in
  let text node = Ast.token_text ast (Ast.node ast node).Ast.main_token in
  match n.Ast.tag with
  | Ast.Int_lit -> Option.map const (Ast.int_of_literal (text node))
  | Ast.Ident -> (
      match counter (text node) with
      | Some a -> Some a
      | None -> Option.map const (lookup (text node)))
  | Ast.Deref when (Ast.node ast n.Ast.lhs).Ast.tag = Ast.Ident ->
      counter (text n.Ast.lhs)
  | Ast.Un_op when op () = Token.Minus ->
      Option.map (scale (-1)) (sub n.Ast.lhs)
  | Ast.Bin_op -> (
      match (sub n.Ast.lhs, sub n.Ast.rhs) with
      | Some a, Some b -> (
          match op () with
          | Token.Plus ->
              Some { co = a.co + b.co; ci = a.ci + b.ci; k = a.k + b.k }
          | Token.Minus ->
              Some { co = a.co - b.co; ci = a.ci - b.ci; k = a.k - b.k }
          | Token.Star when is_const a -> Some (scale a.k b)
          | Token.Star when is_const b -> Some (scale b.k a)
          | Token.Slash when is_const a && is_const b && b.k <> 0 ->
              Some (const (a.k / b.k))
          | _ -> None)
      | _ -> None)
  | _ -> None

(** [fold ?lookup ast node] — the value of a constant integer
    expression: literals and the names [lookup] knows, under unary [-]
    and binary [+], [-], [*], [/]. *)
let fold ?lookup ast node =
  Option.map (fun a -> a.k) (affine ?lookup ast node)

(* ------------------------------------------------------------------ *)
(* The loop header.                                                    *)

(** The continuation [i += node] ([sign] 1) or [i -= node] ([sign] -1). *)
type step = { node : int; sign : int }

type loop = {
  wh : int;                      (** the [while] node *)
  counter : string;              (** [i], or [p] for a [p.*] counter *)
  is_ptr : bool;
  counter_node : int;            (** the counter's [Ident] *)
  up : bool;                     (** [<] / [<=]: the counter rises *)
  inclusive : bool;              (** [<=] / [>=] *)
  bound : int;                   (** node: the comparison's right side *)
  cont : int;                    (** node: the continuation *)
  step : (step, string) result;  (** [Error]: no compound increment *)
  body : int;                    (** node: the body block *)
}

let not_comparison = "worksharing loop: condition must be a comparison"

(** The counter the condition of [wh] starts with:
    [(name, is_ptr, ident node)]. *)
let counter ast wh : (string * bool * int, string) result =
  let cond = Ast.node ast (Ast.node ast wh).Ast.lhs in
  if cond.Ast.tag <> Ast.Bin_op then Error not_comparison
  else
    let lhs = Ast.node ast cond.Ast.lhs in
    let inner = Ast.node ast lhs.Ast.lhs in
    match lhs.Ast.tag with
    | Ast.Ident ->
        Ok (Ast.token_text ast lhs.Ast.main_token, false, cond.Ast.lhs)
    | Ast.Deref when inner.Ast.tag = Ast.Ident ->
        Ok (Ast.token_text ast inner.Ast.main_token, true, lhs.Ast.lhs)
    | Ast.Deref -> Error "worksharing loop: unsupported counter expression"
    | _ ->
        Error
          "worksharing loop: the comparison must start with the loop \
           counter"

(** [read ast wh] — the header of [while] node [wh]; [Error] carries the
    lowering's diagnostic. *)
let read ast wh : (loop, string) result =
  let wn = Ast.node ast wh in
  let cond = Ast.node ast wn.Ast.lhs in
  let op node =
    (Ast.token ast (Ast.node ast node).Ast.main_token).Token.tag
  in
  let cont = Ast.extra ast wn.Ast.rhs in
  if cond.Ast.tag <> Ast.Bin_op then Error not_comparison
  else
    match op wn.Ast.lhs with
    | (Token.Lt | Token.Lt_eq | Token.Gt | Token.Gt_eq) as cmp -> (
        match counter ast wh with
        | Error e -> Error e
        | Ok _ when cont = 0 ->
            Error
              "worksharing loop: the while loop needs a continuation \
               expression to determine the increment"
        | Ok (counter, is_ptr, counter_node) ->
            let cn = Ast.node ast cont in
            let step =
              match (cn.Ast.tag, op cont) with
              | Ast.Assign, Token.Plus_eq ->
                  Ok { node = cn.Ast.rhs; sign = 1 }
              | Ast.Assign, Token.Minus_eq ->
                  Ok { node = cn.Ast.rhs; sign = -1 }
              | Ast.Assign, _ ->
                  Error
                    "worksharing loop: the continuation must be a compound \
                     increment (+= or -=)"
              | _ ->
                  Error
                    "worksharing loop: unsupported continuation expression"
            in
            Ok
              { wh; counter; is_ptr; counter_node;
                up = cmp = Token.Lt || cmp = Token.Lt_eq;
                inclusive = cmp = Token.Lt_eq || cmp = Token.Gt_eq;
                bound = cond.Ast.rhs; cont; step;
                body = Ast.extra ast (wn.Ast.rhs + 1) })
    | _ -> Error "worksharing loop: unsupported comparison operator"

(** [level ast body] — one [collapse] level: [body] holds exactly the
    next counter's initialisation ([j = e;] or [var j = e;]) and the
    next [while].  [(e, the inner while)]. *)
let level ast body : (int * int, string) result =
  let fail =
    Error
      "collapse: each collapsed loop body must contain exactly the next \
       counter initialisation followed by the next while loop"
  in
  match Ast.block_stmts ast body with
  | [ init; inner ] when (Ast.node ast inner).Ast.tag = Ast.While -> (
      let n = Ast.node ast init in
      match n.Ast.tag with
      | Ast.Assign
        when (Ast.token ast n.Ast.main_token).Token.tag = Token.Eq ->
          Ok (n.Ast.rhs, inner)
      | Ast.Var_decl when n.Ast.rhs <> 0 -> Ok (n.Ast.rhs, inner)
      | _ -> fail)
  | _ -> fail

(* ------------------------------------------------------------------ *)
(* Steps and trip counts.                                              *)

(** Why the signed constant step [v] cannot drive [l]: OpenMP's
    canonical form moves the counter toward the bound. *)
let step_fault (l : loop) v =
  if v = 0 then Some "the loop step is zero"
  else if (v > 0) <> l.up then
    Some "the loop step runs against the comparison direction"
  else None

(** Iterations of [l] from [lb] to [ub] by [step], through the
    runtime's own partition arithmetic; [None] when a value is unknown
    or the step cannot drive the loop. *)
let trips (l : loop) ~lb ~ub ~step =
  match (lb, ub, step) with
  | Some lo, Some hi, Some step when step_fault l step = None ->
      Some (Omprt.Ws.trip_count ~inclusive:l.inclusive ~lo ~hi ~step ())
  | _ -> None

(* The header as the lowering takes it: a compound increment whose
   step, when it folds, moves the counter toward the bound.  A step
   known only at run time is the runtime's to judge. *)
let canonical ast wh : (loop * step, string) result =
  match read ast wh with
  | Error e -> Error e
  | Ok { step = Error e; _ } -> Error e
  | Ok ({ step = Ok s; _ } as l) -> (
      match
        Option.bind (fold ast s.node) (fun v -> step_fault l (s.sign * v))
      with
      | Some reason -> Error ("worksharing loop: " ^ reason)
      | None -> Ok (l, s))

(** [lowered ast dir] — the loops directive [dir] lowers, outermost
    first: its own loop, then one [(init, loop, step)] per further level
    of its [collapse] chain.  Raises the first reading's diagnostic at
    the directive, and refuses a level whose initialisation or bound
    reads an outer counter: the collapsed space must be rectangular. *)
let lowered ast dir : loop * step * (int * loop * step) list =
  let d = Ast.node ast dir in
  let depth =
    if d.Ast.tag = Ast.Omp_taskloop then 1
    else max 1 (Ast.clauses ast dir).Ompfront.Directive.flags.collapse
  in
  let fail msg =
    Source.error ast.Ast.source (Ast.token ast d.Ast.main_token).Token.start
      "%s" msg
  in
  let get = function Ok x -> x | Error msg -> fail msg in
  let outer, s = get (canonical ast d.Ast.rhs) in
  let rec levels body k counters =
    if k >= depth then []
    else
      let init, wh = get (level ast body) in
      let l, s = get (canonical ast wh) in
      let reads =
        Names.Sset.union
          (Names.referenced_under ast init)
          (Names.referenced_under ast l.bound)
      in
      if List.exists (fun c -> Names.Sset.mem c reads) counters then
        fail
          "worksharing loop: the loop nest is not rectangular (the inner \
           bounds depend on the outer counter)";
      (init, l, s) :: levels l.body (k + 1) (l.counter :: counters)
  in
  (outer, s, levels outer.body 1 [ outer.counter ])
