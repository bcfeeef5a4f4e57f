(** Pairwise conflict and dependence analysis (the analyser's second
    pass).

    Given the access sets of {!Dataflow}, decide for every pair of
    same-variable accesses in the same barrier phase whether the pair
    can be a data race or a loop-carried dependence, and with what
    confidence:

    - [VNone]: the pair is proved safe (synchronised, barrier-ordered
      by construction, or provably disjoint storage);
    - [VProven]: the conflict is certain under the checker's execution
      model — a team of at least two threads must be able to produce
      an unordered conflicting pair.  Proven findings are required to
      be observable by the dynamic vector-clock detector;
    - [VMay]: the analysis cannot prove either way (opaque subscripts,
      unknown trip counts, non-static schedules, guarded accesses,
      call effects).  May findings are advisory.

    Subscript reasoning is the classical ZIV/SIV battery restricted to
    the [i + c] shapes {!Dataflow} produces: a ZIV pair of unequal
    constants is independent; an SIV pair with offsets [c1], [c2] and
    step [s] depends iff [s] divides [c2 - c1] with a distance
    [d = (c2 - c1) / s] inside the iteration space — [d = 0] is a
    same-iteration (thread-local) access, [d <> 0] a loop-carried
    dependence with direction [<] (or [>] for negative distance). *)

module Df = Dataflow

type verdict =
  | VNone
  | VMay of string
  | VProven of string

(** A loop-carried dependence found between affine subscripts: the
    distance in iterations and its direction. *)
type carried = { distance : int; direction : string }

type conflict = {
  a : Df.access;
  b : Df.access;          (** [a.seq <= b.seq] *)
  verdict : verdict;      (** never [VNone] *)
  carried : carried option;
}

(* ------------------------------ helpers --------------------------- *)

(* Distributed conflicts are PROVEN only when a static-unchunked
   schedule with at least two iterations guarantees two different
   threads execute conflicting iterations. *)
let split_proven li =
  li.Df.static_unchunked
  && (match li.Df.trips with Some t -> t >= 2 | None -> false)

(* The element interval touched by [counter + c] over the whole loop.
   The interval arithmetic lives in {!Omp_model.Subscript} so the
   bytecode tier's guard elision provably applies the same reasoning
   per chunk. *)
let affine_interval li c =
  match (li.Df.lb, li.Df.step, li.Df.trips) with
  | Some lb, Some s, Some t ->
      Omp_model.Subscript.affine_interval ~lb ~step:s ~trips:t c
  | _ -> None

(* Is constant element [k] ever touched by [counter + c]? *)
let affine_hits li c k =
  match (li.Df.lb, li.Df.step, li.Df.trips) with
  | Some lb, Some s, Some t ->
      Omp_model.Subscript.affine_hits ~lb ~step:s ~trips:t c k
  | _ -> None

(* Storage overlap of two subscripts evaluated in *different*
   constructs (no iteration pairing applies). *)
let overlap loops (sa : Df.sub option) (sb : Df.sub option) :
    [ `Yes | `No | `Unknown ] =
  let loop d = List.assoc_opt d loops in
  match (sa, sb) with
  | None, _ | _, None -> `Yes  (* scalars: same cell *)
  | Some (Df.Sconst k1), Some (Df.Sconst k2) ->
      if k1 = k2 then `Yes else `No
  | Some (Df.Saffine (d, c)), Some (Df.Sconst k)
  | Some (Df.Sconst k), Some (Df.Saffine (d, c)) -> (
      match loop d with
      | Some li -> (
          match affine_hits li c k with
          | Some true -> `Yes
          | Some false -> `No
          | None -> `Unknown)
      | None -> `Unknown)
  | Some (Df.Saffine (d1, c1)), Some (Df.Saffine (d2, c2)) -> (
      match (loop d1, loop d2) with
      | Some l1, Some l2 -> (
          match (affine_interval l1 c1, affine_interval l2 c2) with
          | Some (lo1, hi1), Some (lo2, hi2) ->
              if hi1 < lo2 || hi2 < lo1 then `No else `Unknown
          | _ -> `Unknown)
      | _ -> `Unknown)
  | Some Df.Sopaque, _ | _, Some Df.Sopaque -> `Unknown

(* Both sides synchronised against each other? *)
let synced (a : Df.access) (b : Df.access) =
  match (a.sync, b.sync) with
  | Df.Satomic, Df.Satomic -> true
  | Df.Scrit n1, Df.Scrit n2 -> n1 = n2
  | _ -> false

let may_of = function
  | VProven r -> VMay r
  | v -> v

(* ----------------------- same-loop (SIV) rules --------------------- *)

let same_loop_pair li (a : Df.access) (b : Df.access) :
    verdict * carried option =
  match (a.sub, b.sub) with
  | None, None | None, Some _ | Some _, None ->
      (* a scalar cell touched by distributed iterations: conflicting
         iterations land on different threads *)
      ( (if split_proven li then
           VProven "distributed iterations access the same scalar cell"
         else VMay "distributed iterations may access the same scalar cell"),
        None )
  | Some (Df.Saffine (_, c1)), Some (Df.Saffine (_, c2)) when c1 = c2 ->
      (* same element only in the same iteration: thread-local order *)
      (VNone, None)
  | Some (Df.Saffine (_, c1)), Some (Df.Saffine (_, c2)) -> (
      match li.Df.step with
      | Some s when s <> 0 -> (
          (* the distance arithmetic is shared with the preprocessor's
             transform legality checks through {!Omp_model.Depvec} *)
          match Omp_model.Depvec.siv_distance ~c1 ~c2 ~step:s with
          | None -> (VNone, None)
          | Some d ->
              let dir =
                Omp_model.Depvec.(dir_to_string (dir_of_distance d))
              in
              let carried = Some { distance = abs d; direction = dir } in
              (match li.Df.trips with
               | Some t when abs d >= t -> (VNone, None)
               | Some t when t >= 2 ->
                   (* a contiguous split over two threads separates
                      iterations [ceil(t/2)] apart at most; a distance
                      within half the iteration space must cross the
                      chunk boundary of some team size *)
                   if li.Df.static_unchunked && abs d <= t / 2 then
                     ( VProven
                         (Printf.sprintf
                            "loop-carried dependence, distance %d, \
                             direction (%s)"
                            (abs d) dir),
                       carried )
                   else
                     ( VMay
                         (Printf.sprintf
                            "loop-carried dependence, distance %d, may \
                             stay inside one thread's chunk"
                            (abs d)),
                       carried )
               | _ ->
                   ( VMay
                       (Printf.sprintf
                          "possible loop-carried dependence, distance %d"
                          (abs d)),
                     carried )))
      | _ -> (VMay "possible loop-carried dependence, unknown step", None))
  | Some (Df.Saffine (_, c)), Some (Df.Sconst k)
  | Some (Df.Sconst k), Some (Df.Saffine (_, c)) -> (
      match affine_hits li c k with
      | Some false -> (VNone, None)
      | Some true ->
          ( (if split_proven li then
               VProven
                 (Printf.sprintf
                    "element %d is touched by distributed iterations" k)
             else
               VMay
                 (Printf.sprintf
                    "element %d may be touched by distributed iterations" k)),
            None )
      | None -> (VMay "constant and affine subscripts may overlap", None))
  | Some (Df.Sconst k1), Some (Df.Sconst k2) ->
      if k1 <> k2 then (VNone, None)
      else
        ( (if split_proven li then
             VProven "distributed iterations access the same element"
           else VMay "distributed iterations may access the same element"),
          None )
  | Some Df.Sopaque, Some _ | Some _, Some Df.Sopaque ->
      (VMay "opaque subscript: accesses may overlap", None)

(* Same-partition idiom: two static-unchunked loops with identical
   literal iteration spaces distribute iteration [i] to the same
   thread, so equal-offset affine accesses stay thread-local even
   without a barrier between the loops. *)
let same_partition loops (a : Df.access) (b : Df.access) l1 l2 =
  match (a.Df.sub, b.Df.sub) with
  | Some (Df.Saffine (_, c1)), Some (Df.Saffine (_, c2)) when c1 = c2 -> (
      match (List.assoc_opt l1 loops, List.assoc_opt l2 loops) with
      | Some i1, Some i2 ->
          i1.Df.static_unchunked && i2.Df.static_unchunked
          && i1.Df.lb <> None && i1.Df.lb = i2.Df.lb && i1.Df.ub = i2.Df.ub
          && i1.Df.step <> None && i1.Df.step = i2.Df.step
          && i1.Df.linclusive = i2.Df.linclusive
      | _ -> false)
  | _ -> false

(* ----------------------- task-pair (MHP) rules --------------------- *)

(* Two subscripts affine in the loop identifying the instances of one
   multi-instance task node: classical SIV reasoning where "iteration"
   means "instance".  Equal offsets are the same instance (sequential);
   a distance of at least [tgrain] iterations is guaranteed to cross
   into another deferred instance. *)
let instance_pair li_opt (i : Df.task_info) c1 c2 : verdict * carried option =
  if c1 = c2 then (VNone, None)
  else
    match li_opt with
    | Some li -> (
        match li.Df.step with
        | Some s when s <> 0 -> (
            match Omp_model.Depvec.siv_distance ~c1 ~c2 ~step:s with
            | None -> (VNone, None)
            | Some d ->
                let dir =
                  Omp_model.Depvec.(dir_to_string (dir_of_distance d))
                in
                let carried = Some { distance = abs d; direction = dir } in
                let t = li.Df.trips in
                (match t with
                 | Some t when abs d >= t -> (VNone, None)
                 | Some t when t <= i.Df.tgrain ->
                     (VNone, None) (* one deferred instance: sequential *)
                 | Some _ when abs d >= i.Df.tgrain && not i.Df.tteam ->
                     ( VProven
                         (Printf.sprintf
                            "dependence across deferred instances, \
                             distance %d, direction (%s)"
                            (abs d) dir),
                       carried )
                 | _ ->
                     ( VMay
                         (Printf.sprintf
                            "possible dependence across deferred \
                             instances, distance %d"
                            (abs d)),
                       carried )))
        | _ ->
            (VMay "possible cross-instance dependence, unknown step", None))
    | None -> (VMay "unanalysable task-instance loop", None)

(* At least one side sits in a deferred body: the task graph decides.
   [Par] pairs then fall back to storage-overlap reasoning. *)
let task_pair g (r : Df.region) loops (a : Df.access) (b : Df.access) :
    verdict * carried option =
  let inst =
    if a.Df.task <> 0 && a.Df.task = b.Df.task then
      match List.assoc_opt a.Df.task r.Df.tasks with
      | Some i when i.Df.tinstloop <> 0 -> (
          match (a.Df.sub, b.Df.sub) with
          | Some (Df.Saffine (l1, c1)), Some (Df.Saffine (l2, c2))
            when l1 = i.Df.tinstloop && l2 = i.Df.tinstloop ->
              Some (instance_pair (List.assoc_opt l1 loops) i c1 c2)
          | _ -> None)
      | _ -> None
    else None
  in
  match inst with
  | Some v -> v
  | None -> (
      match Taskgraph.relate g a b with
      | Taskgraph.Ordered -> (VNone, None)
      | Taskgraph.Par { certain; why } -> (
          match overlap loops a.Df.sub b.Df.sub with
          | `No -> (VNone, None)
          | `Yes -> ((if certain then VProven why else VMay why), None)
          | `Unknown -> (VMay (why ^ "; storage overlap unproven"), None)))

(* --------------------------- the pair rule ------------------------- *)

let analyse_pair g (r : Df.region) loops (a : Df.access) (b : Df.access) :
    verdict * carried option =
  if a.Df.rw = `R && b.Df.rw = `R then (VNone, None)
  else if a.Df.phase <> b.Df.phase then (VNone, None)
  else if synced a b then (VNone, None)
  else
    let demote (v, c) =
      if a.Df.guarded || b.Df.guarded || a.Df.viacall || b.Df.viacall then
        (may_of v, c)
      else (v, c)
    in
    let conflict_by_overlap proven_reason =
      match overlap loops a.Df.sub b.Df.sub with
      | `No -> (VNone, None)
      | `Yes -> (VProven proven_reason, None)
      | `Unknown -> (VMay (proven_reason ^ " (storage overlap unproven)"),
                     None)
    in
    demote
      (if a.Df.task <> 0 || b.Df.task <> 0 then task_pair g r loops a b
       else
      match (a.Df.mult, b.Df.mult) with
       | Df.Mseq, _ | _, Df.Mseq ->
           (VNone, None)  (* sequential frame code: program order *)
       | Df.Mmaster _, Df.Mmaster _ ->
           (VNone, None)  (* always the master thread, program order *)
       | Df.Msingle (d1, nw1), Df.Msingle (d2, _) ->
           if d1 = d2 then
             if nw1 && List.mem d1 r.Df.reenter then
               ( VMay
                   "single(nowait) encounters may pick different \
                    executing threads",
                 None )
             else (VNone, None)
           else
             ( VMay
                 "different single constructs may execute on different \
                  threads",
               None )
       | Df.Msingle _, Df.Mmaster _ | Df.Mmaster _, Df.Msingle _ ->
           (VMay "the single executor may not be the master thread", None)
       | Df.Mdist l1, Df.Mdist l2 when l1 = l2 -> (
           match List.assoc_opt l1 loops with
           | Some li -> same_loop_pair li a b
           | None -> (VMay "unanalysable worksharing loop", None))
       | Df.Mdist l1, Df.Mdist l2 ->
           if same_partition loops a b l1 l2 then (VNone, None)
           else
             ( VMay
                 "worksharing loops sharing a phase may assign the \
                  element to different threads",
               None )
       | Df.Mdist l, _ | _, Df.Mdist l -> (
           (* loop iterations against code executed outside the loop
              in the same phase (nowait, or code around the loop) *)
           match List.assoc_opt l loops with
           | Some li -> (
               match overlap loops a.Df.sub b.Df.sub with
               | `No -> (VNone, None)
               | `Yes ->
                   ( (if split_proven li then
                        VProven
                          "worksharing iterations are unordered with the \
                           other access in the same phase"
                      else
                        VMay
                          "worksharing iterations may be unordered with \
                           the other access"),
                     None )
               | `Unknown ->
                   ( VMay
                       "worksharing iterations may touch the same \
                        storage as the other access",
                     None ))
           | None -> (VMay "unanalysable worksharing loop", None))
       | Df.Mall, Df.Mall ->
           (* every thread executes both: any cross-thread pair of a
              write and another access to the same cell conflicts *)
           conflict_by_overlap
             "all threads perform the access without synchronisation"
       | Df.Mall, (Df.Msingle _ | Df.Mmaster _)
       | (Df.Msingle _ | Df.Mmaster _), Df.Mall ->
           conflict_by_overlap
             "the redundant team access conflicts with the one-thread \
              construct")

(** All conflicting pairs of a region, in a stable order. *)
let conflicts (r : Df.region) : conflict list =
  let g = Taskgraph.build r in
  let loops = r.loops @ r.sloops in
  let arr = Array.of_list r.accesses in
  let n = Array.length arr in
  let out = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = arr.(i) and b = arr.(j) in
      if a.Df.var = b.Df.var then begin
        let a, b = if a.Df.seq <= b.Df.seq then (a, b) else (b, a) in
        match analyse_pair g r loops a b with
        | VNone, _ -> ()
        | verdict, carried -> out := { a; b; verdict; carried } :: !out
      end
    done
  done;
  List.rev !out
