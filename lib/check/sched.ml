(** Cooperative checker runtime: the third execution backend.

    Runs a preprocessed Zr program on deterministic virtual threads
    ({!Sim.Des}) instead of real domains, intercepting the whole
    [.omp.internal] surface ({!Interp.Builtins.interceptor}) and every
    shared-reachable memory access ({!Interp.Rt.tracer}).  Each virtual
    thread carries a vector clock; forks, joins, barriers, criticals,
    atomics and reduction merges establish the happens-before edges
    documented in DESIGN.md, and every traced access is fed to the
    {!Race} detector under that ordering.

    Every run is controlled by a {!Dpor} execution: the DES scheduler
    asks it which runnable virtual thread to resume at each scheduling
    point, so a decision prefix fixes the interleaving and the run is
    fully deterministic. *)

module Des = Sim.Des
module V = Interp.Value
module Rt = Interp.Rt
module B = Interp.Builtins

(* ----------------------------- state ------------------------------ *)

type team = {
  uid : int;                    (* stable creation-order id, for DPOR *)
  size : int;
  mutable bar_vc : Vc.t;        (* join of clocks of barrier arrivals *)
  mutable bar_blocked : (tstate * Des.wake) list;
  mutable bar_max : float;      (* latest arrival time this episode *)
  mutable done_members : int;   (* members that left the region *)
  mutable diverged : bool;      (* divergence already reported *)
  dispatchers : (int, Omprt.Ws.Dispatch.t) Hashtbl.t;  (* by loop epoch *)
  single_claims : (int, unit) Hashtbl.t;               (* by single epoch *)
  (* deferred explicit tasks: barriers and the region end gate on
     [task_live] reaching zero; the final clock of every completed task
     is kept so those gates establish the task-body → completion-point
     happens-before edges *)
  mutable task_live : int;
  mutable task_finals : Vc.t list;
  mutable task_waiters : Des.wake list;
      (* region ends waiting for [task_live] to reach zero *)
}

and frame = {
  team : team;
  tid : int;
  icvs : Omprt.Icv.t;           (* this implicit task's data environment *)
  mutable single_seen : int;    (* singles this thread has met *)
  mutable loop_epoch : int;     (* dispatch loops this thread has met *)
  mutable children_live : int;  (* direct child tasks not yet complete *)
  mutable children_finals : Vc.t list;
      (* final clocks of the direct children completed since the last
         [taskwait], which joins and drops them *)
  mutable taskwait : Des.wake option;
      (* this frame's suspended [taskwait], woken by the completion of
         its last outstanding child *)
}

and tstate = {
  gid : int;                    (* virtual-thread id = clock index *)
  vc : Vc.t;
  mutable base_icvs : Omprt.Icv.t;  (* the frame outside any region *)
  mutable frames : frame list;  (* innermost region first *)
}

type session = {
  des : Des.t;
  nthreads : int;               (* configured default team size *)
  initial_icvs : Omprt.Icv.t;   (* virtual thread 0's starting frame *)
  ctl : Dpor.exec;              (* the execution deciding this run *)
  mutable nteams : int;         (* teams forked so far, for team uids *)
  race : Race.t;
  mutable findings : Report.finding list;
  mutable threads : tstate option array;     (* by vthread id *)
  locks : (string, Des.Smutex.t * Vc.t) Hashtbl.t;  (* criticals *)
  atomic_lock : Des.Smutex.t * Vc.t;         (* __kmpc_atomic_begin/end *)
  mutable af : (Omprt.Atomics.Float.t * Vc.t) list;
  mutable ai : (Omprt.Atomics.Int.t * Vc.t) list;
  cp_slots : (int * int, V.t * Vc.t) Hashtbl.t;
      (* copyprivate broadcasts by (team uid, single epoch): value and
         the claimer's clock at the put *)
  mutable orphan_cp : V.t option;  (* copyprivate outside any region *)
}

let new_frame ?(single_seen = 0) ?(loop_epoch = 0) team ~tid icvs =
  { team; tid; icvs; single_seen; loop_epoch;
    children_live = 0; children_finals = []; taskwait = None }

let register sess ts =
  let n = Array.length sess.threads in
  if ts.gid >= n then begin
    let a = Array.make (max 16 (2 * ts.gid)) None in
    Array.blit sess.threads 0 a 0 n;
    sess.threads <- a
  end;
  sess.threads.(ts.gid) <- Some ts

let cur_tstate sess =
  match sess.des.Des.current with
  | Some vt ->
      if vt.Des.id < Array.length sess.threads then sess.threads.(vt.Des.id)
      else None
  | None -> None

(* (team size, tid, frame) for the current thread; a thread outside any
   region is an orphan team of one. *)
let ctx ts =
  match ts.frames with
  | f :: _ -> (f.team.size, f.tid, Some f)
  | [] -> (1, 0, None)

(* The current task's ICV frame — mirrors {!Omprt.Team.icvs}, so the
   checker's serialisation/capping decisions agree with execution. *)
let icvs_of ts =
  match ts.frames with f :: _ -> f.icvs | [] -> ts.base_icvs

(* Enclosing active regions (teams of more than one thread) — the value
   [max_active_levels] is checked against, as in {!Omprt.Team.fork}. *)
let active_levels ts =
  List.length (List.filter (fun f -> f.team.size > 1) ts.frames)

(* Threads this contention-group chain has committed so far: 1 for the
   initial thread plus (size - 1) per enclosing team. *)
let group_threads ts =
  List.fold_left (fun acc f -> acc + (f.team.size - 1)) 1 ts.frames

(* ------------------------ scheduling points ----------------------- *)

(* A scheduling point inside a region: the DPOR execution decides which
   thread runs next. *)
let pause sess ts =
  match ts.frames with [] -> () | _ :: _ -> Des.advance sess.des 1.0

(* Report a visible operation to the DPOR engine; must run after the
   [pause] of the same operation, so the event lands on the decision
   that resumed this thread. *)
let note sess ts ~obj ~kind =
  Dpor.record sess.ctl ~gid:ts.gid ~vc:ts.vc ~obj ~kind

(* --------------------------- the tracer --------------------------- *)

let on_trace sess ~rw acc ~off ~hint =
  (* Consume the compound-assignment note before any reschedule, so it
     cannot leak to another thread's access. *)
  let op = !Rt.pending_op in
  Rt.pending_op := None;
  match cur_tstate sess with
  | None -> ()
  | Some ts ->
      pause sess ts;
      (* the detector's table is DPOR's too: racing priors become
         backtrack candidates there *)
      Race.access sess.race ~rw acc ~off ~hint ~gid:ts.gid ~vc:ts.vc ~op

(* --------------------------- barriers ----------------------------- *)

(* Task-completion happens-before: every gate that waits out the team's
   outstanding explicit tasks joins their final clocks. *)
let join_task_finals team vc =
  List.iter (fun fvc -> Vc.join vc fvc) team.task_finals

let rec wait_team_tasks sess team =
  if team.task_live > 0 then begin
    Des.suspend sess.des (fun wake ->
        team.task_waiters <- wake :: team.task_waiters);
    wait_team_tasks sess team
  end

let release_barrier team =
  join_task_finals team team.bar_vc;
  let blocked = List.rev team.bar_blocked in
  let bvc = team.bar_vc in
  let at = team.bar_max in
  team.bar_blocked <- [];
  team.bar_vc <- Vc.create ();
  team.bar_max <- 0.;
  List.iter
    (fun (ts, wake) ->
      Vc.join ts.vc bvc;
      Vc.tick ts.vc ts.gid;
      wake ~at)
    blocked

let note_divergence sess team =
  if not team.diverged then begin
    team.diverged <- true;
    sess.findings <-
      Report.divergence
        ~detail:
          (Printf.sprintf
             "%d of %d team members left the parallel region while the \
              rest wait at a barrier (unmatched barrier counts)"
             team.done_members team.size)
      :: sess.findings
  end

let barrier sess ts =
  match ts.frames with
  | [] -> Vc.tick ts.vc ts.gid
  | { team; _ } :: _ ->
      if team.size <= 1 then Vc.tick ts.vc ts.gid
      else begin
        Vc.join team.bar_vc ts.vc;
        let now = Des.now sess.des in
        if now > team.bar_max then team.bar_max <- now;
        let arrived = List.length team.bar_blocked + 1 in
        if arrived + team.done_members >= team.size && team.task_live = 0
        then begin
          if team.done_members > 0 then note_divergence sess team;
          (* self: adopt the rendezvous clock before the state resets *)
          join_task_finals team team.bar_vc;
          Vc.join ts.vc team.bar_vc;
          Vc.tick ts.vc ts.gid;
          release_barrier team
        end
        else
          (* not full yet — or full but outstanding explicit tasks keep
             the barrier closed; the last task completion releases it *)
          Des.suspend sess.des (fun wake ->
              team.bar_blocked <- (ts, wake) :: team.bar_blocked)
      end

(* A member returning from the region body can strand teammates at a
   barrier that now can never fill: report the divergence and release
   them rather than deadlocking the whole check. *)
let member_done sess (fr : frame) =
  let team = fr.team in
  team.done_members <- team.done_members + 1;
  if team.bar_blocked <> []
     && List.length team.bar_blocked + team.done_members >= team.size
  then begin
    note_divergence sess team;
    release_barrier team
  end

(* --------------------------- fork/join ---------------------------- *)

(* [requested] is the resolved team-size request (clause value or the
   encountering task's [nthreads-var]); the encountering task's frame is
   then enforced exactly as {!Omprt.Team.fork} does — serialisation
   beyond [max_active_levels], then the [thread_limit] contention-group
   cap — so the checker explores the same team shapes execution uses. *)
let fork sess parent ~call ~f ~fp ~sh ~red ~requested =
  Vc.tick parent.vc parent.gid;
  let pframe = icvs_of parent in
  let serialised =
    requested > 1 && active_levels parent >= pframe.Omprt.Icv.max_active_levels
  in
  let nth =
    if serialised then 1
    else
      min requested
        (max 1 (pframe.Omprt.Icv.thread_limit - group_threads parent + 1))
  in
  let team =
    { uid = sess.nteams;
      size = nth; bar_vc = Vc.create (); bar_blocked = []; bar_max = 0.;
      done_members = 0; diverged = false;
      dispatchers = Hashtbl.create 8; single_claims = Hashtbl.create 8;
      task_live = 0; task_finals = []; task_waiters = [] }
  in
  sess.nteams <- sess.nteams + 1;
  let remaining = ref (nth - 1) in
  let parent_wake : Des.wake option ref = ref None in
  let child_finals : Vc.t list ref = ref [] in
  for tid = 1 to nth - 1 do
    let cvc = Vc.copy parent.vc in
    Des.spawn sess.des (fun () ->
        let vt = Des.self sess.des in
        let child =
          { gid = vt.Des.id; vc = cvc;
            base_icvs = Omprt.Icv.copy pframe; frames = [] }
        in
        Vc.tick child.vc child.gid;
        register sess child;
        let fr = new_frame team ~tid (Omprt.Icv.copy pframe) in
        child.frames <- fr :: child.frames;
        ignore (call f [ fp; sh; red ]);
        child.frames <- List.tl child.frames;
        member_done sess fr;
        child_finals := child.vc :: !child_finals;
        decr remaining;
        if !remaining = 0 then
          match !parent_wake with
          | Some wake -> wake ~at:vt.Des.clock
          | None -> ())
  done;
  (* the children received a copy of the parent's clock: tick so the
     parent's own region-body events are distinguishable from the fork
     point (else a child's start would wrongly cover them) *)
  Vc.tick parent.vc parent.gid;
  (* the encountering thread is thread 0 of the team, run in place so
     threadprivate state persists across regions as OpenMP requires *)
  let fr0 = new_frame team ~tid:0 (Omprt.Icv.copy pframe) in
  parent.frames <- fr0 :: parent.frames;
  ignore (call f [ fp; sh; red ]);
  parent.frames <- List.tl parent.frames;
  member_done sess fr0;
  if !remaining > 0 then
    Des.suspend sess.des (fun wake -> parent_wake := Some wake);
  (* region end: outstanding explicit tasks complete before the region
     is left (the runtime has every member drain its deque; here the
     encountering thread stands in for the team) *)
  wait_team_tasks sess team;
  join_task_finals team parent.vc;
  (* join: the parent happens-after every child's last event *)
  List.iter (fun cvc -> Vc.join parent.vc cvc) !child_finals;
  Vc.tick parent.vc parent.gid

(* --------------------------- locks -------------------------------- *)

let lock_of sess name =
  match Hashtbl.find_opt sess.locks name with
  | Some lv -> lv
  | None ->
      let lv = (Des.Smutex.create sess.des, Vc.create ()) in
      Hashtbl.add sess.locks name lv;
      lv

let acquire sess ts ~lname (m, lvc) =
  pause sess ts;
  note sess ts ~obj:(Dpor.Olock lname) ~kind:Dpor.Kacquire;
  Des.Smutex.lock m;
  Vc.join ts.vc lvc

let release ts (m, lvc) =
  Vc.join lvc ts.vc;
  Vc.tick ts.vc ts.gid;
  Des.Smutex.unlock m

(* Atomic reduction cells synchronise like a per-cell lock: loads
   acquire, combines acquire and release. *)
let af_vc sess a =
  match List.find_opt (fun (x, _) -> x == a) sess.af with
  | Some (_, v) -> v
  | None ->
      let v = Vc.create () in
      sess.af <- (a, v) :: sess.af;
      v

let ai_vc sess a =
  match List.find_opt (fun (x, _) -> x == a) sess.ai with
  | Some (_, v) -> v
  | None ->
      let v = Vc.create () in
      sess.ai <- (a, v) :: sess.ai;
      v

let atomic_sync ts cvc ~combine =
  Vc.join ts.vc cvc;
  if combine then begin
    Vc.join cvc ts.vc;
    Vc.tick ts.vc ts.gid
  end

(* ------------------------ builtin interception -------------------- *)

let is_combine fname =
  String.length fname > 21
  && String.sub fname 0 21 = "__omp_atomic_combine_"

let inclusive_hi ~step ~incl ub = if incl = 1 then
    (if step > 0 then ub + 1 else ub - 1)
  else ub

let on_builtin sess ~call fname args : V.t option =
  match cur_tstate sess with
  | None -> None
  | Some ts ->
      let it = V.to_int in
      (match fname, args with
       | "__kmpc_fork_call", [ V.VFun f; fp; sh; red; nt ] ->
           let requested =
             match it nt with
             | 0 -> (icvs_of ts).Omprt.Icv.nthreads
             | n -> max 1 n
           in
           fork sess ts ~call ~f ~fp ~sh ~red ~requested;
           Some V.VUnit
       | "__kmpc_barrier", [] ->
           barrier sess ts;
           Some V.VUnit
       | "__kmpc_for_static_init", [ lb; ub; step; incl ] ->
           let lo = it lb and step = it step in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let nth, tid, _ = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           (match Omprt.Ws.static_block ~tid ~nthreads:nth ~trips with
            | Some (b, e) ->
                Some
                  (V.VStruct
                     [ ("has", V.VBool true);
                       ("lower", V.VInt (lo + (b * step)));
                       ("upper", V.VInt (lo + ((e - 1) * step))) ])
            | None ->
                Some
                  (V.VStruct
                     [ ("has", V.VBool false); ("lower", V.VInt 0);
                       ("upper", V.VInt 0) ]))
       | "__kmpc_for_static_fini", [] -> Some V.VUnit
       | "__kmpc_static_chunked_init", [ lb; ub; step; chunk; incl ] ->
           let lo = it lb and step = it step and chunk = max 1 (it chunk) in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let nth, tid, _ = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           let chunks =
             List.map
               (fun (b, e) -> (lo + (b * step), lo + ((e - 1) * step)))
               (Omprt.Ws.static_chunks ~tid ~nthreads:nth ~trips ~chunk)
           in
           Some (V.VDispatch (V.Chunked (ref chunks)))
       | ( ("__kmpc_dispatch_init_dynamic" | "__kmpc_dispatch_init_guided"
           | "__kmpc_dispatch_init_runtime"),
           [ lb; ub; step; chunk; incl ] ) ->
           let lo = it lb and step = it step and chunk = max 1 (it chunk) in
           let hi = inclusive_hi ~step ~incl:(it incl) (it ub) in
           let sched =
             match fname with
             | "__kmpc_dispatch_init_dynamic" -> Omp_model.Sched.Dynamic chunk
             | "__kmpc_dispatch_init_guided" -> Omp_model.Sched.Guided chunk
             | _ -> Omp_model.Sched.Runtime
           in
           let nth, _, fro = ctx ts in
           let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
           let d =
             match fro with
             | None ->
                 let kind, chunk = Omprt.Kmpc.dispatch_kind trips 1 sched in
                 Omprt.Ws.Dispatch.create ~kind ~trips ~chunk ~nthreads:1
             | Some fr ->
                 let epoch = fr.loop_epoch in
                 fr.loop_epoch <- epoch + 1;
                 (match Hashtbl.find_opt fr.team.dispatchers epoch with
                  | Some d -> d
                  | None ->
                      let kind, chunk =
                        Omprt.Kmpc.dispatch_kind trips nth sched
                      in
                      let d =
                        Omprt.Ws.Dispatch.create ~kind ~trips ~chunk
                          ~nthreads:nth
                      in
                      Hashtbl.add fr.team.dispatchers epoch d;
                      d)
           in
           Some
             (V.VDispatch
                (V.Shared
                   { Omprt.Kmpc.d; lo; step; home = None; drained = false }))
       | "__kmpc_dispatch_next", [ V.VDispatch disp ] ->
           (* perturb the claim order, then use the shared engine *)
           pause sess ts;
           (match disp with
            | V.Shared { Omprt.Kmpc.d; _ } ->
                note sess ts ~obj:(Dpor.Odispatch d) ~kind:Dpor.Kacquire
            | _ -> ());
           None
       | "__kmpc_critical", [ V.VStr name ] ->
           acquire sess ts ~lname:name (lock_of sess name);
           Some V.VUnit
       | "__kmpc_end_critical", [ V.VStr name ] ->
           release ts (lock_of sess name);
           Some V.VUnit
       | "__kmpc_atomic_begin", [] ->
           acquire sess ts ~lname:"<atomic>" sess.atomic_lock;
           Some V.VUnit
       | "__kmpc_atomic_end", [] ->
           release ts sess.atomic_lock;
           Some V.VUnit
       | "__kmpc_single", [] ->
           (match ts.frames with
            | [] -> Some (V.VBool true)
            | fr :: _ ->
                let e = fr.single_seen in
                fr.single_seen <- e + 1;
                (* which thread claims a single is schedule-sensitive:
                   the claim is a visible contended op *)
                pause sess ts;
                note sess ts ~obj:(Dpor.Osingle (fr.team.uid, e))
                  ~kind:Dpor.Kacquire;
                if Hashtbl.mem fr.team.single_claims e then
                  Some (V.VBool false)
                else begin
                  Hashtbl.add fr.team.single_claims e ();
                  Some (V.VBool true)
                end)
       | "__kmpc_end_single", [] -> Some V.VUnit
       | "__kmpc_omp_task", [ V.VFun f; fp; sh ] ->
           (match ts.frames with
            | fr :: _ when fr.team.size > 1 ->
                let team = fr.team in
                (* creation is a visible scheduling point, and the task
                   body happens-after it: the child vthread starts from
                   a copy of the creator's clock *)
                pause sess ts;
                Vc.tick ts.vc ts.gid;
                let cvc = Vc.copy ts.vc in
                fr.children_live <- fr.children_live + 1;
                team.task_live <- team.task_live + 1;
                let ticvs = Omprt.Icv.copy fr.icvs in
                Des.spawn sess.des (fun () ->
                    let vt = Des.self sess.des in
                    let child =
                      { gid = vt.Des.id; vc = cvc; base_icvs = ticvs;
                        frames = [] }
                    in
                    Vc.tick child.vc child.gid;
                    register sess child;
                    let cfr = new_frame team ~tid:fr.tid ticvs in
                    child.frames <- [ cfr ];
                    ignore (call f [ fp; sh ]);
                    (* completion: publish the final clock to the
                       creator and the team, and reopen the gates this
                       was the last outstanding task of — the creator's
                       taskwait, then the team's region end and
                       barrier *)
                    let final = Vc.copy child.vc in
                    fr.children_live <- fr.children_live - 1;
                    fr.children_finals <- final :: fr.children_finals;
                    team.task_live <- team.task_live - 1;
                    team.task_finals <- final :: team.task_finals;
                    let at = Des.now sess.des in
                    if at > team.bar_max then team.bar_max <- at;
                    (match fr.taskwait with
                     | Some wake when fr.children_live = 0 ->
                         fr.taskwait <- None;
                         wake ~at
                     | _ -> ());
                    if team.task_live = 0 then begin
                      let ws = team.task_waiters in
                      team.task_waiters <- [];
                      List.iter (fun wake -> wake ~at) ws;
                      if team.bar_blocked <> []
                         && List.length team.bar_blocked + team.done_members
                            >= team.size
                      then release_barrier team
                    end);
                (* separate the creator's later events from the spawn *)
                Vc.tick ts.vc ts.gid
            | fr :: _ ->
                (* serialised team: undeferred, in its own ICV frame *)
                let cfr =
                  new_frame ~single_seen:fr.single_seen
                    ~loop_epoch:fr.loop_epoch fr.team ~tid:fr.tid
                    (Omprt.Icv.copy fr.icvs)
                in
                ts.frames <- cfr :: ts.frames;
                Fun.protect
                  ~finally:(fun () -> ts.frames <- List.tl ts.frames)
                  (fun () -> ignore (call f [ fp; sh ]))
            | [] ->
                (* outside any region: undeferred, on its own copy of
                   the initial task's frame, as
                   {!Omprt.Team.run_orphan_task} runs it *)
                let saved = ts.base_icvs in
                ts.base_icvs <- Omprt.Icv.copy saved;
                Fun.protect
                  ~finally:(fun () -> ts.base_icvs <- saved)
                  (fun () -> ignore (call f [ fp; sh ])));
           Some V.VUnit
       | "__kmpc_omp_taskwait", [] ->
           (match ts.frames with
            | fr :: _ ->
                pause sess ts;
                (* only the last outstanding child's completion wakes
                   this frame's waiter *)
                if fr.children_live > 0 then
                  Des.suspend sess.des (fun wake -> fr.taskwait <- Some wake);
                (* child bodies happen-before taskwait return *)
                List.iter (fun fvc -> Vc.join ts.vc fvc) fr.children_finals;
                fr.children_finals <- [];
                Vc.tick ts.vc ts.gid
            | [] -> Vc.tick ts.vc ts.gid);
           Some V.VUnit
       | "__kmpc_copyprivate_put", [ v ] ->
           (match ts.frames with
            | fr :: _ ->
                Hashtbl.replace sess.cp_slots
                  (fr.team.uid, fr.single_seen - 1)
                  (v, Vc.copy ts.vc)
            | [] -> sess.orphan_cp <- Some v);
           Some V.VUnit
       | "__kmpc_copyprivate_get", [] ->
           let missing () =
             raise
               (V.Runtime_error
                  "__kmpc_copyprivate_get: no pending broadcast")
           in
           (match ts.frames with
            | fr :: _ ->
                (match
                   Hashtbl.find_opt sess.cp_slots
                     (fr.team.uid, fr.single_seen - 1)
                 with
                 | Some (v, pvc) ->
                     (* broadcast → consumers happens-before edge *)
                     Vc.join ts.vc pvc;
                     Some v
                 | None -> missing ())
            | [] ->
                (match sess.orphan_cp with
                 | Some v -> Some v
                 | None -> missing ()))
       | "__omp_get_thread_num", [] ->
           let _, tid, _ = ctx ts in
           Some (V.VInt tid)
       | "__omp_atomic_load", [ V.VAtomicF a ] ->
           pause sess ts;
           note sess ts ~obj:(Dpor.Oatomf a) ~kind:Dpor.Kload;
           atomic_sync ts (af_vc sess a) ~combine:false;
           None
       | "__omp_atomic_load", [ V.VAtomicI a ] ->
           pause sess ts;
           note sess ts ~obj:(Dpor.Oatomi a) ~kind:Dpor.Kload;
           atomic_sync ts (ai_vc sess a) ~combine:false;
           None
       | _, (V.VAtomicF a :: _) when is_combine fname ->
           pause sess ts;
           note sess ts ~obj:(Dpor.Oatomf a) ~kind:Dpor.Kcombine;
           atomic_sync ts (af_vc sess a) ~combine:true;
           None
       | _, (V.VAtomicI a :: _) when is_combine fname ->
           pause sess ts;
           note sess ts ~obj:(Dpor.Oatomi a) ~kind:Dpor.Kcombine;
           atomic_sync ts (ai_vc sess a) ~combine:true;
           None
       | "print", [ _ ] -> Some V.VUnit  (* checked runs print nothing *)
       | _ -> None)

let on_omp sess meth args : V.t option =
  match cur_tstate sess with
  | None -> None
  | Some ts ->
      let nth, tid, _ = ctx ts in
      (match meth, args with
       | "get_thread_num", [] -> Some (V.VInt tid)
       | "get_num_threads", [] -> Some (V.VInt nth)
       | "get_max_threads", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.nthreads)
       | "set_num_threads", [ v ] ->
           (* the calling task's frame only — never the session *)
           let n = V.to_int v in
           if n > 0 then (icvs_of ts).Omprt.Icv.nthreads <- n;
           Some V.VUnit
       | "get_num_procs", [] -> Some (V.VInt sess.nthreads)
       | "in_parallel", [] ->
           Some
             (V.VBool (List.exists (fun f -> f.team.size > 1) ts.frames))
       | "get_level", [] -> Some (V.VInt (List.length ts.frames))
       | "get_active_level", [] -> Some (V.VInt (active_levels ts))
       | "get_ancestor_thread_num", [ v ] ->
           let depth = List.length ts.frames in
           let lvl = V.to_int v in
           Some
             (V.VInt
                (if lvl < 0 || lvl > depth then -1
                 else if lvl = 0 then 0
                 else (List.nth ts.frames (depth - lvl)).tid))
       | "get_team_size", [ v ] ->
           let depth = List.length ts.frames in
           let lvl = V.to_int v in
           Some
             (V.VInt
                (if lvl < 0 || lvl > depth then -1
                 else if lvl = 0 then 1
                 else (List.nth ts.frames (depth - lvl)).team.size))
       | "get_thread_limit", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.thread_limit)
       | "get_max_active_levels", [] ->
           Some (V.VInt (icvs_of ts).Omprt.Icv.max_active_levels)
       | "set_max_active_levels", [ v ] ->
           let n = V.to_int v in
           if n >= 0 then
             (icvs_of ts).Omprt.Icv.max_active_levels <-
               min n Omprt.Icv.supported_active_levels;
           Some V.VUnit
       | "get_supported_active_levels", [] ->
           Some (V.VInt Omprt.Icv.supported_active_levels)
       | "get_dynamic", [] ->
           Some (V.VBool (icvs_of ts).Omprt.Icv.dynamic)
       | "set_dynamic", [ v ] ->
           (icvs_of ts).Omprt.Icv.dynamic <- V.to_bool v;
           Some V.VUnit
       | "get_wtime", [] -> Some (V.VFloat (Des.now sess.des *. 1e-9))
       | "get_wtick", [] -> Some (V.VFloat 1e-9)
       | _ -> None)

(* --------------------------- driving ------------------------------ *)

(** Run one DPOR-controlled execution: load the program with the hooks
    uninstalled (so global initialisation is untraced), install tracer
    + interceptor + virtual-thread TLS keying, execute [run prog] on
    virtual thread 0 and return its findings.  [ex]'s forced prefix
    decides the first scheduling points, then the default
    continuation; the events and backtrack candidates land in [ex].
    Hook installation is globally exclusive — the checker is
    single-domain by construction. *)
let run_controlled ~(load : unit -> Interp.program)
    ~(run : Interp.program -> unit) ~nthreads ~ex () : Report.finding list =
  let prog = load () in
  let des = Des.create () in
  let src = prog.Interp.ast.Zr.Ast.source in
  (* The virtual initial task inherits the real process ICVs (so the
     checker agrees with execution on max_active_levels, thread_limit,
     schedule...), with the configured team size as its nthreads-var. *)
  let initial_icvs = Omprt.Icv.copy Omprt.Icv.global in
  initial_icvs.Omprt.Icv.nthreads <- nthreads;
  let sess =
    { des; nthreads; initial_icvs; ctl = ex; nteams = 0;
      race = Race.create ~src ~dpor:ex;
      findings = []; threads = [||];
      locks = Hashtbl.create 8;
      atomic_lock = (Des.Smutex.create des, Vc.create ());
      af = []; ai = []; cp_slots = Hashtbl.create 8; orphan_cp = None }
  in
  Des.set_decide des (fun ids -> Dpor.decide ex ~enabled:ids);
  Rt.tracer := Some { Rt.trace = on_trace sess };
  Rt.escaped := [];
  B.interceptor :=
    Some { B.on_builtin = on_builtin sess; on_omp = on_omp sess };
  Rt.tls_key :=
    (fun () ->
      match sess.des.Des.current with
      | Some vt -> vt.Des.id
      | None -> 0);
  Fun.protect
    ~finally:(fun () ->
      Rt.tracer := None;
      Rt.escaped := [];
      B.interceptor := None;
      Rt.pending_op := None;
      Rt.tls_key := (fun () -> (Domain.self () :> int)))
    (fun () ->
      Des.spawn des (fun () ->
          let vt = Des.self des in
          let ts =
            { gid = vt.Des.id; vc = Vc.create ();
              base_icvs = sess.initial_icvs; frames = [] }
          in
          Vc.tick ts.vc ts.gid;
          register sess ts;
          run prog);
      (try ignore (Des.run des) with
       | Des.Deadlock msg ->
           sess.findings <-
             Report.error ~detail:("dpor: " ^ msg) :: sess.findings
       | V.Runtime_error msg ->
           sess.findings <-
             Report.error ~detail:("dpor: " ^ msg) :: sess.findings
       | Zr.Source.Error msg ->
           sess.findings <-
             Report.error ~detail:("dpor: " ^ msg) :: sess.findings));
  Race.findings sess.race @ sess.findings
