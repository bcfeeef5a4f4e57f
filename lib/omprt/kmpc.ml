(** The [__kmpc_*] entry points — the surface the preprocessor targets.

    These are the functions the paper's generated code calls (sections
    III-B and III-C): [__kmpc_fork_call] for parallel regions, the
    [__kmpc_for_static_*] family for static worksharing loops, and the
    [__kmpc_dispatch_*] family for dynamic/guided/runtime schedules, plus
    the synchronisation constructs.  Names drop the [__kmpc_] prefix
    because they already live in this module, matching how the paper
    namespaces them under [.omp.internal]. *)

open Omp_model

(* The num_threads value pushed by [__kmpc_push_num_threads] for the
   *next* fork on this thread, as libomp keeps it: consumed (and
   cleared) by the first [fork_call] that is not given an explicit team
   size. *)
let pushed_num_threads : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** [fork_call ?loc ?num_threads microtask arg] — run [microtask arg] on
    every thread of a team (hot-team pooled for top-level regions, see
    {!Team.fork}).  [arg] stands in for the opaque argument-group
    pointers ([?*anyopaque] in the paper's ABI); the caller packs
    firstprivate/shared/reduction groups into it.  Without an explicit
    [num_threads], a value pushed by {!push_num_threads} on this thread
    is consumed first, then the [nthreads-var] ICV applies. *)
let fork_call ?loc:_ ?num_threads (microtask : 'a -> unit) (arg : 'a) =
  let num_threads =
    match num_threads with
    | Some _ -> num_threads
    | None ->
        (match Domain.DLS.get pushed_num_threads with
         | None -> None
         | Some _ as pushed ->
             Domain.DLS.set pushed_num_threads None;
             pushed)
  in
  Profile.timed Profile.Region (fun () ->
      Team.fork ?num_threads (fun ~tid:_ -> microtask arg))

let global_thread_num ?loc:_ () = Team.thread_num ()

let barrier ?loc:_ () =
  Profile.timed Profile.Barrier_wait Team.barrier

(* ------------------------------------------------------------------ *)
(* Static worksharing: __kmpc_for_static_init / _fini.                 *)

(* The one place a [schedule(static, chunk)] clause value is validated;
   every static entry point routes through it so the error names the
   function the caller actually used. *)
let validate_chunk ~fn c =
  if c < 0 then invalid_arg (Printf.sprintf "Kmpc.%s: negative chunk" fn)

(** Result of {!for_static_init}: the caller's slice of the iteration
    space in *user* iteration values, with an inclusive upper bound and
    the stride to advance by between chunks — the same contract as
    libomp's [__kmpc_for_static_init_4].  [None] when this thread has no
    iterations. *)
type static_bounds = { lower : int; upper : int; stride : int }

(** [for_static_init ?chunk ~lo ~hi ~step ()] for the normalised loop
    [for i = lo; i < hi (or > for negative step); i += step].  Unchunked:
    one contiguous block per thread, [stride] spans the whole space (one
    pass).  Chunked: the thread starts at its [tid*chunk]-th iteration and
    must advance by [stride = chunk * nthreads * step] until past
    [hi]. *)
let for_static_init ?loc:_ ?chunk ~lo ~hi ~step () =
  Profile.tick Profile.Static_loop;
  let tid = Team.thread_num () and nth = Team.num_threads () in
  let trips = Ws.trip_count ~lo ~hi ~step () in
  match chunk with
  | None | Some 0 ->
      (match Ws.static_block ~tid ~nthreads:nth ~trips with
       | None -> None
       | Some (b, e) ->
           Some { lower = lo + (b * step);
                  upper = lo + ((e - 1) * step);
                  stride = (if trips = 0 then step else trips * step) })
  | Some c ->
      validate_chunk ~fn:"for_static_init" c;
      let first = tid * c in
      if first >= trips then None
      else
        let stop = min trips (first + c) in
        Some { lower = lo + (first * step);
               upper = lo + ((stop - 1) * step);
               stride = c * nth * step }

(** [__kmpc_for_static_fini]: bookkeeping only in libomp; here it simply
    validates that we are inside a region. *)
let for_static_fini ?loc:_ () = ignore (Team.current ())

(** Convenience used by generated code and the interpreter: run [body] on
    every chunk this thread owns under a static schedule, over the
    normalised range, then hit the joining barrier unless [nowait]. *)
let static_for ?loc ?chunk ?(nowait = false) ~lo ~hi ~step body =
  (match chunk with
   | None | Some 0 ->
       (match for_static_init ?loc ~lo ~hi ~step () with
        | None -> ()
        | Some { lower; upper; stride = _ } ->
            (* single block: iterate [lower..upper] by [step] *)
            let i = ref lower in
            if step > 0 then
              while !i <= upper do body !i; i := !i + step done
            else
              while !i >= upper do body !i; i := !i + step done)
   | Some c ->
       (* chunked: the canonical round-robin split ({!Ws}) mapped back
          to user iteration values — the same partition arithmetic the
          rest of the runtime uses, in place of a second hand-rolled
          implementation *)
       Profile.tick Profile.Static_loop;
       validate_chunk ~fn:"static_for" c;
       let tid = Team.thread_num () and nth = Team.num_threads () in
       let trips = Ws.trip_count ~lo ~hi ~step () in
       Ws.static_chunks_iter ~tid ~nthreads:nth ~trips ~chunk:c
         (fun b e ->
           let lower, _ = Ws.denormalise ~lo ~step (b, e) in
           let i = ref lower in
           for _ = b to e - 1 do
             body !i;
             i := !i + step
           done));
  for_static_fini ();
  if not nowait then barrier ()

(* ------------------------------------------------------------------ *)
(* Dynamic dispatch: __kmpc_dispatch_init / _next / _fini.             *)

(* [schedule(runtime)] resolves against the *encountering task's*
   [run-sched-var] — the frame inherited at fork, possibly overridden
   by this thread's own [omp_set_schedule] — not a process global. *)
let resolve_runtime_sched trips nthreads =
  match (Team.icvs ()).Icv.run_sched with
  | Sched.Dynamic c -> (Ws.Dispatch.Dyn, max 1 c)
  | Sched.Guided c -> (Ws.Dispatch.Gui, max 1 c)
  | Sched.Static (Some c) -> (Ws.Dispatch.Dyn, max 1 c)
  | Sched.Static None | Sched.Runtime | Sched.Auto ->
      (* Emulate a blocked static split through the dispatcher: equal
         blocks claimed first-come first-served. *)
      (Ws.Dispatch.Dyn, max 1 ((trips + nthreads - 1) / max 1 nthreads))

let dispatch_kind trips nthreads = function
  | Sched.Dynamic c -> (Ws.Dispatch.Dyn, max 1 c)
  | Sched.Guided c -> (Ws.Dispatch.Gui, max 1 c)
  | Sched.Runtime -> resolve_runtime_sched trips nthreads
  | Sched.Static c ->
      (Ws.Dispatch.Dyn,
       match c with
       | Some c -> max 1 c
       | None -> max 1 ((trips + nthreads - 1) / max 1 nthreads))
  | Sched.Auto -> (Ws.Dispatch.Dyn, max 1 ((trips + nthreads - 1) / max 1 nthreads))

(** Per-thread handle onto the team's shared dispatcher for one loop. *)
type dispatcher = {
  d : Ws.Dispatch.t;
  lo : int;
  step : int;
  (* Where the dispatcher is registered, for retirement: the owning
     team and the loop epoch it is keyed under ([None] for orphaned
     worksharing, which registers nothing). *)
  home : (Team.t * int) option;
  (* This handle already observed exhaustion and bumped [d.finished];
     handles are strictly per-thread, so a plain mutable suffices. *)
  mutable drained : bool;
}

(** [dispatch_init ?loc ~sched ~lo ~hi ~step ()] — join (or create) the
    team-wide dispatcher for this thread's next dispatch loop.  Mirrors
    [__kmpc_dispatch_init_4]: every team member calls it with identical
    bounds and schedule.  The common case — all threads entering the
    loop back-to-back — is served by one atomic load of the team's
    [latest_dispatch] slot; only the creating thread and threads
    lagging behind on an earlier [nowait] loop take [dispatch_mutex]. *)
let dispatch_init ?loc:_ ~sched ~lo ~hi ~step () =
  let trips = Ws.trip_count ~lo ~hi ~step () in
  let nth = Team.num_threads () in
  match Team.current () with
  | None ->
      (* Orphaned worksharing: a team of one. *)
      let kind, chunk = dispatch_kind trips 1 sched in
      { d = Ws.Dispatch.create ~kind ~trips ~chunk ~nthreads:1;
        lo; step; home = None; drained = false }
  | Some ctx ->
      let epoch = ctx.loop_epoch in
      ctx.loop_epoch <- ctx.loop_epoch + 1;
      let team = ctx.team in
      let d =
        match Atomic.get team.Team.latest_dispatch with
        | Some (e, d) when e = epoch -> d  (* fast path: no mutex *)
        | _ ->
            Mutex.lock team.dispatch_mutex;
            let d =
              (* double-check under the lock: another thread may have
                 created it between the atomic load and here *)
              match Hashtbl.find_opt team.dispatchers epoch with
              | Some d -> d
              | None ->
                  let kind, chunk = dispatch_kind trips nth sched in
                  let d =
                    Ws.Dispatch.create ~kind ~trips ~chunk ~nthreads:nth
                  in
                  Hashtbl.add team.dispatchers epoch d;
                  Atomic.set team.Team.latest_dispatch (Some (epoch, d));
                  d
            in
            Mutex.unlock team.dispatch_mutex;
            d
      in
      { d; lo; step; home = Some (team, epoch); drained = false }

(* Retire a fully drained dispatcher: once every team member has
   observed exhaustion, no thread will look this epoch up again (each
   already holds its handle), so the table entry — previously kept
   until team teardown/reuse — can go. *)
let retire (h : dispatcher) =
  match h.home with
  | None -> ()
  | Some (team, epoch) ->
      let fin = 1 + Atomic.fetch_and_add h.d.Ws.Dispatch.finished 1 in
      if fin = h.d.Ws.Dispatch.nthreads then begin
        Mutex.lock team.Team.dispatch_mutex;
        Hashtbl.remove team.Team.dispatchers epoch;
        (match Atomic.get team.Team.latest_dispatch with
         | Some (e, _) when e = epoch ->
             Atomic.set team.Team.latest_dispatch None
         | _ -> ());
        Mutex.unlock team.Team.dispatch_mutex
      end

(** [dispatch_next h] — claim the next chunk, as user-space inclusive
    bounds [(lower, upper)]; [None] when the loop is exhausted (the
    contract of [__kmpc_dispatch_next_4] returning 0).  The first
    exhausted claim per thread counts towards retiring the shared
    dispatcher from the team table. *)
let dispatch_next ?loc:_ (h : dispatcher) =
  Profile.tick Profile.Dispatch_claim;
  match Ws.Dispatch.next h.d with
  | None ->
      if not h.drained then begin
        h.drained <- true;
        retire h
      end;
      None
  | Some (b, e) ->
      Some (h.lo + (b * h.step), h.lo + ((e - 1) * h.step))

let dispatch_fini ?loc:_ (_ : dispatcher) = ()

(** Convenience wrapper from the paper's [.omp.internal] helpers: drain a
    dispatch loop, applying [body] to each iteration value. *)
let dispatch_for ?loc ?(nowait = false) ~sched ~lo ~hi ~step body =
  let h = dispatch_init ?loc ~sched ~lo ~hi ~step () in
  let rec drain () =
    match dispatch_next h with
    | None -> ()
    | Some (lower, upper) ->
        let i = ref lower in
        if step > 0 then
          while !i <= upper do body !i; i := !i + step done
        else
          while !i >= upper do body !i; i := !i + step done;
        drain ()
  in
  drain ();
  dispatch_fini h;
  if not nowait then barrier ()

(* ------------------------------------------------------------------ *)
(* Synchronisation constructs.                                         *)

let critical ?loc:_ ?name f =
  Profile.timed Profile.Critical_wait (fun () -> Lock.critical ?name f)

(** [master f] — run [f] on thread 0 only (no implied barrier). *)
let master ?loc:_ f = if Team.thread_num () = 0 then f ()

(** [single_begin ()] — claim this sequence point's [single] construct;
    [true] in exactly one thread of the team.  Uses the epoch counter
    scheme: the k-th single a thread meets is claimed by advancing the
    team's single epoch from k to k+1, which exactly one thread can do.
    This is the split form generated code uses ([__kmpc_single] /
    [__kmpc_end_single] in libomp). *)
let single_begin ?loc:_ () =
  match Team.current () with
  | None -> true
  | Some ctx ->
      let my_epoch = ctx.single_seen in
      ctx.single_seen <- ctx.single_seen + 1;
      let won =
        Atomic.compare_and_set ctx.team.single_epoch my_epoch (my_epoch + 1)
      in
      if won then Profile.tick Profile.Single_claim;
      won

let single_end ?loc:_ () = ()

(** [single ?nowait f] — run [f] on the first thread to arrive at this
    construct; implied barrier at the end unless [nowait].

    Exception safety: a raise inside the claimed body must not strand
    teammates at the implied barrier — the construct is still ended and
    the barrier still joined, then the failure re-raised so it surfaces
    as {!Team.Worker_failure} through the region join. *)
let single ?loc:_ ?(nowait = false) f =
  let failure = ref None in
  if single_begin () then begin
    (try f () with e ->
       failure := Some (e, Printexc.get_raw_backtrace ()));
    single_end ()
  end;
  if not nowait then barrier ();
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Deferred tasks: __kmpc_omp_task / __kmpc_omp_taskwait.              *)

(** [omp_task f] — create an explicit task running [f].  Inside a real
    team the task is deferred onto the encountering thread's
    work-stealing deque (teammates steal it at their scheduling
    points), unless an explicit task creates it while that deque holds
    a task for each teammate, when it runs inline at the creation point
    (see {!Team.spawn_task}).  On serialised/1-thread teams, and outside
    any region, it always runs undeferred.  Either way the task's data
    environment is a fresh copy of the generating task's ICV frame,
    exactly as {!Team.fork} snapshots frames for implicit tasks. *)
let omp_task ?loc:_ (f : unit -> unit) =
  match Team.current () with
  | Some ctx -> Team.spawn_task ctx f
  | None -> Team.run_orphan_task f

(** [omp_taskwait ()] — wait for the current task's direct children to
    complete, executing available team tasks while waiting (a task
    scheduling point, as in libomp). *)
let omp_taskwait ?loc:_ () = Team.taskwait ()

(* ------------------------------------------------------------------ *)
(* copyprivate: the broadcast half of [single copyprivate(list)].      *)

(* The claiming thread packs its private values and publishes them
   under the single epoch it claimed; after the construct's implied
   barrier (copyprivate forbids nowait) every teammate — claimer
   included — reads the packet back.  Epoch keying means back-to-back
   singles never collide, and the implied barrier supplies the
   happens-before edge from the claimer's write to every read. *)

let cp_epoch ctx =
  (* single_seen was incremented by the claim this broadcast belongs
     to, so the construct's epoch is the predecessor *)
  ctx.Team.single_seen - 1

(* Orphaned singles (outside any region) always claim; the broadcast is
   thread-to-itself.  Kept in DLS so concurrent initial threads cannot
   interfere. *)
let orphan_cp : Obj.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** [copyprivate_put v] — called by the thread whose {!single_begin}
    returned [true], before the implied barrier. *)
let copyprivate_put ?loc:_ (v : 'a) =
  match Team.current () with
  | None -> Domain.DLS.set orphan_cp (Some (Obj.repr v))
  | Some ctx ->
      let team = ctx.Team.team in
      Mutex.lock team.Team.cp_mutex;
      Hashtbl.replace team.Team.cp_slots (cp_epoch ctx) (Obj.repr v);
      Mutex.unlock team.Team.cp_mutex

(** [copyprivate_get ()] — called by every team member after the
    implied barrier; returns the packet the claimer put.  The claimer's
    own value round-trips, so callers need not special-case it. *)
let copyprivate_get ?loc:_ () : 'a =
  match Team.current () with
  | None ->
      (match Domain.DLS.get orphan_cp with
       | Some v -> Obj.obj v
       | None ->
           invalid_arg
             "Kmpc.copyprivate_get: no broadcast for this single construct")
  | Some ctx ->
      let team = ctx.Team.team in
      Mutex.lock team.Team.cp_mutex;
      let v = Hashtbl.find_opt team.Team.cp_slots (cp_epoch ctx) in
      Mutex.unlock team.Team.cp_mutex;
      (match v with
       | Some v -> Obj.obj v
       | None ->
           invalid_arg
             "Kmpc.copyprivate_get: no broadcast for this single construct")

(* The global lock behind the [atomic] directive's generic fallback
   (libomp's __kmpc_atomic_start/_end). *)
let atomic_lock = Mutex.create ()
let atomic_begin ?loc:_ () = Mutex.lock atomic_lock
let atomic_end ?loc:_ () = Mutex.unlock atomic_lock

(** [flush] — a sequentially-consistent fence.  OCaml's [Atomic] accesses
    are already SC, so an explicit fence via a dummy atomic suffices. *)
let flush_fence = Atomic.make 0
let flush ?loc:_ () = ignore (Atomic.get flush_fence)

(** [push_num_threads n] — the lowering of a [num_threads] clause:
    records the request for this thread's *next* {!fork_call}, exactly
    as libomp's [__kmpc_push_num_threads] does.  Also returns the
    clamped value for callers that pass it explicitly. *)
let push_num_threads ?loc:_ n =
  let n = max 1 n in
  Domain.DLS.set pushed_num_threads (Some n);
  n

(* ------------------------------------------------------------------ *)
(* Reductions: the __kmpc_reduce critical-path helpers.  The generated
   code from the paper instead passes atomic cells (Atomics module); this
   entry point provides the tree/critical fallback libomp also offers.   *)

(** [reduce ~combine] — serialise [combine] across the team (the
    critical-section reduction method of [__kmpc_reduce]); the joining
    barrier is the caller's responsibility, as in libomp. *)
let reduce ?loc:_ ~(combine : unit -> unit) () =
  Lock.critical ~name:".omp.reduction" combine
