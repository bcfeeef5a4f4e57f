(** Thread teams and the per-thread execution context.

    A team is created by each [__kmpc_fork_call] (the lowering target for
    a [parallel] pragma) and lives for the duration of the region.  Worker
    threads are OCaml domains — persistent hot-team workers leased from
    {!module:Pool} for top-level regions, freshly spawned domains for
    nested or oversized ones; the encountering thread becomes thread 0 of
    the new team, as the OpenMP execution model requires.  The current
    context is carried in domain-local storage so that [omp_get_thread_num]
    and friends work from arbitrary call depth, and contexts form a chain
    through [parent] to support nested regions.

    Every context also carries its task's ICV frame ({!Icv.t}),
    snapshotted from the encountering task's frame at fork: this is the
    OpenMP data-environment model, under which [omp_set_num_threads]
    inside a region affects only the calling thread's later forks —
    never its siblings, and never a concurrent top-level region.
    {!fork} enforces two of those ICVs itself: [thread_limit] caps the
    contention group (the chain of teams grown from one initial task),
    and regions nested beyond [max_active_levels] are serialised to a
    team of one, running inline with no domain spawned at all. *)

type t = {
  team_id : int;
  nthreads : int;
  barrier : Barrier.t;
  (* Dispatchers for dynamic/guided loops, keyed by loop epoch: the N-th
     dispatch loop a thread enters uses the dispatcher at key N.  Keeping
     a table rather than a single slot lets [nowait] loops overlap — a
     fast thread may initialise loop N+1 while slow ones still drain
     loop N, which is what libomp's dispatch buffers are for. *)
  dispatchers : (int, Ws.Dispatch.t) Hashtbl.t;
  dispatch_mutex : Mutex.t;
  (* The most recently created dispatcher, published as (epoch, d) so
     that the other team members joining the same loop can find it with
     one atomic load instead of taking [dispatch_mutex] — the
     double-checked fast path of {!Kmpc.dispatch_init}.  Lagging
     threads (overlapping [nowait] loops) miss here and fall back to
     the locked table lookup. *)
  latest_dispatch : (int * Ws.Dispatch.t) option Atomic.t;
  (* Monotone counter of [single] constructs already claimed (see
     {!Kmpc.single}). *)
  single_epoch : int Atomic.t;
  (* Per-construct reduction scratch: index -> boxed accumulator.  Used by
     the generated code path; the high-level API keeps its own state. *)
  reduce_mutex : Mutex.t;
  (* Deferred tasking: one work-stealing deque per member (tid-indexed;
     pooled teams alias the persistent per-worker deques in {!Pool}),
     and the count of tasks created but not yet finished — the quantity
     barriers and region ends drain to zero, making them task
     scheduling points. *)
  deques : Pool.Taskdeque.t array;
  task_live : int Atomic.t;
  (* copyprivate broadcast slots, keyed by the single epoch that filled
     them: the claiming thread of [single copyprivate(...)] publishes
     its packed values here before the construct's implied barrier, and
     every teammate reads them after it. *)
  cp_slots : (int, Obj.t) Hashtbl.t;
  cp_mutex : Mutex.t;
}

and ctx = {
  team : t;
  tid : int;
  parent : ctx option;
  mutable icvs : Icv.t;
  (** the *current* task's ICV frame on this thread: the implicit
      task's (inherited from the encountering task at fork) except
      while an explicit task runs, deferred or inline, when the task's
      own frame is swapped in; [Api.set_*] mutates this and nothing
      else *)
  mutable task_node : Pool.tasknode;
  (** the current task's completion node — children spawned here hang
      off it, and [taskwait] drains it to zero; swapped alongside
      [icvs] during explicit-task execution *)
  mutable in_task : bool;
  (** an explicit task is running on this thread (swapped alongside
      [icvs]); only such a task may run its new children inline *)
  active_levels : int;
  (** enclosing *active* regions, self included (teams of > 1 thread) —
      the value [max_active_levels] is checked against at the next fork *)
  group_threads : int;
  (** threads this contention-group chain has committed so far (the
      path through the enclosing teams); [fork] caps new teams so this
      never exceeds [thread_limit] *)
  mutable loop_epoch : int;   (** this thread's count of dispatch loops entered *)
  mutable single_seen : int;  (** this thread's count of single constructs *)
  mutable spawned : int;
  mutable undeferred : int;
  (** tasks this member created, and those of them it ran inline:
      plain counts, since every spawn would otherwise bump the same two
      process-wide words from every domain; {!fork} adds them to
      {!Profile}'s totals when the member leaves the region *)
}

let next_team_id = Atomic.make 0

let create_team ?deques nthreads =
  let deques =
    match deques with
    | Some d -> d
    | None -> Array.init nthreads (fun _ -> Pool.Taskdeque.create ())
  in
  { team_id = Atomic.fetch_and_add next_team_id 1;
    nthreads;
    barrier = Barrier.create nthreads;
    dispatchers = Hashtbl.create 8;
    dispatch_mutex = Mutex.create ();
    latest_dispatch = Atomic.make None;
    single_epoch = Atomic.make 0;
    reduce_mutex = Mutex.create ();
    deques;
    task_live = Atomic.make 0;
    cp_slots = Hashtbl.create 8;
    cp_mutex = Mutex.create () }

(* ------------------------------------------------------------------ *)
(* Current context, in domain-local storage.                           *)

let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get key

let set_current c = Domain.DLS.set key c

(* The initial task's frame on this thread: {!Icv.global}, except
   while an explicit task created outside every region runs, when that
   task's own copy is swapped in (see {!run_orphan_task}). *)
let initial_icvs : Icv.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Icv.global)

(** The current task's ICV frame: the innermost context's, or the
    initial task's outside any region. *)
let icvs () =
  match current () with
  | None -> Domain.DLS.get initial_icvs
  | Some c -> c.icvs

(** Thread id within the innermost enclosing parallel region (0 outside
    any region, matching [omp_get_thread_num]). *)
let thread_num () =
  match current () with None -> 0 | Some c -> c.tid

(** Team size of the innermost region (1 outside). *)
let num_threads () =
  match current () with None -> 1 | Some c -> c.team.nthreads

(** [true] iff any enclosing region is active (a team of more than one
    thread) — a serialised nested region inside an active one still
    reports [true], as [omp_in_parallel] specifies. *)
let in_parallel () =
  let rec walk = function
    | None -> false
    | Some c -> c.team.nthreads > 1 || walk c.parent
  in
  walk (current ())

let level () =
  let rec depth acc = function
    | None -> acc
    | Some c -> depth (acc + 1) c.parent
  in
  depth 0 (current ())

(** Number of enclosing *active* regions ([omp_get_active_level]). *)
let active_level () =
  match current () with None -> 0 | Some c -> c.active_levels

(* The context [lvl] nesting levels deep (1 = outermost region), from
   the innermost context at depth [depth]. *)
let rec ctx_at_level ~depth lvl c =
  if depth = lvl then Some c
  else
    match c.parent with
    | None -> None
    | Some p -> ctx_at_level ~depth:(depth - 1) lvl p

(** [omp_get_ancestor_thread_num level]: the thread number of this
    thread's ancestor at [level] (0 = the initial task, always thread
    0; the current level returns the current thread id); [-1] when
    [level] is negative or beyond the current nesting depth. *)
let ancestor_thread_num lvl =
  let depth = level () in
  if lvl < 0 || lvl > depth then -1
  else if lvl = 0 then 0
  else
    match current () with
    | None -> -1
    | Some c ->
        (match ctx_at_level ~depth lvl c with
         | Some a -> a.tid
         | None -> -1)

(** [omp_get_team_size level]: the size of the team at [level] (level 0
    — the initial implicit team — has size 1); [-1] out of range. *)
let team_size lvl =
  let depth = level () in
  if lvl < 0 || lvl > depth then -1
  else if lvl = 0 then 1
  else
    match current () with
    | None -> -1
    | Some c ->
        (match ctx_at_level ~depth lvl c with
         | Some a -> a.team.nthreads
         | None -> -1)

(* ------------------------------------------------------------------ *)
(* Deferred tasks: creation, claiming, and the scheduling points.      *)

(** Claim a task for [c]'s thread: LIFO from its own deque first (the
    depth-first order that keeps a spawn tree hot in cache), then FIFO
    steals round-robin from its teammates. *)
let try_get_task (c : ctx) =
  let dq = c.team.deques in
  let n = Array.length dq in
  match Pool.Taskdeque.pop dq.(c.tid) with
  | Some _ as t ->
      Profile.task_tick Profile.Task_local_pop;
      t
  | None ->
      let rec go k =
        if k >= n then None
        else
          match Pool.Taskdeque.steal dq.((c.tid + k) mod n) with
          | Some _ as t ->
              Profile.task_tick Profile.Task_steal;
              t
          | None -> go (k + 1)
      in
      go 1

(* Back from an explicit task: put the thread's own environment back
   and, for a deferred task, leave its parent's and the team's live
   counts (an inline one never entered them). *)
let finish_task (c : ctx) ~deferred (parent : Pool.tasknode) icvs node
    in_task =
  c.icvs <- icvs;
  c.task_node <- node;
  c.in_task <- in_task;
  if deferred then begin
    ignore (Atomic.fetch_and_add parent.Pool.live_children (-1));
    ignore (Atomic.fetch_and_add c.team.task_live (-1))
  end

(* Run task body [f] on [c]'s thread in the data environment
   [icvs]/[node], then {!finish_task} — even on a raise, which is then
   re-raised, so waiting teammates can never hang on a failed task. *)
let exec_task (c : ctx) ~deferred ~parent icvs node f =
  let saved_icvs = c.icvs and saved_node = c.task_node
  and saved_in = c.in_task in
  c.icvs <- icvs;
  c.task_node <- node;
  c.in_task <- true;
  match f () with
  | () -> finish_task c ~deferred parent saved_icvs saved_node saved_in
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish_task c ~deferred parent saved_icvs saved_node saved_in;
      Printexc.raise_with_backtrace e bt

(** Execute the deferred task [tk], claimed from a deque, on [c]'s
    thread. *)
let run_task (c : ctx) (tk : Pool.task) =
  exec_task c ~deferred:true ~parent:tk.Pool.t_parent tk.Pool.t_icvs
    tk.Pool.t_node tk.Pool.t_run

(** [spawn_task c f] — create a task whose data environment snapshots
    [c]'s current frame.  It runs undeferred, inline at the creation
    point, when deferring it would give no idle teammate anything new
    to steal: on a 1-thread team, or when an explicit task creates it
    while this thread's own deque already holds a task for each
    teammate ([nthreads - 1]).  An inline task skips the deque and both
    live counts — it completes before [spawn_task] returns, so neither
    its parent's [taskwait] nor a barrier can be waiting on it, and on a
    real team the enclosing deferred task keeps [task_live] positive
    throughout, so idle teammates keep stealing.  Otherwise it is
    deferred onto this thread's deque; tasks created by implicit tasks
    (region bodies, [single], taskloop generators) always are, since
    nothing would keep teammates stealing while they ran inline. *)
let spawn_task (c : ctx) (f : unit -> unit) =
  c.spawned <- c.spawned + 1;
  let nt = c.team.nthreads in
  if nt = 1
     || (c.in_task && Pool.Taskdeque.size c.team.deques.(c.tid) >= nt - 1)
  then begin
    c.undeferred <- c.undeferred + 1;
    exec_task c ~deferred:false ~parent:c.task_node (Icv.copy c.icvs)
      (Pool.fresh_tasknode ()) f
  end
  else begin
    let tk =
      { Pool.t_run = f;
        t_icvs = Icv.copy c.icvs;
        t_node = Pool.fresh_tasknode ();
        t_parent = c.task_node }
    in
    ignore (Atomic.fetch_and_add c.task_node.Pool.live_children 1);
    ignore (Atomic.fetch_and_add c.team.task_live 1);
    Pool.Taskdeque.push c.team.deques.(c.tid) tk
  end

(** [run_orphan_task f] — an explicit task created outside any region,
    by the initial task: there is no team to defer to, so it runs
    undeferred, on its own copy of the initial task's frame. *)
let run_orphan_task f =
  Profile.task_tick Profile.Task_spawned;
  Profile.task_tick Profile.Task_undeferred;
  let saved = Domain.DLS.get initial_icvs in
  Domain.DLS.set initial_icvs (Icv.copy saved);
  Fun.protect ~finally:(fun () -> Domain.DLS.set initial_icvs saved) f

(** Task scheduling point: execute/steal team tasks until none are
    live.  A task body that raises is noted (first failure wins) but
    the drain continues, so the team always quiesces; the caller
    re-raises after its synchronisation completes. *)
let task_drain (c : ctx) =
  if Atomic.get c.team.task_live = 0 then None
  else begin
    let failure = ref None in
    while Atomic.get c.team.task_live > 0 do
      match try_get_task c with
      | Some tk ->
          (try run_task c tk
           with e ->
             if !failure = None then
               failure := Some (e, Printexc.get_raw_backtrace ()))
      | None -> Domain.cpu_relax ()
    done;
    !failure
  end

(** [taskwait ()] — wait for the current task's direct children,
    executing any available team task while waiting (the taskwait
    scheduling point). *)
let taskwait () =
  match current () with
  | None -> ()
  | Some c ->
      let node = c.task_node in
      while Atomic.get node.Pool.live_children > 0 do
        match try_get_task c with
        | Some tk -> run_task c tk
        | None -> Domain.cpu_relax ()
      done

(* ------------------------------------------------------------------ *)
(* Fork/join.                                                          *)

exception Worker_failure of int * exn

(* The hot team: the team structure of the previous pooled region, kept
   so that back-to-back same-size regions recycle the barrier and clear
   (rather than reallocate) the dispatcher table — libomp's hot-team
   reuse.  Only touched while holding the pool lease, which serialises
   all pooled forks, so no extra lock is needed. *)
let hot_team : t option ref = ref None

let lease_team lease nt =
  match !hot_team with
  | Some team when team.nthreads = nt ->
      Hashtbl.reset team.dispatchers;
      (* a stale (epoch, d) would falsely match epoch 0 of the new
         region's first dispatch loop *)
      Atomic.set team.latest_dispatch None;
      Atomic.set team.single_epoch 0;
      (* tasks/broadcasts left behind by a region that failed mid-drain
         must not leak into this one *)
      Atomic.set team.task_live 0;
      Array.iter Pool.Taskdeque.clear team.deques;
      Hashtbl.reset team.cp_slots;
      Profile.pool_tick Profile.Pool_reuse_hit;
      team
  | _ ->
      let team = create_team ~deques:(Pool.task_deques lease) nt in
      hot_team := Some team;
      team

(* The cold path: one fresh domain per worker, joined at region end.
   Serves nested regions, oversized teams, and any fork the pool
   declined. *)
let spawn_fork nt (run : int -> unit -> unit) =
  let workers =
    Array.init (nt - 1) (fun i -> Domain.spawn (run (i + 1)))
  in
  let master_result =
    match run 0 () with
    | () -> Ok ()
    | exception e -> Error (0, e)
  in
  let failure = ref None in
  Array.iteri
    (fun i d ->
      match Domain.join d with
      | () -> ()
      | exception e -> if !failure = None then failure := Some (i + 1, e))
    workers;
  (match master_result with
   | Error (tid, e) -> raise (Worker_failure (tid, e))
   | Ok () -> ());
  match !failure with
  | Some (tid, e) -> raise (Worker_failure (tid, e))
  | None -> ()

(* The hot path: dispatch to the leased pool workers, run tid 0
   ourselves, collect.  Workers are always awaited — even when the
   master's own body raised — so the team structure is quiescent before
   the lease is released and the exception surfaces. *)
let pooled_fork lease (run : int -> unit -> unit) =
  Fun.protect ~finally:(fun () -> Pool.release lease) @@ fun () ->
  Pool.dispatch lease (fun tid -> run tid ());
  let master_result =
    match run 0 () with
    | () -> Ok ()
    | exception e -> Error (0, e)
  in
  let worker_failure = Pool.await lease in
  (match master_result with
   | Error (tid, e) -> raise (Worker_failure (tid, e))
   | Ok () -> ());
  match worker_failure with
  | Some (tid, e) -> raise (Worker_failure (tid, e))
  | None -> ()

(** [fork ?num_threads body] implements [__kmpc_fork_call]: create (or
    reuse) a team, run [body ~tid] on every member (thread 0 is the
    encountering thread), and join.

    The team size starts from the [num_threads] clause value or the
    encountering task's [nthreads-var], then the encountering task's
    ICV frame is enforced: a fork already inside [max_active_levels]
    active regions is *serialised* — the body runs inline on a team of
    one, no domain spawned (with [max_active_levels = 1], the default,
    nested regions run with 1 thread exactly as libomp) — and
    [thread_limit] caps the team so the contention group (this chain of
    nested teams) never exceeds it.

    Each team member's context carries a fresh copy of the
    encountering task's ICV frame (the OpenMP inheritance rule).

    Top-level regions are served by the persistent hot-team pool
    ({!module:Pool}); nested-and-active or pool-contended forks fall
    back to one [Domain.spawn] per worker.  An exception in any member
    — including the inline body of a serialised or 1-thread region —
    is re-raised in the encountering thread after all members have
    finished, wrapped in {!Worker_failure} with the failing thread id
    (the master's failure wins, then the lowest worker tid). *)
let fork ?num_threads (body : tid:int -> unit) =
  let parent = current () in
  let pframe =
    match parent with
    | None -> Domain.DLS.get initial_icvs
    | Some c -> c.icvs
  in
  let requested =
    match num_threads with
    | Some n when n > 0 -> n
    | Some _ -> invalid_arg "Team.fork: num_threads must be positive"
    | None -> pframe.Icv.nthreads
  in
  let active = match parent with None -> 0 | Some c -> c.active_levels in
  let group = match parent with None -> 1 | Some c -> c.group_threads in
  let serialised = requested > 1 && active >= pframe.Icv.max_active_levels in
  let nt =
    if serialised then 1
    else min requested (max 1 (pframe.Icv.thread_limit - group + 1))
  in
  if serialised then Profile.pool_tick Profile.Pool_serialised_fork;
  let run team tid () =
    let ctx =
      { team; tid; parent;
        icvs = Icv.copy pframe;
        task_node = Pool.fresh_tasknode ();
        in_task = false;
        active_levels = active + (if nt > 1 then 1 else 0);
        group_threads = group + (nt - 1);
        loop_epoch = 0; single_seen = 0; spawned = 0; undeferred = 0 }
    in
    set_current (Some ctx);
    Fun.protect
      ~finally:(fun () ->
        set_current parent;
        if ctx.spawned > 0 then begin
          Profile.task_add Profile.Task_spawned ctx.spawned;
          Profile.task_add Profile.Task_undeferred ctx.undeferred
        end)
      (fun () ->
        body ~tid;
        (* region-end task scheduling point: every member helps drain
           outstanding tasks before leaving, so the join implies all
           tasks of the region completed (the implicit-barrier rule) *)
        match task_drain ctx with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
  in
  if nt = 1 then
    (* the serial path presents the same error surface as the parallel
       ones: the inline body is "thread 0" of a team of one *)
    match run (create_team 1) 0 () with
    | () -> ()
    | exception e -> raise (Worker_failure (0, e))
  else
    match (if parent = None then Pool.acquire ~nthreads:nt else None) with
    | Some lease ->
        let team = lease_team lease nt in
        pooled_fork lease (run team)
    | None ->
        Profile.pool_tick Profile.Pool_fallback_fork;
        spawn_fork nt (run (create_team nt))

(** The team barrier for the current context; a no-op outside a region.
    A barrier is a task scheduling point: outstanding team tasks are
    drained before arrival, so no member passes while tasks are live —
    and a task failure is re-raised only after the barrier completes,
    so teammates are never stranded waiting for this member. *)
let barrier () =
  match current () with
  | None -> ()
  | Some c ->
      let fl = task_drain c in
      ignore (Barrier.wait c.team.barrier);
      (match fl with
       | Some (e, bt) -> Printexc.raise_with_backtrace e bt
       | None -> ())
