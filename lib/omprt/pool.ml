(** The hot-team worker pool behind [__kmpc_fork_call].

    libomp amortises thread startup by parking a persistent team of
    workers between parallel regions ("hot teams"): the first fork pays
    for thread creation, every later fork is a mailbox write and a
    wake-up.  Our {!Team.fork} used to pay [Domain.spawn]/[Domain.join]
    for every region, so fork/join cost scaled with domain creation.
    This module is the libomp-shaped fix: [OMP_NUM_THREADS - 1] domains
    spawned lazily on first fork, each parked on a private mailbox with
    a bounded spin-then-block wait (the [KMP_BLOCKTIME] analogue, see
    {!Icv.t.blocktime}), leased wholesale to one top-level region at a
    time.

    The pool serves only top-level regions; nested regions fall back to
    spawn-per-fork in {!Team.fork} (and are counted as such in
    {!Profile.pool_stats}).  Team sizing — including the
    [thread-limit-var] cap and serialisation beyond
    [max-active-levels-var] — happens in {!Team.fork} before the pool
    is consulted, so [acquire] sees only final sizes.  A single lease
    is outstanding at any
    moment — concurrent encountering threads race on one CAS and the
    losers fall back, which keeps every mailbox single-producer.

    Memory-safety of the mailboxes: the [slot] and [finished] fields
    are [Atomic.t], so a job published by the master happens-before the
    worker's read, and a result written by the worker happens-before
    the master's collection.  The condition variables only ever
    re-check those atomics, never carry data themselves. *)

(* ------------------------------------------------------------------ *)
(* Deferred tasks.  A task packages an outlined body with its data
   environment: the ICV frame snapshotted from the generating task at
   creation (the OpenMP inheritance rule, identical to what
   {!Team.fork} does for implicit tasks) and the parent/child links
   [taskwait] needs.  The types live here — next to the workers that
   will run them — so the per-worker deques below can be monomorphic
   and the {!Team}/{!Kmpc} layers above can share them without a
   dependency cycle.                                                   *)

(** Per-task completion accounting: one node per task (and per implicit
    task), counting its outstanding direct children.  [taskwait] spins
    this to zero; completion of a child decrements its parent's node. *)
type tasknode = { live_children : int Atomic.t }

let fresh_tasknode () = { live_children = Atomic.make 0 }

type task = {
  t_run : unit -> unit;      (** the outlined task body *)
  t_icvs : Icv.t;            (** data-environment frame, copied at creation *)
  t_node : tasknode;         (** this task's own node (for its children) *)
  t_parent : tasknode;       (** decremented when this task completes *)
}

(** A Chase–Lev-style work-stealing deque of {!task}s: the owning
    worker pushes and pops at the bottom (LIFO — depth-first on its own
    spawn tree, the cache-friendly order), thieves claim from the top
    (FIFO — the oldest, typically largest subtree).  Single owner, many
    thieves; the only synchronisation is the CAS on [top] that resolves
    steal/steal and steal/last-element-pop races.  The circular buffer
    grows by publishing a bigger copy through an [Atomic.t]: a thief
    holding the old buffer still reads valid cells, because live
    entries are copied at the same logical index and the owner never
    overwrites an unstolen slot (it would need [bottom - top > mask],
    which growth just excluded). *)
module Taskdeque = struct
  type buf = { arr : task option array; mask : int }

  type t = {
    top : int Atomic.t;     (* next index to steal *)
    bottom : int Atomic.t;  (* next index to push; owner-written *)
    buf : buf Atomic.t;
  }

  let create () =
    { top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make { arr = Array.make 64 None; mask = 63 } }

  (* Owner only. *)
  let push q tk =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    let bf = Atomic.get q.buf in
    let bf =
      if b - t > bf.mask then begin
        let n = 2 * (bf.mask + 1) in
        let arr = Array.make n None in
        for i = t to b - 1 do
          arr.(i land (n - 1)) <- bf.arr.(i land bf.mask)
        done;
        let nbf = { arr; mask = n - 1 } in
        Atomic.set q.buf nbf;
        nbf
      end
      else bf
    in
    bf.arr.(b land bf.mask) <- Some tk;
    Atomic.set q.bottom (b + 1)

  (* Owner only: LIFO pop from the bottom.  The reservation store of
     [bottom] before re-reading [top] is the classic Chase–Lev dance;
     the CAS on [top] arbitrates the final element against thieves. *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if t > b then begin
      Atomic.set q.bottom t;
      None
    end
    else begin
      let bf = Atomic.get q.buf in
      let x = bf.arr.(b land bf.mask) in
      if t = b then begin
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin bf.arr.(b land bf.mask) <- None; x end
        else None
      end
      else begin
        bf.arr.(b land bf.mask) <- None;
        x
      end
    end

  (* Any thread: FIFO steal from the top.  A failed CAS means another
     thief (or the owner's last-element pop) got there first. *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else begin
      let bf = Atomic.get q.buf in
      let x = bf.arr.(t land bf.mask) in
      if Atomic.compare_and_set q.top t (t + 1) then x else None
    end

  (* Owner only: two plain loads, no CAS.  Exact for the owner's own
     pushes and pops; a concurrent steal can make it stale, too high by
     the number of steals in flight. *)
  let size q = max 0 (Atomic.get q.bottom - Atomic.get q.top)

  (* Lease-time reset: only called while the deque's owner is parked
     and no region is live, so plain stores suffice. *)
  let clear q =
    let bf = Atomic.get q.buf in
    Array.fill bf.arr 0 (Array.length bf.arr) None;
    Atomic.set q.top 0;
    Atomic.set q.bottom 0
end

type cmd =
  | Idle                  (** mailbox empty — park *)
  | Run of (unit -> unit) (** one region's work for this worker *)
  | Quit                  (** process exit: drain and terminate *)

type worker = {
  slot : cmd Atomic.t;
  m : Mutex.t;
  cv : Condition.t;            (* master -> worker: mailbox filled *)
  finished : bool Atomic.t;
  done_m : Mutex.t;
  done_cv : Condition.t;       (* worker -> master: job complete *)
  mutable failure : exn option;
  (* written by the worker before [finished := true]; the atomic store
     publishes it to the master *)
  mutable domain : unit Domain.t option;
  deque : Taskdeque.t;
  (* this worker's task deque, persistent across leases like the
     worker itself (the hot-deque analogue of the hot team: the grown
     buffer stays warm between regions) *)
}

type lease = { nworkers : int }

(* ------------------------------------------------------------------ *)
(* Pool state.  [busy] serialises leases; [lock] guards growth and
   shutdown of the worker array.                                       *)

let enabled = Atomic.make true
let busy = Atomic.make false
let lock = Mutex.create ()
let workers : worker array ref = ref [||]
let shutdown_installed = ref false

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let size () = Array.length !workers

(* ------------------------------------------------------------------ *)
(* Worker side.                                                        *)

(** Spin-then-block wait for the next mailbox command.  The spin budget
    is re-read from the ICVs on every park so [ZIGOMP_BLOCKTIME] /
    [omp_set_*] style adjustments take effect immediately. *)
let next_cmd w =
  let rec spin n =
    match Atomic.get w.slot with
    | Idle ->
        if n > 0 then begin
          Domain.cpu_relax ();
          spin (n - 1)
        end
        else begin
          Profile.pool_tick Profile.Pool_block_park;
          Mutex.lock w.m;
          let rec block () =
            match Atomic.get w.slot with
            | Idle -> Condition.wait w.cv w.m; block ()
            | c -> c
          in
          let c = block () in
          Mutex.unlock w.m;
          c
        end
    | c ->
        Profile.pool_tick Profile.Pool_spin_park;
        c
  in
  spin Icv.global.blocktime

let rec worker_loop w =
  match next_cmd w with
  | Quit -> ()
  | Idle -> worker_loop w
  | Run f ->
      Atomic.set w.slot Idle;
      (match f () with
       | () -> w.failure <- None
       | exception e -> w.failure <- Some e);
      Atomic.set w.finished true;
      Mutex.lock w.done_m;
      Condition.signal w.done_cv;
      Mutex.unlock w.done_m;
      worker_loop w

let make_worker () =
  { slot = Atomic.make Idle;
    m = Mutex.create ();
    cv = Condition.create ();
    finished = Atomic.make true;
    done_m = Mutex.create ();
    done_cv = Condition.create ();
    failure = None;
    domain = None;
    deque = Taskdeque.create () }

(* The encountering thread is tid 0 of every pooled team; its deque is
   as persistent as the lease discipline (one outstanding lease) makes
   the master unique. *)
let master_deque = Taskdeque.create ()

(** The member-indexed deque array for a pooled team: tid 0 is the
    master's persistent deque, tids 1.. are the leased workers' own.
    Cleared here — the owners are parked or (for the master) calling
    us, so no region is concurrently touching them. *)
let task_deques { nworkers } =
  Array.init (nworkers + 1) (fun i ->
      let dq = if i = 0 then master_deque else !workers.(i - 1).deque in
      Taskdeque.clear dq;
      dq)

(* ------------------------------------------------------------------ *)
(* Master side.                                                        *)

let shutdown () =
  Mutex.lock lock;
  let ws = !workers in
  workers := [||];
  Mutex.unlock lock;
  Array.iter
    (fun w ->
      Atomic.set w.slot Quit;
      Mutex.lock w.m;
      Condition.signal w.cv;
      Mutex.unlock w.m)
    ws;
  Array.iter
    (fun w -> match w.domain with Some d -> Domain.join d | None -> ())
    ws

(* Grow the pool to [n] workers.  Only called with the lease held, so
   the array cannot change under a dispatching master; the mutex is for
   the (at-exit) shutdown path. *)
let ensure n =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) @@ fun () ->
  let cur = Array.length !workers in
  if n > cur then begin
    if not !shutdown_installed then begin
      shutdown_installed := true;
      at_exit shutdown
    end;
    workers :=
      Array.init n (fun i ->
          if i < cur then !workers.(i)
          else begin
            let w = make_worker () in
            w.domain <- Some (Domain.spawn (fun () -> worker_loop w));
            Profile.pool_tick Profile.Pool_worker_spawned;
            w
          end)
  end

(** [acquire ~nthreads] — lease [nthreads - 1] hot workers, spawning
    any that do not exist yet.  [None] when the pool is disabled,
    another lease is outstanding, or domain creation fails — all of
    which the caller answers with spawn-per-fork.  [nthreads] is the
    final team size: {!Team.fork} has already applied the encountering
    task's [thread_limit] and [max_active_levels] ICVs. *)
let acquire ~nthreads =
  let nw = nthreads - 1 in
  if nw <= 0 || not (Atomic.get enabled) then None
  else if not (Atomic.compare_and_set busy false true) then None
  else
    match ensure nw with
    | () ->
        Profile.pool_tick Profile.Pool_fork_served;
        Some { nworkers = nw }
    | exception _ ->
        Atomic.set busy false;
        None

(** [dispatch lease f] — start [f tid] on the leased workers, thread
    ids [1 .. nworkers]; returns immediately (the caller runs tid 0
    itself, then {!await}s). *)
let dispatch { nworkers } f =
  let ws = !workers in
  for i = 0 to nworkers - 1 do
    let w = ws.(i) in
    let tid = i + 1 in
    Atomic.set w.finished false;
    Atomic.set w.slot (Run (fun () -> f tid));
    Mutex.lock w.m;
    Condition.signal w.cv;
    Mutex.unlock w.m
  done

(** [await lease] — wait (spin-then-block, same budget as the workers)
    for every dispatched job to finish; the lowest-tid failure, if
    any.  Never raises. *)
let await { nworkers } =
  let ws = !workers in
  let failure = ref None in
  for i = 0 to nworkers - 1 do
    let w = ws.(i) in
    let rec spin n =
      if Atomic.get w.finished then ()
      else if n > 0 then begin
        Domain.cpu_relax ();
        spin (n - 1)
      end
      else begin
        Mutex.lock w.done_m;
        while not (Atomic.get w.finished) do
          Condition.wait w.done_cv w.done_m
        done;
        Mutex.unlock w.done_m
      end
    in
    spin Icv.global.blocktime;
    (match w.failure with
     | Some e when !failure = None -> failure := Some (i + 1, e)
     | _ -> ())
  done;
  !failure

let release (_ : lease) = Atomic.set busy false
