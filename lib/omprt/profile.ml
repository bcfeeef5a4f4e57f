(** Runtime profiling — the paper's "further work" delivered.

    The paper's section VI proposes instrumenting applications with
    profiler calls from inside the compiler, "providing functionality
    similar to that of gprof".  This module is that facility for our
    runtime: when enabled, every OpenMP construct the generated code
    executes is timed and aggregated per construct kind — parallel
    regions, barrier waits, critical-section waits, dispatch claims and
    single claims — and {!report} renders the gprof-style summary.

    Profiling is off by default and costs one atomic load per construct
    when disabled.  Aggregation uses the runtime's own atomics, so
    enabling it inside parallel regions is safe. *)

type construct =
  | Region          (** a whole [__kmpc_fork_call] *)
  | Barrier_wait
  | Critical_wait
  | Single_claim
  | Dispatch_claim  (** one [__kmpc_dispatch_next] *)
  | Static_loop     (** one [__kmpc_for_static_init] *)

let all_constructs =
  [ Region; Barrier_wait; Critical_wait; Single_claim; Dispatch_claim;
    Static_loop ]

let construct_name = function
  | Region -> "parallel region"
  | Barrier_wait -> "barrier wait"
  | Critical_wait -> "critical wait"
  | Single_claim -> "single claim"
  | Dispatch_claim -> "dispatch_next claim"
  | Static_loop -> "static loop init"

type agg = {
  count : Atomics.Int.t;
  total : Atomics.Float.t;  (* seconds *)
  slowest : Atomics.Float.t;
}

let fresh_agg () = {
  count = Atomics.Int.make 0;
  total = Atomics.Float.make 0.;
  slowest = Atomics.Float.make 0.;
}

let enabled = Atomic.make false

let aggs = List.map (fun c -> (c, fresh_agg ())) all_constructs

let agg_of c = List.assq c aggs

(* ------------------------------------------------------------------ *)
(* Hot-team pool statistics.  Unlike construct timings these are
   always-on counters: one fetch-and-add per fork is noise next to the
   fork itself, and the pool's health (did the workers persist? did the
   team get reused?) must be observable without enabling timing. *)

let pool_counters =
  let z () = Atomics.Int.make 0 in
  (z (), z (), z (), z (), z (), z (), z ())

(* Hybrid-barrier statistics: how each barrier passage was satisfied —
   during the bounded spin, or by blocking on the condition variable.
   Always-on for the same reason as the pool counters. *)
let barrier_counters = (Atomics.Int.make 0, Atomics.Int.make 0)

(* Bytecode-tier statistics: drain executions entering the register
   bytecode, drain executions bailing to the closure tier, chunks that
   ran the guard-elided code variant, and [loop] entries that ran the
   checked do-while because their trip was not proven in range.
   Always-on: tier selection must be observable (and testable) without
   enabling timing. *)
let bc_counters =
  (Atomics.Int.make 0, Atomics.Int.make 0, Atomics.Int.make 0,
   Atomics.Int.make 0)

(* Tasking statistics: tasks created, tasks run inline at the creation
   point (1-thread teams, outside regions, and nested tasks created
   while the creating thread's deque holds a task for each teammate),
   LIFO pops from the owner's own deque, and FIFO steals from a
   teammate's — every task is counted by exactly one of the last three.
   Always-on so load balance (did work actually migrate?) is observable
   — and testable — without enabling timing. *)
let task_counters =
  (Atomics.Int.make 0, Atomics.Int.make 0, Atomics.Int.make 0,
   Atomics.Int.make 0)

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let reset () =
  List.iter
    (fun (_, a) ->
      Atomics.Int.set a.count 0;
      Atomics.Float.set a.total 0.;
      Atomics.Float.set a.slowest 0.)
    aggs;
  let a, b, c, d, e, f, g = pool_counters in
  List.iter (fun cnt -> Atomics.Int.set cnt 0) [ a; b; c; d; e; f; g ];
  let s, bl = barrier_counters in
  Atomics.Int.set s 0;
  Atomics.Int.set bl 0;
  let be, bb, bg, bf = bc_counters in
  List.iter (fun cnt -> Atomics.Int.set cnt 0) [ be; bb; bg; bf ];
  let ts, tu, tp, tt = task_counters in
  Atomics.Int.set ts 0;
  Atomics.Int.set tu 0;
  Atomics.Int.set tp 0;
  Atomics.Int.set tt 0

(** Record one completed construct of duration [dt] seconds. *)
let record c dt =
  let a = agg_of c in
  Atomics.Int.add a.count 1;
  Atomics.Float.add a.total dt;
  Atomics.Float.max a.slowest dt

(** [timed c f] — run [f], attributing its duration to [c] when
    profiling is on. *)
let timed c f =
  if Atomic.get enabled then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> record c (Unix.gettimeofday () -. t0))
      f
  end
  else f ()

(** Count-only event (used where timing each claim would distort the
    measurement more than it is worth). *)
let tick c = if Atomic.get enabled then Atomics.Int.add (agg_of c).count 1

type pool_event =
  | Pool_fork_served     (** a fork dispatched through the hot team *)
  | Pool_worker_spawned  (** a persistent worker domain created *)
  | Pool_reuse_hit       (** a team structure recycled across regions *)
  | Pool_spin_park       (** a worker picked up work while spinning *)
  | Pool_block_park      (** a worker had to block on its condvar *)
  | Pool_fallback_fork   (** a fork served by spawn-per-fork instead *)
  | Pool_serialised_fork (** a fork serialised by [max_active_levels] *)

type pool_stats = {
  forks_served : int;
  workers_spawned : int;
  reuse_hits : int;
  spin_parks : int;
  block_parks : int;
  fallback_forks : int;
  serialised_forks : int;
}

let pool_counter = function
  | Pool_fork_served -> (let c, _, _, _, _, _, _ = pool_counters in c)
  | Pool_worker_spawned -> (let _, c, _, _, _, _, _ = pool_counters in c)
  | Pool_reuse_hit -> (let _, _, c, _, _, _, _ = pool_counters in c)
  | Pool_spin_park -> (let _, _, _, c, _, _, _ = pool_counters in c)
  | Pool_block_park -> (let _, _, _, _, c, _, _ = pool_counters in c)
  | Pool_fallback_fork -> (let _, _, _, _, _, c, _ = pool_counters in c)
  | Pool_serialised_fork -> (let _, _, _, _, _, _, c = pool_counters in c)

let pool_tick e = Atomics.Int.add (pool_counter e) 1

let pool_stats () =
  { forks_served = Atomics.Int.get (pool_counter Pool_fork_served);
    workers_spawned = Atomics.Int.get (pool_counter Pool_worker_spawned);
    reuse_hits = Atomics.Int.get (pool_counter Pool_reuse_hit);
    spin_parks = Atomics.Int.get (pool_counter Pool_spin_park);
    block_parks = Atomics.Int.get (pool_counter Pool_block_park);
    fallback_forks = Atomics.Int.get (pool_counter Pool_fallback_fork);
    serialised_forks = Atomics.Int.get (pool_counter Pool_serialised_fork) }

let pool_report () =
  let s = pool_stats () in
  Printf.sprintf
    "hot-team pool: %d forks served, %d workers spawned, %d team reuse \
     hits,\n               %d spin parks, %d block parks, %d fallback \
     (spawn-per-fork) forks,\n               %d forks serialised by \
     max_active_levels\n"
    s.forks_served s.workers_spawned s.reuse_hits s.spin_parks
    s.block_parks s.fallback_forks s.serialised_forks

type barrier_event =
  | Barrier_spin_wait   (** passage completed within the spin budget *)
  | Barrier_block_wait  (** the waiter had to block on the condvar *)

type barrier_stats = {
  spin_waits : int;
  block_waits : int;
}

let barrier_counter = function
  | Barrier_spin_wait -> fst barrier_counters
  | Barrier_block_wait -> snd barrier_counters

let barrier_tick e = Atomics.Int.add (barrier_counter e) 1

let barrier_stats () =
  { spin_waits = Atomics.Int.get (fst barrier_counters);
    block_waits = Atomics.Int.get (snd barrier_counters) }

let barrier_report () =
  let s = barrier_stats () in
  Printf.sprintf
    "hybrid barrier: %d spin waits, %d block waits\n"
    s.spin_waits s.block_waits

type bc_event =
  | Bc_entered       (** a drain execution ran on the bytecode tier *)
  | Bc_bailout       (** a drain execution fell back to closures *)
  | Bc_guard_elided  (** a chunk ran the guard-elided code variant *)
  | Bc_loop_fallback (** a [loop] entry ran the checked do-while *)

type bc_stats = {
  bc_entered : int;
  bc_bailouts : int;
  bc_guard_elided : int;
  bc_loop_fallbacks : int;
}

let bc_counter = function
  | Bc_entered -> (let c, _, _, _ = bc_counters in c)
  | Bc_bailout -> (let _, c, _, _ = bc_counters in c)
  | Bc_guard_elided -> (let _, _, c, _ = bc_counters in c)
  | Bc_loop_fallback -> (let _, _, _, c = bc_counters in c)

let bc_tick e = Atomics.Int.add (bc_counter e) 1

let bc_entered_tick () = bc_tick Bc_entered
let bc_bailout_tick () = bc_tick Bc_bailout
let bc_elided_tick () = bc_tick Bc_guard_elided

let bc_stats () =
  { bc_entered = Atomics.Int.get (bc_counter Bc_entered);
    bc_bailouts = Atomics.Int.get (bc_counter Bc_bailout);
    bc_guard_elided = Atomics.Int.get (bc_counter Bc_guard_elided);
    bc_loop_fallbacks = Atomics.Int.get (bc_counter Bc_loop_fallback) }

let bc_report () =
  let s = bc_stats () in
  Printf.sprintf
    "bytecode tier: %d drains entered, %d bailouts to closures, %d \
     guard-elided chunks, %d checked loop entries\n"
    s.bc_entered s.bc_bailouts s.bc_guard_elided s.bc_loop_fallbacks

type task_event =
  | Task_spawned    (** a task created ([__kmpc_omp_task]) *)
  | Task_undeferred
      (** …and executed inline at the creation point, skipping the
          deques: on 1-thread teams, outside any region, and — on any
          team size — when an explicit task creates it while its
          thread's deque holds a task for each teammate *)
  | Task_local_pop  (** a task claimed LIFO from the owner's deque *)
  | Task_steal      (** a task claimed FIFO from a teammate's deque *)

type task_stats = {
  tasks_spawned : int;
  tasks_undeferred : int;
  task_local_pops : int;
  task_steals : int;
}

let task_counter = function
  | Task_spawned -> (let c, _, _, _ = task_counters in c)
  | Task_undeferred -> (let _, c, _, _ = task_counters in c)
  | Task_local_pop -> (let _, _, c, _ = task_counters in c)
  | Task_steal -> (let _, _, _, c = task_counters in c)

let task_add e n = Atomics.Int.add (task_counter e) n

let task_tick e = task_add e 1

let task_stats () =
  { tasks_spawned = Atomics.Int.get (task_counter Task_spawned);
    tasks_undeferred = Atomics.Int.get (task_counter Task_undeferred);
    task_local_pops = Atomics.Int.get (task_counter Task_local_pop);
    task_steals = Atomics.Int.get (task_counter Task_steal) }

let task_report () =
  let s = task_stats () in
  Printf.sprintf
    "tasking: %d tasks spawned, %d undeferred, %d local pops, %d steals\n"
    s.tasks_spawned s.tasks_undeferred s.task_local_pops s.task_steals

type snapshot = {
  construct : construct;
  count : int;
  total : float;
  mean : float;
  slowest : float;
}

let snapshot () =
  List.filter_map
    (fun ((c : construct), (a : agg)) ->
      let count = Atomics.Int.get a.count in
      if count = 0 then None
      else
        let total = Atomics.Float.get a.total in
        Some
          { construct = c; count; total;
            mean = total /. float_of_int count;
            slowest = Atomics.Float.get a.slowest })
    aggs

(** The gprof-style table, followed by the pool counters when the pool
    has seen any traffic. *)
let report () =
  let rows = snapshot () in
  let table =
    if rows = [] then "profile: no OpenMP constructs recorded\n"
    else begin
      let b = Buffer.create 512 in
      Buffer.add_string b
        (Printf.sprintf "%-20s %10s %12s %12s %12s\n" "construct" "count"
           "total (s)" "mean (us)" "max (us)");
      List.iter
        (fun r ->
          Buffer.add_string b
            (Printf.sprintf "%-20s %10d %12.6f %12.2f %12.2f\n"
               (construct_name r.construct)
               r.count r.total (1e6 *. r.mean) (1e6 *. r.slowest)))
        (List.sort (fun a b -> compare b.total a.total) rows);
      Buffer.contents b
    end
  in
  let s = pool_stats () in
  let table =
    if s.forks_served + s.workers_spawned + s.fallback_forks
       + s.serialised_forks = 0 then table
    else table ^ pool_report ()
  in
  let bs = barrier_stats () in
  let table =
    if bs.spin_waits + bs.block_waits = 0 then table
    else table ^ barrier_report ()
  in
  let bc = bc_stats () in
  let table =
    if bc.bc_entered + bc.bc_bailouts + bc.bc_guard_elided
       + bc.bc_loop_fallbacks = 0
    then table
    else table ^ bc_report ()
  in
  let ts = task_stats () in
  if ts.tasks_spawned = 0 then table else table ^ task_report ()
