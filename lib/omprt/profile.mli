(** Runtime profiling — the paper's "further work" delivered: a
    gprof-style per-construct summary of where OpenMP time goes.

    Off by default (one atomic load per construct when disabled); safe
    to enable around parallel regions. *)

type construct =
  | Region          (** a whole [__kmpc_fork_call] *)
  | Barrier_wait
  | Critical_wait
  | Single_claim
  | Dispatch_claim  (** one [__kmpc_dispatch_next] *)
  | Static_loop     (** one [__kmpc_for_static_init] *)

val all_constructs : construct list

val construct_name : construct -> string

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero all aggregates. *)

val record : construct -> float -> unit
(** Record one completed construct of the given duration (seconds). *)

val timed : construct -> (unit -> 'a) -> 'a
(** Run the closure, attributing its duration when profiling is on. *)

val tick : construct -> unit
(** Count-only event. *)

type snapshot = {
  construct : construct;
  count : int;
  total : float;    (** seconds *)
  mean : float;
  slowest : float;
}

val snapshot : unit -> snapshot list
(** Aggregates recorded so far, constructs with zero count omitted. *)

val report : unit -> string
(** The rendered gprof-style table, sorted by total time, followed by
    the hot-team pool counters when the pool has seen any traffic. *)

(** {2 Hot-team pool statistics}

    Always-on counters (one fetch-and-add each; not gated on
    {!is_enabled}) fed by {!module:Pool} and {!module:Team}, so the
    pool's health is observable without enabling construct timing.
    Zeroed by {!reset}. *)

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

val pool_tick : pool_event -> unit

val pool_stats : unit -> pool_stats

val pool_report : unit -> string
(** The rendered one-paragraph pool-counter summary. *)

(** {2 Hybrid-barrier statistics}

    Always-on counters fed by {!module:Barrier}: how each barrier
    passage was satisfied — within the bounded spin, or by blocking on
    the condition variable.  Zeroed by {!reset}. *)

type barrier_event =
  | Barrier_spin_wait   (** passage completed within the spin budget *)
  | Barrier_block_wait  (** the waiter had to block on the condvar *)

type barrier_stats = {
  spin_waits : int;
  block_waits : int;
}

val barrier_tick : barrier_event -> unit

val barrier_stats : unit -> barrier_stats

val barrier_report : unit -> string
(** The rendered one-line barrier-counter summary. *)

(** {2 Bytecode-tier statistics}

    Always-on counters fed by the interpreter's register-bytecode tier:
    drain executions that entered bytecode, drain executions that
    bailed out to the closure tier (unsupported construct or shape
    mismatch), chunks that ran the guard-elided code variant, and
    native-loop entries whose trip was not proven in range, so they ran
    the checked do-while (a proven entry ticks nothing).  Zeroed by
    {!reset}; appended to {!report} when nonzero. *)

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

val bc_tick : bc_event -> unit

val bc_entered_tick : unit -> unit
val bc_bailout_tick : unit -> unit
val bc_elided_tick : unit -> unit

val bc_stats : unit -> bc_stats

val bc_report : unit -> string
(** The rendered one-line bytecode-tier summary. *)

(** {2 Tasking statistics}

    Always-on counters fed by {!module:Team}'s task scheduling: load
    balance across the work-stealing deques is observable (and
    testable) without enabling construct timing.  Zeroed by {!reset};
    appended to {!report} when any task was spawned. *)

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

val task_tick : task_event -> unit

val task_add : task_event -> int -> unit
(** [task_add e n] adds [n] to [e]'s counter at once.  A team member
    counts the tasks it spawns and runs undeferred in its own context,
    with no atomic, and adds them here when it leaves its region. *)

val task_stats : unit -> task_stats

val task_report : unit -> string
(** The rendered one-line tasking-counter summary. *)
