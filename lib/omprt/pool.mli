(** The hot-team worker pool behind [__kmpc_fork_call].

    libomp parks a persistent team of workers between parallel regions
    so that only the first fork pays for thread creation; this module
    reproduces that design on OCaml domains.  [OMP_NUM_THREADS - 1]
    workers are spawned lazily on the first pooled fork and parked with
    a bounded spin-then-block wait governed by {!Icv.t.wait_policy} /
    {!Icv.t.blocktime} ([OMP_WAIT_POLICY] / [ZIGOMP_BLOCKTIME]).

    One lease is outstanding at a time; {!Team.fork} acquires it for
    top-level regions — after applying the encountering task's
    [thread_limit] / [max_active_levels] ICVs to the team size — and
    falls back to spawn-per-fork for nested teams (counted in
    {!Profile.pool_stats}). *)

(** {2 Deferred tasks}

    The task representation and the per-worker work-stealing deques.
    The types live here, next to the workers that own the deques; the
    scheduling protocol (creation, claiming, drains at scheduling
    points) is in {!Team} and {!Kmpc}. *)

type tasknode = { live_children : int Atomic.t }
(** Per-task completion accounting: outstanding direct children.
    [taskwait] drains the current task's node to zero. *)

val fresh_tasknode : unit -> tasknode

type task = {
  t_run : unit -> unit;      (** the outlined task body *)
  t_icvs : Icv.t;            (** data-environment frame, copied at creation *)
  t_node : tasknode;         (** this task's own node (for its children) *)
  t_parent : tasknode;       (** decremented when this task completes *)
}

(** A Chase–Lev-style work-stealing deque of {!task}s: LIFO push/pop at
    the bottom for the single owner, FIFO CAS-arbitrated steals at the
    top for everyone else. *)
module Taskdeque : sig
  type t

  val create : unit -> t

  val push : t -> task -> unit
  (** Owner only. *)

  val pop : t -> task option
  (** Owner only; LIFO. *)

  val steal : t -> task option
  (** Any thread; FIFO. *)

  val size : t -> int
  (** Owner only; no atomic read-modify-write.  Concurrent steals may
      shrink the deque right after the read. *)

  val clear : t -> unit
  (** Reset to empty.  Only legal while no other thread can touch the
      deque (lease time / teardown). *)
end

type lease
(** Exclusive use of the pool's workers for one parallel region. *)

val task_deques : lease -> Taskdeque.t array
(** The member-indexed (tid 0 = the encountering thread) deque array
    for a pooled team: the master's persistent deque plus each leased
    worker's own, all cleared.  Like the workers themselves, the
    deques persist across leases — the hot-deque analogue of the hot
    team. *)

val acquire : nthreads:int -> lease option
(** Lease [nthreads - 1] hot workers, growing the pool as needed.
    [None] — the caller must spawn-per-fork — when the pool is
    disabled, busy, or domain creation fails. *)

val dispatch : lease -> (int -> unit) -> unit
(** Start the closure on every leased worker (thread ids
    [1 .. nthreads-1]) and return immediately; the caller runs thread
    0 itself.  Exceptions inside the closure are captured per worker
    and surfaced by {!await}. *)

val await : lease -> (int * exn) option
(** Wait for every dispatched closure to finish; the lowest-tid
    failure, if any.  Never raises. *)

val release : lease -> unit
(** Return the workers to the pool (they stay parked, hot). *)

val set_enabled : bool -> unit
(** Globally enable/disable pooled forking (used by the spawn-vs-pool
    ablation in the benchmark harness).  Disabling does not terminate
    already-parked workers. *)

val is_enabled : unit -> bool

val size : unit -> int
(** Number of persistent workers currently parked or leased. *)

val shutdown : unit -> unit
(** Terminate and join every worker.  Installed via [at_exit] on first
    spawn; safe to call more than once. *)
