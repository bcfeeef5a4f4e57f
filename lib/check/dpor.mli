(** Dynamic partial-order reduction for the cooperative checker.

    See the implementation header for the algorithm; DESIGN.md for the
    happens-before model and the soundness caveats. *)

(** Dependence class of a synchronising operation.  Data accesses are
    tracked by the {!Race} detector and reach the engine through
    {!data_step} and {!backtrack}. *)
type kind =
  | Kacquire   (** lock-style acquisition: critical, atomic statement
                   lock, [single] claim, shared dispatch claim *)
  | Kcombine   (** commuting atomic reduction update *)
  | Kload      (** atomic load — conflicts with combines *)

(** Object identity of a synchronising operation. *)
type obj =
  | Olock of string
  | Oatomf of Omprt.Atomics.Float.t
  | Oatomi of Omprt.Atomics.Int.t
  | Odispatch of Omprt.Ws.Dispatch.t
  | Osingle of int * int  (** team uid, single epoch *)

type exec
(** One controlled execution: the forced decision prefix, the decision
    log, the synchronisation objects' last-access state and the
    backtrack candidates harvested so far. *)

val new_exec : prefix:int array -> exec

val decide : exec -> enabled:int list -> int
(** The controlled scheduler's decision function: replays the forced
    prefix, then stays on the current thread when runnable, else the
    lowest runnable id.  Logs every decision.  [enabled] must be the
    sorted non-empty runnable set. *)

val record :
  exec -> gid:int -> vc:Vc.t -> obj:obj -> kind:kind -> unit
(** Record a synchronising operation of the current thread and derive
    backtrack candidates from dependent prior operations on the same
    object. *)

val data_step : exec -> gid:int -> vc:Vc.t -> rw:[ `R | `W ] -> int
(** The decision index a data access by the current thread [gid] lands
    on, for the race detector to stamp on its event.  Logs the access
    under [ZIGOMP_DPOR_DEBUG]. *)

val backtrack : exec -> step:int -> gid:int -> unit
(** A data access by [gid] races with a prior access made at decision
    [step]: add the backtrack candidate that reorders them. *)

val diverged : exec -> bool
(** A forced prefix failed to replay — a determinism violation. *)

val candidate_prefixes : exec -> (int array * int) list
(** The next prefixes this execution justifies, each with its
    preemption count; sorted for deterministic frontier insertion. *)

type verdict =
  | Complete
  | Bounded of { within_bound_left : bool }

type stats = {
  executions : int;
  decisions : int;  (** scheduling decisions, over all executions *)
  racy_execs : int;
  diverged_execs : int;
  verdict : verdict;
}

val explore :
  max_execs:int ->
  preempt_bound:int ->
  run_one:(exec -> Report.finding list) ->
  Report.finding list * stats
(** Drain the reduced interleaving space, lowest-preemption prefixes
    first, running at most [max_execs] executions. *)
