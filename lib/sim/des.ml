(** Discrete-event scheduler over cooperative virtual threads.

    Virtual threads are OCaml computations that interact with simulated
    time through effects: [Advance dt] charges [dt] seconds to the
    calling thread's clock, and [Suspend register] parks the thread until
    some other thread wakes it (barriers, mutexes).  The scheduler always
    resumes the runnable thread with the smallest clock (ties broken by
    spawn order), so every interaction with shared state happens in
    global time order and the whole simulation is deterministic.  In
    controlled mode ({!set_decide}) a hook picks the thread instead, at
    the same scheduling points.

    This is the substrate the simulated OpenMP runtime ({!module:Simrt})
    runs on; up to 128 virtual threads model the ARCHER2 node's cores on
    our single-core host. *)

type wake = at:float -> unit
(** Wake a suspended thread, lower-bounding its clock by [at]. *)

type _ Effect.t +=
  | Advance : float -> unit Effect.t
  | Suspend : (wake -> unit) -> unit Effect.t

type vthread = {
  id : int;
  mutable clock : float;
  mutable done_ : bool;
}

type t = {
  runq : (unit -> unit) Heap.t;  (* min-clock mode: runnable steps *)
  mutable current : vthread option;
  mutable spawned : int;
  mutable finished : int;
  mutable horizon : float;  (* max clock observed at completion points *)
  mutable decide : (int list -> int) option;
      (* controlled mode: pick the next thread from the runnable set *)
  (* Controlled mode keeps the runnable set itself instead of the heap:
     [runnable] holds the sorted ids of every thread that is neither
     suspended nor finished, the running one included, and is replaced
     only at spawn, suspend, wake and finish — so consecutive decisions
     are offered the same list.  [steps] holds each parked thread's
     next step by id; [chosen] is a switch already decided at an
     {!advance}, for {!pop_next} to take (-1 when none). *)
  mutable runnable : int list;
  mutable steps : (unit -> unit) array;
  mutable chosen : int;
}

exception Deadlock of string

let create () = {
  runq = Heap.create ();
  current = None;
  spawned = 0;
  finished = 0;
  horizon = 0.;
  decide = None;
  runnable = [];
  steps = [||];
  chosen = -1;
}

(** [set_decide t f] — switch the scheduler into controlled mode: at
    every scheduling point [f] receives the sorted ids of the runnable
    virtual threads and returns the one to resume, overriding the
    min-clock rule.  A thread is runnable iff it is neither suspended on
    a {!Suspend} registration nor finished; the set includes the running
    thread when it reaches an {!advance} (it may keep running) and
    excludes it when it suspends or finishes.  Used by the DPOR model
    checker to force and replay interleavings; everything else about
    the simulation (spawning, suspension, wake-ups, clocks) is
    unchanged.  Must be called before the first {!spawn}. *)
let set_decide t f =
  if t.spawned > 0 then invalid_arg "Des.set_decide: threads already spawned";
  t.decide <- Some f

let self t =
  match t.current with
  | Some vt -> vt
  | None -> invalid_arg "Des.self: no virtual thread is running"

let now t = (self t).clock

let idle () = ()

let rec insert id = function
  | x :: rest when x < id -> x :: insert id rest
  | l -> id :: l

(* [step] is [vt]'s next step, to be run when the scheduler picks it:
   queued by clock in min-clock mode, parked by id in controlled mode. *)
let park t vt step =
  match t.decide with
  | None -> Heap.push t.runq vt.clock step
  | Some _ ->
      if vt.id >= Array.length t.steps then begin
        let a = Array.make (max 8 (2 * vt.id)) idle in
        Array.blit t.steps 0 a 0 (Array.length t.steps);
        t.steps <- a
      end;
      t.steps.(vt.id) <- step

(* [vt], new or woken, becomes runnable with [step] as its next step. *)
let ready t vt step =
  park t vt step;
  if t.decide <> None then t.runnable <- insert vt.id t.runnable

(* [vt] stops being runnable (controlled mode). *)
let unready t vt =
  if t.decide <> None then
    t.runnable <- List.filter (fun id -> id <> vt.id) t.runnable

(* Run [step] (a fresh thread body) as [vt], handling its effects.  Every
   handler case re-enqueues or parks the continuation and returns control
   to the main loop; deep handlers persist, so later effects performed by
   the resumed continuation land back here. *)
let exec t vt (step : unit -> unit) =
  t.current <- Some vt;
  let open Effect.Deep in
  let resume k () =
    t.current <- Some vt;
    continue k ()
  in
  match_with step ()
    { retc = (fun () ->
          vt.done_ <- true;
          t.finished <- t.finished + 1;
          if vt.clock > t.horizon then t.horizon <- vt.clock;
          unready t vt);
      exnc = (fun e -> raise e);
      effc = (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Advance dt ->
              (* the thread stays runnable *)
              Some (fun (k : (a, unit) continuation) ->
                  vt.clock <- vt.clock +. dt;
                  park t vt (resume k))
          | Suspend register ->
              Some (fun (k : (a, unit) continuation) ->
                  unready t vt;
                  let woken = ref false in
                  register (fun ~at ->
                      if !woken then
                        invalid_arg "Des: thread woken twice";
                      woken := true;
                      if at > vt.clock then vt.clock <- at;
                      ready t vt (resume k)))
          | _ -> None) }

(** [spawn t ?at body] — create a virtual thread whose clock starts at
    [at] (default: the spawner's clock, or 0 outside any thread). *)
let spawn t ?at body =
  let start =
    match at, t.current with
    | Some x, _ -> x
    | None, Some vt -> vt.clock
    | None, None -> 0.
  in
  let vt = { id = t.spawned; clock = start; done_ = false } in
  t.spawned <- t.spawned + 1;
  ready t vt (fun () -> exec t vt body)

(* The next step to run: min-clock order normally; in controlled mode
   the thread a switching {!advance} chose, else the decide hook's pick
   among the runnable ids. *)
let pop_next t =
  match t.decide with
  | None -> Option.map snd (Heap.pop t.runq)
  | Some decide ->
      if t.runnable = [] then None
      else begin
        let chosen = if t.chosen >= 0 then t.chosen else decide t.runnable in
        t.chosen <- -1;
        if not (List.mem chosen t.runnable) then
          invalid_arg
            (Printf.sprintf
               "Des: scheduling decision chose thread %d, which is not \
                runnable" chosen);
        let step = t.steps.(chosen) in
        t.steps.(chosen) <- idle;
        Some step
      end

(** Drive the simulation until every spawned thread has finished.
    Returns the makespan (latest clock at any completion).  Raises
    {!Deadlock} if threads remain but none is runnable. *)
let run t =
  let rec loop () =
    match pop_next t with
    | Some step -> step (); loop ()
    | None ->
        if t.finished < t.spawned then
          raise (Deadlock
                   (Printf.sprintf
                      "Des.run: %d of %d virtual threads blocked forever"
                      (t.spawned - t.finished) t.spawned))
  in
  loop ();
  t.current <- None;
  t.horizon

(* ------------------------------------------------------------------ *)
(* Primitives for code running inside a virtual thread.                *)

(* A scheduling point of the running thread after charging [dt] > 0:
   the min-clock rule requeues it; in controlled mode the decide hook
   runs here, in place, and only a switch to another thread performs
   the effect (charging nothing more), leaving the choice to
   {!pop_next}. *)
let advance t dt =
  if dt > 0. then
    match t.decide with
    | None -> Effect.perform (Advance dt)
    | Some decide ->
        let vt = self t in
        vt.clock <- vt.clock +. dt;
        let chosen = decide t.runnable in
        if chosen <> vt.id then begin
          t.chosen <- chosen;
          Effect.perform (Advance 0.)
        end

let suspend _t register = Effect.perform (Suspend register)

(* ------------------------------------------------------------------ *)
(** Simulated barrier: all [size] participants block; the last arrival
    releases everyone at [max arrival clock + cost], where [cost] is
    supplied by the caller from the machine model. *)
module Sbarrier = struct
  type nonrec t = {
    des : t;
    size : int;
    mutable arrived : wake list;
    mutable max_clock : float;
  }

  let create des size =
    if size <= 0 then invalid_arg "Sbarrier.create";
    { des; size; arrived = []; max_clock = 0. }

  let wait b ~cost =
    if b.size = 1 then advance b.des cost
    else begin
      let vt = self b.des in
      if vt.clock > b.max_clock then b.max_clock <- vt.clock;
      if List.length b.arrived = b.size - 1 then begin
        (* last arrival: release everyone at the rendezvous time *)
        let release = b.max_clock +. cost in
        let waiters = b.arrived in
        b.arrived <- [];
        b.max_clock <- 0.;
        List.iter (fun wake -> wake ~at:release) (List.rev waiters);
        advance b.des (release -. vt.clock)
      end else
        suspend b.des (fun wake -> b.arrived <- wake :: b.arrived)
    end
end

(* ------------------------------------------------------------------ *)
(** Simulated mutex with FIFO handoff: a releasing thread passes the lock
    to the earliest waiter, whose clock is raised to the release time.
    Models [critical] serialisation. *)
module Smutex = struct
  type nonrec t = {
    des : t;
    mutable locked : bool;
    mutable free_at : float;  (* time the current holder will release *)
    waiters : wake Queue.t;
  }

  let create des = { des; locked = false; free_at = 0.; waiters = Queue.create () }

  (** [lock m] — acquire, advancing the caller's clock past any current
      holder.  The caller must later call {!unlock}. *)
  let lock m =
    let vt = self m.des in
    if not m.locked then begin
      m.locked <- true;
      if m.free_at > vt.clock then vt.clock <- m.free_at
    end else
      suspend m.des (fun wake -> Queue.push wake m.waiters)

  (** [unlock m] — release at the caller's current clock; the next waiter
      (if any) resumes no earlier than that. *)
  let unlock m =
    let vt = self m.des in
    m.free_at <- vt.clock;
    match Queue.take_opt m.waiters with
    | Some wake ->
        (* hand off: stays locked, waiter resumes at release time *)
        wake ~at:vt.clock
    | None ->
        m.locked <- false
end
