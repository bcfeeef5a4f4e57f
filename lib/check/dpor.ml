(** Dynamic partial-order reduction over the cooperative checker.

    This module is how the checker explores interleavings, and it does
    so systematically.  An execution is driven by a {e decision
    sequence}: at every scheduling point the controlled {!Sim.Des}
    scheduler asks {!decide} which runnable virtual thread to resume.
    Because the interpreter, the cooperative runtime and
    the virtual-thread ids are all deterministic functions of that
    sequence, replaying a recorded prefix of decisions reproduces the
    execution exactly — re-execution seeding instead of state
    snapshotting.

    During a run the checker reports every visible operation: data
    reads and writes reach the {!Race} detector, which keeps the only
    per-location table and stamps each event with its decision index
    ({!data_step}); lock-style acquisitions (critical sections, the
    atomic statement lock, [single] claims, shared dynamic-dispatch
    claims) and atomic reduction-cell operations reach {!record}.  From
    the trace the engine computes {e backtrack candidates} — (decision
    index, thread) pairs at which running a different thread could
    reorder two dependent operations:

    - two data accesses to the same location by different threads, at
      least one a write, {e not} ordered by happens-before — exactly the
      pairs the race detector reports, which it hands over through
      {!backtrack} (pairs ordered by fork/join/barrier/lock edges cannot
      be reordered by scheduling, so they generate no candidates);
    - two acquisitions of the same lock object by different threads
      (always reorderable, whatever the clocks say: the lock itself is
      the only order between them);
    - an atomic combine against an atomic load of the same cell.
      Combine/combine pairs commute (the cells are only ever updated
      through associative-commutative reductions), so they are treated
      as independent — the observability optimisation that keeps
      atomic-counter programs from exploding.

    Each candidate becomes a new prefix: the trace's decisions up to
    the earlier event, then the other thread.  {!explore} drains the
    frontier lowest-preemption-count first, so when the execution
    budget bites, every interleaving within the preemption bound has
    been tried before any wilder one — a principled bounded search
    rather than luck.  An empty frontier is a {e complete} verdict for
    the reduced interleaving space; a spent budget is {e bounded}.

    Soundness caveats (see DESIGN.md): completeness is relative to the
    checker's happens-before model and to the cooperative runtime's
    determinism — FIFO lock hand-off fixes the order of already-blocked
    waiters (contention order is still explored at the
    pause-before-acquire point), and values read are those of the Zr
    interpreter, not a weak-memory semantics (Du et al.'s formal C/OpenMP
    semantics is the reference for which executions are candidates;
    everything explored here is sequentially consistent). *)

(* ------------------------- growable vectors ----------------------- *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let length v = v.n

  let push v x =
    if v.n = Array.length v.a then begin
      let c = Array.make (max 8 (2 * v.n)) x in
      Array.blit v.a 0 c 0 v.n;
      v.a <- c
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i =
    if i < 0 || i >= v.n then invalid_arg "Dpor.Vec.get";
    v.a.(i)
end

(* ----------------------------- events ----------------------------- *)

(** Kinds of synchronising operations, by dependence behaviour:
    [Kacquire] is a lock-style acquisition (conflicts with the previous
    acquisition of the same object regardless of clocks); [Kcombine] is
    a commuting atomic reduction update (conflicts with loads only);
    [Kload] is an atomic read (conflicts with combines).  Data accesses
    are not recorded here: the {!Race} detector tracks them. *)
type kind = Kacquire | Kcombine | Kload

(** Synchronisation object identity: atomic cells and dispatchers
    physically, locks and [single] claims by name. *)
type obj =
  | Olock of string                       (* criticals, the atomic lock *)
  | Oatomf of Omprt.Atomics.Float.t
  | Oatomi of Omprt.Atomics.Int.t
  | Odispatch of Omprt.Ws.Dispatch.t
  | Osingle of int * int                  (* team uid, single epoch *)

type evt = { e_gid : int; e_clk : int; e_step : int }

type objstate = {
  mutable ow : evt option;   (* last write / acquire / combine *)
  mutable oreads : evt list; (* latest read per thread since [ow] *)
}

(* --------------------------- executions --------------------------- *)

type exec = {
  prefix : int array;            (* forced decisions, then free running *)
  choices : int Vec.t;           (* decision log: chosen thread per step *)
  enabled : int list Vec.t;      (* runnable set offered at each step *)
  switches : bool Vec.t;         (* step was a preemption of a runnable
                                    previous thread *)
  mutable last : int;            (* previously chosen thread, -1 at start *)
  mutable diverged : bool;       (* prefix replay failed — determinism bug *)
  (* per-object tables of the synchronising operations *)
  named : (string, objstate) Hashtbl.t;
  mutable atf : (Omprt.Atomics.Float.t * objstate) list;
  mutable ati : (Omprt.Atomics.Int.t * objstate) list;
  mutable disp : (Omprt.Ws.Dispatch.t * objstate) list;
  cands : (int * int, unit) Hashtbl.t;  (* decision index, thread to force *)
}

let new_exec ~prefix =
  { prefix;
    choices = Vec.create ();
    enabled = Vec.create ();
    switches = Vec.create ();
    last = -1;
    diverged = false;
    named = Hashtbl.create 16;
    atf = []; ati = []; disp = [];
    cands = Hashtbl.create 32 }

(* [List.mem] on thread ids without the polymorphic comparison. *)
let rec mem_id (id : int) = function
  | [] -> false
  | x :: rest -> x = id || mem_id id rest

(** The scheduling decision: replay the forced prefix while it lasts,
    then default to staying on the current thread (minimising
    preemptions, which keeps the first execution of every prefix inside
    the preemption-bound frontier), falling back to the lowest runnable
    id.  [enabled] arrives sorted from {!Sim.Des}. *)
let decide ex ~enabled =
  let n = Vec.length ex.choices in
  let chosen =
    if n < Array.length ex.prefix && mem_id ex.prefix.(n) enabled then
      ex.prefix.(n)
    else begin
      if n < Array.length ex.prefix then ex.diverged <- true;
      if ex.last >= 0 && mem_id ex.last enabled then ex.last
      else List.hd enabled
    end
  in
  Vec.push ex.choices chosen;
  Vec.push ex.enabled enabled;
  Vec.push ex.switches
    (ex.last >= 0 && chosen <> ex.last && mem_id ex.last enabled);
  ex.last <- chosen;
  chosen

let diverged ex = ex.diverged

(* ------------------------ object-state lookup --------------------- *)

let fresh_state () = { ow = None; oreads = [] }

let state_of ex (o : obj) : objstate =
  match o with
  | Olock name ->
      let key = "lock:" ^ name in
      (match Hashtbl.find_opt ex.named key with
       | Some s -> s
       | None ->
           let s = fresh_state () in
           Hashtbl.add ex.named key s;
           s)
  | Osingle (team, epoch) ->
      let key = Printf.sprintf "single:%d:%d" team epoch in
      (match Hashtbl.find_opt ex.named key with
       | Some s -> s
       | None ->
           let s = fresh_state () in
           Hashtbl.add ex.named key s;
           s)
  | Oatomf a ->
      (match List.find_opt (fun (x, _) -> x == a) ex.atf with
       | Some (_, s) -> s
       | None ->
           let s = fresh_state () in
           ex.atf <- (a, s) :: ex.atf;
           s)
  | Oatomi a ->
      (match List.find_opt (fun (x, _) -> x == a) ex.ati with
       | Some (_, s) -> s
       | None ->
           let s = fresh_state () in
           ex.ati <- (a, s) :: ex.ati;
           s)
  | Odispatch d ->
      (match List.find_opt (fun (x, _) -> x == d) ex.disp with
       | Some (_, s) -> s
       | None ->
           let s = fresh_state () in
           ex.disp <- (d, s) :: ex.disp;
           s)

(* ------------------------ backtrack candidates -------------------- *)

(** A backtrack candidate: an operation by [gid] depends on, and may
    be reordered with, one that ran at decision [step] (for data
    accesses, a racing pair the {!Race} detector found).  Force [gid]
    at [step] if it was runnable there — the replayed prefix is
    identical up to [step], so the enabled set is too; when it was not
    (e.g. not yet spawned), fall back to every other thread runnable at
    [step]: conservative, as in the original Flanagan–Godefroid
    formulation. *)
let backtrack ex ~step:s ~gid =
  if s >= 0 && s < Vec.length ex.enabled then begin
    let there = Vec.get ex.enabled s in
    let chosen_there = Vec.get ex.choices s in
    let tids =
      if mem_id gid there then [ gid ]
      else List.filter (fun t -> t <> chosen_there) there
    in
    List.iter
      (fun q ->
        if q <> chosen_there then Hashtbl.replace ex.cands (s, q) ())
      tids
  end

let debug = Sys.getenv_opt "ZIGOMP_DPOR_DEBUG" <> None

let log ex ~gid ~vc kind =
  if debug then
    Printf.eprintf "[dpor] step=%d gid=%d clk=%d %s\n%!"
      (Vec.length ex.choices - 1) gid (Vc.get vc gid) kind

(** A data access by thread [gid]: the decision index that resumed it
    (the latest one), which the {!Race} detector stamps on the access's
    event. *)
let data_step ex ~gid ~vc ~rw =
  log ex ~gid ~vc (match rw with `R -> "r" | `W -> "w");
  Vec.length ex.choices - 1

let kind_s = function Kacquire -> "a" | Kcombine -> "c" | Kload -> "l"

(** Record a synchronising operation by thread [gid] whose vector clock
    is [vc], at the decision index that resumed it (the latest one).
    Updates the object's last-access state and adds backtrack
    candidates for every dependent prior operation. *)
let record ex ~gid ~(vc : Vc.t) ~(obj : obj) ~(kind : kind) =
  log ex ~gid ~vc (kind_s kind);
  let st = state_of ex obj in
  let e = { e_gid = gid; e_clk = Vc.get vc gid; e_step = Vec.length ex.choices - 1 } in
  let other (prior : evt) = prior.e_gid <> gid in
  let cand (prior : evt) = backtrack ex ~step:prior.e_step ~gid in
  (match kind with
   | Kacquire ->
       (* lock-ordered: the happens-before edge comes from the lock
          itself, so never filter by clocks *)
       (match st.ow with
        | Some w when other w -> cand w
        | _ -> ());
       List.iter (fun r -> if other r then cand r) st.oreads;
       st.ow <- Some e;
       st.oreads <- []
   | Kcombine ->
       (* commutes with other combines; conflicts with loads *)
       List.iter (fun r -> if other r then cand r) st.oreads;
       st.ow <- Some e;
       st.oreads <- []
   | Kload ->
       (match st.ow with
        | Some w when other w -> cand w
        | _ -> ());
       st.oreads <- e :: List.filter (fun r -> r.e_gid <> gid) st.oreads)

(* ----------------------- prefixes and preemptions ------------------ *)

(* A queued prefix: the parent execution's decision array is shared
   (never copied per candidate — traces run to hundreds of thousands
   of decisions) and the forced alternative is applied only when the
   prefix is actually popped for execution. *)
type pending = {
  p_choices : int array;  (* the parent trace's decisions, shared *)
  p_s : int;              (* backtrack index; -1 for the root prefix *)
  p_q : int;              (* thread forced at [p_s] *)
}

let root_pending = { p_choices = [||]; p_s = -1; p_q = -1 }

let materialize pd : int array =
  Array.init (pd.p_s + 1) (fun i ->
      if i = pd.p_s then pd.p_q else pd.p_choices.(i))

(* Deterministic rolling hash over decision prefixes, for the
   seen-prefix dedup: key of [choices[0..s-1] @ [q]] in O(1) from the
   per-execution prefix-hash array.  A collision silently drops one
   interleaving class — vanishingly unlikely with 63-bit mixing, and
   deterministic, so repeated runs still agree. *)
let mix h v = (h * 0x01000193 + v + 1) land max_int

(* Candidates from a finished execution: (pending, preemption count,
   dedup key), sorted for deterministic frontier insertion.  The
   preemption count of a prefix is the switches recorded along the
   reused decisions plus one when the forced decision itself preempts
   a still-runnable previous thread. *)
let harvest ex : (pending * int * int) list =
  if Hashtbl.length ex.cands = 0 then []
  else begin
    let n = Vec.length ex.choices in
    (* pre.(i) = switches among steps < i; hs.(i) = hash of choices < i *)
    let pre = Array.make (n + 1) 0 in
    let hs = Array.make (n + 1) 0x811c9dc5 in
    for i = 0 to n - 1 do
      pre.(i + 1) <- pre.(i) + (if Vec.get ex.switches i then 1 else 0);
      hs.(i + 1) <- mix hs.(i) (Vec.get ex.choices i)
    done;
    let choices = Array.init n (Vec.get ex.choices) in
    Hashtbl.fold
      (fun (s, q) () acc ->
        let forced_preempt =
          s > 0
          && q <> Vec.get ex.choices (s - 1)
          && mem_id (Vec.get ex.choices (s - 1)) (Vec.get ex.enabled s)
        in
        ( { p_choices = choices; p_s = s; p_q = q },
          pre.(s) + (if forced_preempt then 1 else 0),
          mix hs.(s) q )
        :: acc)
      ex.cands []
    (* deterministic frontier order whatever the hash order *)
    |> List.sort (fun (a, _, _) (b, _, _) ->
           compare (a.p_s, a.p_q) (b.p_s, b.p_q))
  end

(** The next prefixes this execution justifies, with their preemption
    counts, materialized — the unit-test window onto {!harvest}. *)
let candidate_prefixes ex : (int array * int) list =
  List.map (fun (pd, preempts, _) -> (materialize pd, preempts)) (harvest ex)

(* ---------------------------- exploration -------------------------- *)

type verdict =
  | Complete
      (** the frontier drained: every interleaving class of the reduced
          space was executed *)
  | Bounded of { within_bound_left : bool }
      (** the execution budget was hit; [within_bound_left] reports
          whether prefixes at or under the preemption bound were still
          pending (if not, the bound itself was searched exhaustively) *)

type stats = {
  executions : int;      (** executions actually run *)
  decisions : int;       (** scheduling decisions, over all executions *)
  racy_execs : int;      (** executions with at least one race finding *)
  diverged_execs : int;  (** prefix replays that failed — must be 0 *)
  verdict : verdict;
}

(** [explore ~max_execs ~preempt_bound ~run_one] — drive the DPOR
    search.  [run_one ex] must execute the program once under [ex]'s
    control (install {!decide} via [Sim.Des.set_decide], report visible
    operations via {!record}) and return that execution's findings.
    Returns the union of findings and the exploration statistics.

    The frontier is ordered by preemption count (FIFO among equals), so
    a spent budget still means every schedule within [preempt_bound]
    preemptions was preferred first; [Bounded { within_bound_left }]
    says whether any were left unexplored. *)
let explore ~max_execs ~preempt_bound
    ~(run_one : exec -> Report.finding list) :
    Report.finding list * stats =
  let frontier : pending Sim.Heap.t = Sim.Heap.create () in
  Sim.Heap.push frontier 0.0 root_pending;
  let seen = Hashtbl.create 64 in
  let findings = ref [] in
  let execs = ref 0 and racy = ref 0 and diverged = ref 0 in
  let decisions = ref 0 in
  let verdict = ref Complete in
  let rec loop () =
    if !execs >= max_execs then
      verdict :=
        Bounded
          { within_bound_left =
              (match Sim.Heap.peek_key frontier with
               | Some k -> k <= float_of_int preempt_bound
               | None -> false) }
    else
      match Sim.Heap.pop frontier with
      | None -> verdict := Complete
      | Some (_, pd) ->
          let ex = new_exec ~prefix:(materialize pd) in
          let fs = run_one ex in
          incr execs;
          decisions := !decisions + Vec.length ex.choices;
          if debug then
            Printf.eprintf
              "[dpor] exec=%d prefix=%d steps=%d cands=%d findings=%d\n%!"
              !execs (Array.length ex.prefix) (Vec.length ex.choices)
              (Hashtbl.length ex.cands) (List.length fs);
          if List.exists (fun (f : Report.finding) -> f.Report.kind = Report.Race) fs
          then incr racy;
          if ex.diverged then incr diverged;
          findings := fs @ !findings;
          List.iter
            (fun (pd, preempts, key) ->
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                Sim.Heap.push frontier (float_of_int preempts) pd
              end)
            (harvest ex);
          loop ()
  in
  loop ();
  let fs = List.rev !findings in
  let fs =
    if !diverged = 0 then fs
    else
      Report.error
        ~detail:
          (Printf.sprintf
             "dpor: %d of %d replayed prefixes diverged (nondeterministic \
              execution — exploration is unsound for this program)"
             !diverged !execs)
      :: fs
  in
  ( fs,
    { executions = !execs; decisions = !decisions; racy_execs = !racy;
      diverged_execs = !diverged; verdict = !verdict } )
