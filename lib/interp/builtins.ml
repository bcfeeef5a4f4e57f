(** The [.omp.internal] builtin surface and the host-function registry,
    shared by both execution backends.

    Generated code targets these names ([__kmpc_*], [__omp_*]) plus a
    handful of host utilities; the tree walker resolves them through
    {!dispatch} on every call, while the staged compiler specialises the
    per-iteration-hot ones into direct thunks and falls back to
    {!dispatch} for the rest.  Either way the semantics — argument
    coercions, error messages, profile ticks — come from this single
    implementation.

    Host functions are the interoperability story: the paper's section
    IV integrates Zig with Fortran/C by declaring foreign procedures
    with C linkage; our analogue lets the host (OCaml) register
    functions that Zr code calls by name, exactly like an [extern fn]
    declaration.  Registration happens before execution, so the table is
    read-only while teams run. *)

module V = Value

let err = V.err

let host_fns : (string, V.t list -> V.t) Hashtbl.t = Hashtbl.create 16

let register_host name f = Hashtbl.replace host_fns name f

let unregister_host name = Hashtbl.remove host_fns name

(* ------------------------------------------------------------------ *)
(* Checker interception.

   The race checker ({!Check}) replaces the runtime behind the
   [.omp.internal] surface with a cooperative, vector-clocked one: it
   installs an interceptor that claims the synchronisation-bearing
   builtins (fork/join, barriers, worksharing, critical, single,
   atomics) and lets everything else — pure helpers, host functions —
   fall through to the shared implementation below by returning [None].
   With no interceptor installed (the production backends) the cost is
   one ref read per builtin call. *)

type interceptor = {
  on_builtin :
    call:(string -> V.t list -> V.t) -> string -> V.t list -> V.t option;
  on_omp : string -> V.t list -> V.t option;
}

let interceptor : interceptor option ref = ref None

(* ------------------------------------------------------------------ *)
(* The omp.* namespace (paper section III-C: the standard API with the
   omp_ prefix stripped).                                              *)

let omp_namespace_default meth args : V.t =
  match meth, args with
  | "get_thread_num", [] -> V.VInt (Omprt.Api.get_thread_num ())
  | "get_num_threads", [] -> V.VInt (Omprt.Api.get_num_threads ())
  | "get_max_threads", [] -> V.VInt (Omprt.Api.get_max_threads ())
  | "set_num_threads", [ v ] ->
      Omprt.Api.set_num_threads (V.to_int v);
      VUnit
  | "get_num_procs", [] -> V.VInt (Omprt.Api.get_num_procs ())
  | "in_parallel", [] -> V.VBool (Omprt.Api.in_parallel ())
  | "get_level", [] -> V.VInt (Omprt.Api.get_level ())
  | "get_active_level", [] -> V.VInt (Omprt.Api.get_active_level ())
  | "get_ancestor_thread_num", [ v ] ->
      V.VInt (Omprt.Api.get_ancestor_thread_num (V.to_int v))
  | "get_team_size", [ v ] ->
      V.VInt (Omprt.Api.get_team_size (V.to_int v))
  | "get_thread_limit", [] -> V.VInt (Omprt.Api.get_thread_limit ())
  | "get_max_active_levels", [] ->
      V.VInt (Omprt.Api.get_max_active_levels ())
  | "set_max_active_levels", [ v ] ->
      Omprt.Api.set_max_active_levels (V.to_int v);
      VUnit
  | "get_supported_active_levels", [] ->
      V.VInt (Omprt.Api.get_supported_active_levels ())
  | "get_dynamic", [] -> V.VBool (Omprt.Api.get_dynamic ())
  | "set_dynamic", [ v ] ->
      Omprt.Api.set_dynamic (V.to_bool v);
      VUnit
  | "get_wtime", [] -> V.VFloat (Omprt.Api.get_wtime ())
  | "get_wtick", [] -> V.VFloat (Omprt.Api.get_wtick ())
  | _ -> err "unknown omp.%s/%d" meth (List.length args)

let omp_namespace meth args : V.t =
  match !interceptor with
  | Some i ->
      (match i.on_omp meth args with
       | Some v -> v
       | None -> omp_namespace_default meth args)
  | None -> omp_namespace_default meth args

(* ------------------------------------------------------------------ *)
(* Builtins: the .omp.internal surface targeted by generated code, plus
   a few host utilities for writing programs.  [call] invokes a
   program-defined function by name — the backend supplies its own
   (tree-walked or compiled) implementation, which is how
   [__kmpc_fork_call] runs outlined functions on the right engine.     *)

let dispatch_default ~(call : string -> V.t list -> V.t) fname args : V.t =
  let fl = V.to_float and it = V.to_int in
  match fname, args with
  (* --- fork/join --- *)
  | "__kmpc_fork_call", [ V.VFun f; fp; sh; red; nt ] ->
      let num_threads =
        match it nt with 0 -> None | n -> Some n
      in
      Omprt.Kmpc.fork_call ?num_threads
        (fun () -> ignore (call f [ fp; sh; red ]))
        ();
      VUnit
  | "__kmpc_barrier", [] -> Omprt.Kmpc.barrier (); VUnit
  (* --- deferred tasks --- *)
  | "__kmpc_omp_task", [ V.VFun f; fp; sh ] ->
      Omprt.Kmpc.omp_task (fun () -> ignore (call f [ fp; sh ]));
      VUnit
  | "__kmpc_omp_taskwait", [] -> Omprt.Kmpc.omp_taskwait (); VUnit
  (* --- copyprivate broadcast --- *)
  | "__kmpc_copyprivate_put", [ v ] ->
      Omprt.Kmpc.copyprivate_put v; VUnit
  | "__kmpc_copyprivate_get", [] -> (Omprt.Kmpc.copyprivate_get () : V.t)
  (* --- static worksharing --- *)
  | "__kmpc_for_static_init", [ lb; ub; step; incl ] ->
      let lo = it lb and step = it step in
      let hi =
        if it incl = 1 then
          (if step > 0 then it ub + 1 else it ub - 1)
        else it ub
      in
      (match Omprt.Kmpc.for_static_init ~lo ~hi ~step () with
       | Some { lower; upper; _ } ->
           VStruct [ ("has", VBool true); ("lower", VInt lower);
                     ("upper", VInt upper) ]
       | None ->
           VStruct [ ("has", VBool false); ("lower", VInt 0);
                     ("upper", VInt 0) ])
  | "__kmpc_for_static_fini", [] -> Omprt.Kmpc.for_static_fini (); VUnit
  (* --- dispatcher protocol --- *)
  | "__kmpc_static_chunked_init", [ lb; ub; step; chunk; incl ] ->
      let lo = it lb and step = it step and chunk = it chunk in
      let hi =
        if it incl = 1 then (if step > 0 then it ub + 1 else it ub - 1)
        else it ub
      in
      let trips = Omprt.Ws.trip_count ~lo ~hi ~step () in
      let tid = Omprt.Api.get_thread_num () in
      let nth = Omprt.Api.get_num_threads () in
      let chunks =
        List.map
          (fun (b, e) -> (lo + (b * step), lo + ((e - 1) * step)))
          (Omprt.Ws.static_chunks ~tid ~nthreads:nth ~trips ~chunk)
      in
      VDispatch (Chunked (ref chunks))
  | "__kmpc_dispatch_init_dynamic", [ lb; ub; step; chunk; incl ]
  | "__kmpc_dispatch_init_guided", [ lb; ub; step; chunk; incl ]
  | "__kmpc_dispatch_init_runtime", [ lb; ub; step; chunk; incl ] ->
      let lo = it lb and step = it step and chunk = max 1 (it chunk) in
      let hi =
        if it incl = 1 then (if step > 0 then it ub + 1 else it ub - 1)
        else it ub
      in
      let sched =
        match fname with
        | "__kmpc_dispatch_init_dynamic" -> Omp_model.Sched.Dynamic chunk
        | "__kmpc_dispatch_init_guided" -> Omp_model.Sched.Guided chunk
        | _ -> Omp_model.Sched.Runtime
      in
      VDispatch (Shared (Omprt.Kmpc.dispatch_init ~sched ~lo ~hi ~step ()))
  | "__kmpc_dispatch_next", [ VDispatch h ] ->
      let result =
        match h with
        | Shared d -> Omprt.Kmpc.dispatch_next d
        | Chunked chunks ->
            (match !chunks with
             | [] -> None
             | c :: rest -> chunks := rest; Some c)
      in
      (match result with
       | Some (lower, upper) ->
           VStruct [ ("more", VBool true); ("lower", VInt lower);
                     ("upper", VInt upper) ]
       | None ->
           VStruct [ ("more", VBool false); ("lower", VInt 0);
                     ("upper", VInt 0) ])
  (* --- synchronisation --- *)
  | "__kmpc_critical", [ VStr name ] ->
      (* time the acquisition so --profile sees critical contention *)
      Omprt.Profile.timed Omprt.Profile.Critical_wait (fun () ->
          Mutex.lock (Omprt.Lock.critical_lock name));
      VUnit
  | "__kmpc_end_critical", [ VStr name ] ->
      Mutex.unlock (Omprt.Lock.critical_lock name); VUnit
  | "__kmpc_single", [] -> VBool (Omprt.Kmpc.single_begin ())
  | "__kmpc_end_single", [] -> Omprt.Kmpc.single_end (); VUnit
  | "__kmpc_atomic_begin", [] -> Omprt.Kmpc.atomic_begin (); VUnit
  | "__kmpc_atomic_end", [] -> Omprt.Kmpc.atomic_end (); VUnit
  | "__omp_get_thread_num", [] -> VInt (Omprt.Api.get_thread_num ())
  (* --- reduction cells (paper III-B1: Zig atomics + CAS loops) --- *)
  | "__omp_atomic_new", [ v ] ->
      (match v with
       | VInt i -> VAtomicI (Omprt.Atomics.Int.make i)
       | VFloat f -> VAtomicF (Omprt.Atomics.Float.make f)
       | VUndef -> VAtomicF (Omprt.Atomics.Float.make 0.)
       | v -> err "__omp_atomic_new on %s" (V.type_name v))
  | "__omp_atomic_load", [ VAtomicF a ] -> VFloat (Omprt.Atomics.Float.get a)
  | "__omp_atomic_load", [ VAtomicI a ] -> VInt (Omprt.Atomics.Int.get a)
  | "__omp_atomic_combine_add", [ VAtomicF a; v ] ->
      Omprt.Atomics.Float.add a (fl v); VUnit
  | "__omp_atomic_combine_add", [ VAtomicI a; v ] ->
      Omprt.Atomics.Int.add a (it v); VUnit
  | "__omp_atomic_combine_mul", [ VAtomicF a; v ] ->
      Omprt.Atomics.Float.mul a (fl v); VUnit
  | "__omp_atomic_combine_mul", [ VAtomicI a; v ] ->
      Omprt.Atomics.Int.mul a (it v); VUnit
  | "__omp_atomic_combine_min", [ VAtomicF a; v ] ->
      Omprt.Atomics.Float.min a (fl v); VUnit
  | "__omp_atomic_combine_min", [ VAtomicI a; v ] ->
      Omprt.Atomics.Int.min a (it v); VUnit
  | "__omp_atomic_combine_max", [ VAtomicF a; v ] ->
      Omprt.Atomics.Float.max a (fl v); VUnit
  | "__omp_atomic_combine_max", [ VAtomicI a; v ] ->
      Omprt.Atomics.Int.max a (it v); VUnit
  (* --- worksharing helpers --- *)
  | "__omp_ws_cmp", [ i; upper; step ] ->
      VBool (if it step > 0 then it i <= it upper else it i >= it upper)
  | "__omp_trips", [ lb; ub; step; incl ] ->
      VInt
        (Omprt.Ws.trip_count ~inclusive:(it incl = 1) ~lo:(it lb)
           ~hi:(it ub) ~step:(it step) ())
  | "__omp_huge", [] -> VFloat infinity
  | "__omp_red_identity", [ v; code ] -> (
      (* The identity of the reduction operator numbered [code]
         ({!Ompfront.Directive.red_op_code}) in the type of [v]: a
         reduction cell, the original variable's value, or a pointer to
         it, read here without a checker trace.  An integer cell or
         value gets an [i64] identity, anything else an [f64] one. *)
      let int =
        match v with
        | VAtomicI _ | VInt _ -> true
        | VPtr p -> ( match Rt.ptr_read p with VInt _ -> true | _ -> false)
        | _ -> false
      in
      match Ompfront.Directive.red_op_of_code (it code) with
      | Some (Radd | Rsub) -> if int then VInt 0 else VFloat 0.
      | Some Rmul -> if int then VInt 1 else VFloat 1.
      | Some Rmin -> if int then VInt max_int else VFloat infinity
      | Some Rmax -> if int then VInt min_int else VFloat neg_infinity
      | None -> err "__omp_red_identity: unknown operator %d" (it code))
  | "__omp_min", [ a; b ] -> if Rt.compare_vals a b <= 0 then a else b
  | "__omp_max", [ a; b ] -> if Rt.compare_vals a b >= 0 then a else b
  (* --- host utilities for writing programs --- *)
  | "alloc_f64", [ n ] -> VFloatArr (Array.make (it n) 0.)
  | "alloc_i64", [ n ] -> VIntArr (Array.make (it n) 0)
  | "len", [ VFloatArr a ] -> VInt (Array.length a)
  | "len", [ VIntArr a ] -> VInt (Array.length a)
  | "sqrt", [ v ] -> VFloat (sqrt (fl v))
  | "log", [ v ] -> VFloat (log (fl v))
  | "exp", [ v ] -> VFloat (exp (fl v))
  | "fabs", [ v ] -> VFloat (Float.abs (fl v))
  | "floor", [ v ] -> VFloat (Float.floor (fl v))
  | "int_of", [ v ] -> VInt (it v)
  | "float_of", [ v ] -> VFloat (fl v)
  | "print", [ v ] ->
      print_endline (V.to_string v);
      VUnit
  | _ ->
      (match Hashtbl.find_opt host_fns fname with
       | Some f -> f args
       | None ->
           err "unknown function or builtin '%s'/%d" fname
             (List.length args))

let dispatch ~(call : string -> V.t list -> V.t) fname args : V.t =
  match !interceptor with
  | Some i ->
      (match i.on_builtin ~call fname args with
       | Some v -> v
       | None -> dispatch_default ~call fname args)
  | None -> dispatch_default ~call fname args
