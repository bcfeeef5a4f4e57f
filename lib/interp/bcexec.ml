(** The bytecode dispatch loop and the drain-entry / chunk / writeback
    lifecycle around it ({!Bc}, {!Bcgen}).

    A drain execution calls {!enter} once: it observes the shapes of
    the captured slots, specialises (or reuses the cached program),
    and binds a {!state} — register files sized for the program,
    captures and hoisted dereferences loaded, array bases resolved
    into the per-bank tables.  Each claimed chunk then runs through
    {!run_chunk}; after the last chunk {!writeback} restores the
    written captures and the counter into the frame.  Any runtime
    error raises {!Value.Runtime_error} out of the dispatch loop
    without writing back — safe because each thread owns its outlined
    frame, so a half-updated register file is unobservable after the
    unwind, exactly like the closure tier's abandoned locals.

    A [loop] instruction hands the single accumulate after it to
    {!run_loop}, a native loop outside {!exec} (so the dispatch loop's
    code does not grow), and the dispatch continues at the loop's exit.

    [Array.unsafe_*] discipline: [code] indices come from the emitter
    (always in range by construction), register indices from the
    allocator; user arrays are touched unsafely only by the [*u]
    opcodes, which {!Bcgen} emits strictly under a per-chunk
    {!Omp_model.Subscript.in_range} proof, by the plain store opcodes,
    which are always preceded by an emitted check or covered by the
    same proof, and by the proven native loops, under the same test
    over the loop's whole trip, made when the loop is entered. *)

module V = Value

type state = {
  prog : Bc.program;
  ints : int array;
  floats : float array;
  farrs : float array array;
  iarrs : int array array;
}

(* A hoisted read (scalar dereference, or an array reached through a
   pointer) is loop-invariant only when the body provably cannot move
   what it points at: variable cells and other frames' slots are fine
   (this body writes neither — writes through pointers bail at plan
   time), but a slot of *this* frame or an array element could be
   written between iterations by the body itself. *)
let ptr_hoistable (fr : V.t array) = function
  | V.PVar _ -> true
  | V.PSlot (fr', _) -> fr' != fr
  | V.PElemF _ | V.PElemI _ -> false

(* A runtime shape outside the cached or specialisable program; the
   reasons are constants, so a bailing entry formats no message. *)
exception Shape of string

(* ------------------------------------------------------------------ *)
(* Entry: observe, specialise-or-reuse, validate, bind.                *)

let observe_caps (plan : Bcgen.plan) fr =
  Array.map
    (fun (slot, _) ->
      match fr.(slot) with
      | V.VInt _ -> `I
      | V.VFloat _ -> `F
      | V.VBool _ -> `B
      | _ -> raise (Shape "a captured variable is not an int, float or bool"))
    plan.Bcgen.caps

(* Resolve each indexed base to its runtime array (through the pointer
   when the base is a dereference). *)
let observe_bases (plan : Bcgen.plan) fr =
  Array.map
    (fun (slot, deref, _) ->
      let v =
        if deref then
          match fr.(slot) with
          | V.VPtr p when ptr_hoistable fr p -> Rt.ptr_read p
          | _ -> raise (Shape "an array pointer's target may move")
        else fr.(slot)
      in
      match v with
      | V.VFloatArr a -> `FA a
      | V.VIntArr a -> `IA a
      | _ -> raise (Shape "an indexed value is not a float or int array"))
    plan.Bcgen.ubases

let observe_derefs (plan : Bcgen.plan) fr =
  Array.map
    (fun (slot, _) ->
      match fr.(slot) with
      | V.VPtr p when ptr_hoistable fr p -> (
          match Rt.ptr_read p with
          | V.VInt i -> `DI i
          | V.VFloat x -> `DF x
          | _ -> raise (Shape "a dereferenced scalar is not an int or float"))
      | _ -> raise (Shape "a dereferenced pointer's target may move"))
    plan.Bcgen.uderefs

let mismatch = Shape "shapes differ from the cached specialisation"

let enter (plan : Bcgen.plan) (fr : V.t array) : state option =
  match Atomic.get plan.Bcgen.cache with
  | Bcgen.Cfail -> None
  | cached -> (
      match
        let ckinds = observe_caps plan fr in
        let bvals = observe_bases plan fr in
        let dvals = observe_derefs plan fr in
        let bbanks =
          Array.map (function `FA _ -> `F | `IA _ -> `I) bvals
        in
        let dkinds = Array.map (function `DI _ -> `I | `DF _ -> `F) dvals in
        let prog =
          match cached with
          | Bcgen.Cprog p -> Some p
          | Bcgen.Cfail -> None
          | Bcgen.Cnone -> (
              match Bcgen.specialize plan ~ckinds ~bbanks ~dkinds with
              | Ok p ->
                  if
                    Atomic.compare_and_set plan.Bcgen.cache Bcgen.Cnone
                      (Bcgen.Cprog p)
                  then Some p
                  else (
                    (* lost the race: use the winner's program (it will
                       be validated against our shapes below) *)
                    match Atomic.get plan.Bcgen.cache with
                    | Bcgen.Cprog p' -> Some p'
                    | _ -> None)
              | Error why ->
                  Bcgen.note_bail plan why;
                  ignore
                    (Atomic.compare_and_set plan.Bcgen.cache Bcgen.Cnone
                       Bcgen.Cfail);
                  None)
        in
        match prog with
        | None -> None
        | Some p ->
            (* validate this execution's shapes against the cached
               specialisation; a mismatch bails without respecialising *)
            Array.iteri
              (fun c k -> if p.Bc.caps.(c).Bc.ckind <> k then raise mismatch)
              ckinds;
            if Array.length p.Bc.hoisted <> Array.length dkinds then
              raise mismatch;
            Array.iteri
              (fun d k ->
                let _, bank, _ = p.Bc.hoisted.(d) in
                if bank <> k then raise mismatch)
              dkinds;
            let nfb = Array.length p.Bc.fbases
            and nib = Array.length p.Bc.ibases in
            let farrs = Array.make nfb [||] in
            let iarrs = Array.make nib [||] in
            let fi = ref 0 and ii = ref 0 in
            Array.iter
              (function
                | `FA a ->
                    if !fi >= nfb then raise mismatch;
                    farrs.(!fi) <- a;
                    incr fi
                | `IA a ->
                    if !ii >= nib then raise mismatch;
                    iarrs.(!ii) <- a;
                    incr ii)
              bvals;
            if !fi <> nfb || !ii <> nib then raise mismatch;
            let ints = Array.make (max p.Bc.nints 1) 0 in
            let floats = Array.make (max p.Bc.nfloats 1) 0.0 in
            Array.iter
              (fun (c : Bc.cap) ->
                match (fr.(c.Bc.slot), c.Bc.ckind) with
                | V.VInt i, `I -> ints.(c.Bc.reg) <- i
                | V.VFloat x, `F -> floats.(c.Bc.reg) <- x
                | V.VBool b, `B -> ints.(c.Bc.reg) <- (if b then 1 else 0)
                | _ -> raise mismatch)
              p.Bc.caps;
            Array.iteri
              (fun d (h : int * [ `I | `F ] * int) ->
                let _, bank, reg = h in
                match (dvals.(d), bank) with
                | `DI i, `I -> ints.(reg) <- i
                | `DF x, `F -> floats.(reg) <- x
                | _ -> raise mismatch)
              p.Bc.hoisted;
            if p.Bc.tid_reg >= 0 then
              ints.(p.Bc.tid_reg) <- Omprt.Api.get_thread_num ();
            if p.Bc.ntd_reg >= 0 then
              ints.(p.Bc.ntd_reg) <- Omprt.Api.get_num_threads ();
            Some { prog = p; ints; floats; farrs; iarrs }
      with
      | st -> st
      | exception Shape why ->
          Bcgen.note_bail plan why;
          None)

(* ------------------------------------------------------------------ *)
(* The dispatch loop.                                                  *)

(* The error is built off the hot path, and the inlined [raise] ends
   the faulting branch, so the code after a bounds check does not
   join a call's return and keeps its values in registers. *)
let[@inline never] oob_error idx len =
  V.Runtime_error (Printf.sprintf "index %d out of bounds (len %d)" idx len)

let[@inline] oob idx len = raise (oob_error idx len)

(* Condition code [cc] ({!Bc.cc_lt} ...) on two ints.  A chain of
   tests on a [cc] that is constant per instruction predicts well; a
   jump table costs an indirect jump per test. *)
let[@inline] holds cc (x : int) (y : int) =
  if cc <= 1 then if cc = 1 then x <= y else x < y
  else if cc <= 3 then if cc = 3 then x >= y else x > y
  else if cc = 4 then x = y
  else x <> y

(** The iterations of a [loop] entered with its counter at [first]:
    [first], [first + step], ... while [k cc bound].  0 when the trip
    has no closed form: an [eq] or [ne] test, a step against the test's
    direction, a test that fails at entry, or bounds so near the ends
    of the int range that the counter could wrap.  Under these guards
    neither the count's arithmetic nor the counter's exit value
    [first + trips * step] overflows. *)
let trips ~first ~bound ~step cc =
  let up = cc <= 1 in
  if cc > 3 || step = 0 || step > 0 <> up || not (holds cc first bound) then
    0
  else
    let span = if up then bound - first else first - bound in
    let astep = abs step in
    (* [span] and [astep] are negative only when they wrapped; the other
       two tests keep [span + astep] and the exit value in range *)
    if
      span < 0 || astep < 0 || span > max_int - astep
      || if up then bound > max_int - step else bound < min_int - step
    then 0
    else if astep = 1 then span + (cc land 1)
    else if cc land 1 = 1 then
      Omprt.Ws.trip_count ~inclusive:true ~lo:first ~hi:bound ~step ()
    else Omprt.Ws.trip_count ~lo:first ~hi:bound ~step ()

(* The loops {!run_loop} runs, two per accumulate.  A [proven] one
   steps [k] to [stop] with no test but the end and no check on the
   counter-indexed accesses; a [checked] one is the do-while with every
   check, in the guarded opcode's order.  Each leaves the sum in
   [floats.(a)], and a checked one the counter in [ints.(kr)] (a proven
   trip ends at [stop]).  They are leaf functions: in a function that
   also makes calls, the counter and the sum would live on the stack. *)

let acc_proven floats a arr d k stop step =
  let k = ref k and s = ref (Array.unsafe_get floats a) in
  while !k <> stop do
    s := !s +. Array.unsafe_get arr (!k + d);
    k := !k + step
  done;
  Array.unsafe_set floats a !s

let acc_checked ints kr floats a arr d step cc bound =
  let k = ref (Array.unsafe_get ints kr)
  and s = ref (Array.unsafe_get floats a) in
  while
    let i = !k + d in
    if i < 0 || i >= Array.length arr then oob i (Array.length arr);
    s := !s +. Array.unsafe_get arr i;
    k := !k + step;
    holds cc !k bound
  do
    ()
  done;
  Array.unsafe_set ints kr !k;
  Array.unsafe_set floats a !s

let dot_proven floats a a1 a2 k stop step =
  let k = ref k and s = ref (Array.unsafe_get floats a) in
  while !k <> stop do
    let i = !k in
    s := !s +. (Array.unsafe_get a1 i *. Array.unsafe_get a2 i);
    k := i + step
  done;
  Array.unsafe_set floats a !s

let dot_checked ints kr floats a a1 a2 step cc bound =
  let k = ref (Array.unsafe_get ints kr)
  and s = ref (Array.unsafe_get floats a) in
  while
    let i = !k in
    if i < 0 || i >= Array.length a1 then oob i (Array.length a1);
    if i < 0 || i >= Array.length a2 then oob i (Array.length a2);
    s := !s +. (Array.unsafe_get a1 i *. Array.unsafe_get a2 i);
    k := i + step;
    holds cc !k bound
  do
    ()
  done;
  Array.unsafe_set ints kr !k;
  Array.unsafe_set floats a !s

let gather_proven floats a a1 ix a2 k stop step =
  let len2 = Array.length a2 in
  let k = ref k and s = ref (Array.unsafe_get floats a) in
  while !k <> stop do
    let i = !k in
    let j = Array.unsafe_get ix i in
    if j < 0 || j >= len2 then oob j len2;
    s := !s +. (Array.unsafe_get a1 i *. Array.unsafe_get a2 j);
    k := i + step
  done;
  Array.unsafe_set floats a !s

let gather_checked ints kr floats a a1 ix a2 step cc bound =
  let k = ref (Array.unsafe_get ints kr)
  and s = ref (Array.unsafe_get floats a) in
  while
    let i = !k in
    if i < 0 || i >= Array.length a1 then oob i (Array.length a1);
    if i < 0 || i >= Array.length ix then oob i (Array.length ix);
    let j = Array.unsafe_get ix i in
    if j < 0 || j >= Array.length a2 then oob j (Array.length a2);
    s := !s +. (Array.unsafe_get a1 i *. Array.unsafe_get a2 j);
    k := i + step;
    holds cc !k bound
  do
    ()
  done;
  Array.unsafe_set ints kr !k;
  Array.unsafe_set floats a !s

(** [loop k imm r exit cc] at [base]: run the accumulate that follows it
    as a native [do { acc; ints[k] += imm } while ints[k] cc ints[r]].
    The emitter guarantees that [r] is not [k] and that every subscript
    register is [k], so the bound is read once and the whole trip is
    known at entry ({!trips}).  When every counter-indexed access is in
    range over the trip ({!Omp_model.Subscript.in_range}), the proven
    loop runs; the gather keeps the check on [b[ix[k]]], which reads
    data.  Otherwise the checked loop runs, and the entry is counted in
    {!Omprt.Profile}.  (The [u] bodies' accesses also carry the
    emitter's per-chunk proof, so their checks cannot fire.)  Either way
    the sum is added left to right, and the counter and the sum reach
    their registers only at the exit: a raise leaves them stale, and
    nothing reads them then, because the unwind skips {!writeback}. *)
let run_loop (st : state) (code : int array) base =
  let ints = st.ints and floats = st.floats in
  let kr = Array.unsafe_get code (base + 1)
  and step = Array.unsafe_get code (base + 2)
  and bound = Array.unsafe_get ints (Array.unsafe_get code (base + 3))
  and cc = Array.unsafe_get code (base + 5) in
  let at = base + Bc.width in
  let a = Array.unsafe_get code (at + 1)
  and b = Array.unsafe_get code (at + 2)
  and d = Array.unsafe_get code (at + 4)
  and x = Array.unsafe_get code (at + 5) in
  let first = Array.unsafe_get ints kr in
  let n = trips ~first ~bound ~step cc in
  let last = first + ((n - 1) * step) and stop = first + (n * step) in
  match Array.unsafe_get code at with
  | 44 (* acc.ld.fu: s += arr[k + off] *) ->
      let arr = Array.unsafe_get st.farrs b in
      if
        n > 0
        && Omp_model.Subscript.in_range ~first ~last
             ~len:(Array.length arr) d d
      then begin
        acc_proven floats a arr d first stop step;
        Array.unsafe_set ints kr stop
      end
      else begin
        Omprt.Profile.bc_tick Bc_loop_fallback;
        acc_checked ints kr floats a arr d step cc bound
      end
  | 45 | 46 (* accmul.ld.ld.fu / .f: a1[k], then a2[k] *) ->
      let a1 = Array.unsafe_get st.farrs b
      and a2 = Array.unsafe_get st.farrs d in
      if
        n > 0
        && Omp_model.Subscript.in_range ~first ~last
             ~len:(Array.length a1) 0 0
        && Omp_model.Subscript.in_range ~first ~last
             ~len:(Array.length a2) 0 0
      then begin
        dot_proven floats a a1 a2 first stop step;
        Array.unsafe_set ints kr stop
      end
      else begin
        Omprt.Profile.bc_tick Bc_loop_fallback;
        dot_checked ints kr floats a a1 a2 step cc bound
      end
  | 51 (* accmul.ld.ldx.f: a1[k], then ix[k], then a2[ix[k]] *) ->
      let a1 = Array.unsafe_get st.farrs b
      and ix = Array.unsafe_get st.iarrs d
      and a2 = Array.unsafe_get st.farrs x in
      if
        n > 0
        && Omp_model.Subscript.in_range ~first ~last
             ~len:(Array.length a1) 0 0
        && Omp_model.Subscript.in_range ~first ~last
             ~len:(Array.length ix) 0 0
      then begin
        gather_proven floats a a1 ix a2 first stop step;
        Array.unsafe_set ints kr stop
      end
      else begin
        Omprt.Profile.bc_tick Bc_loop_fallback;
        gather_checked ints kr floats a a1 ix a2 step cc bound
      end
  | op -> V.err "bytecode: invalid loop body %d" op

let exec (p : Bc.program) (st : state) (code : int array) =
  let ints = st.ints and floats = st.floats in
  let farrs = st.farrs and iarrs = st.iarrs in
  let fpool = p.Bc.fpool in
  let ivr = p.Bc.iv_reg in
  let pc = ref 0 in
  (try
     while true do
       let base = !pc in
       let op = Array.unsafe_get code base in
       let a = Array.unsafe_get code (base + 1)
       and b = Array.unsafe_get code (base + 2)
       and c = Array.unsafe_get code (base + 3)
       and d = Array.unsafe_get code (base + 4) in
       pc := base + Bc.width;
       match op with
       | 0 (* halt *) -> raise_notrace Exit
       | 1 (* jmp *) -> pc := a
       | 2 (* brz *) -> if Array.unsafe_get ints a = 0 then pc := b
       | 3 (* cmpbr.ii: branch if NOT cc *) ->
           if not (holds a (Array.unsafe_get ints b) (Array.unsafe_get ints c))
           then pc := d
       | 4 (* cmpbr.ff *) ->
           (* Float.compare, not IEEE: the closure tier's polymorphic
              compare orders NaN totally, and parity wins over speed *)
           let r =
             Float.compare (Array.unsafe_get floats b)
               (Array.unsafe_get floats c)
           in
           let holds =
             match a with
             | 0 -> r < 0 | 1 -> r <= 0 | 2 -> r > 0 | 3 -> r >= 0
             | 4 -> r = 0 | _ -> r <> 0
           in
           if not holds then pc := d
       | 5 (* addcmp.br *) ->
           let k = Array.unsafe_get ints a + b in
           Array.unsafe_set ints a k;
           let cc = Array.unsafe_get code (base + 5) in
           if holds cc k (Array.unsafe_get ints c) then pc := d
       | 6 (* loop *) ->
           run_loop st code base;
           pc := d
       | 7 (* mov.i *) -> Array.unsafe_set ints a (Array.unsafe_get ints b)
       | 8 (* mov.f *) ->
           Array.unsafe_set floats a (Array.unsafe_get floats b)
       | 9 (* ldc.i *) -> Array.unsafe_set ints a b
       | 10 (* ldc.f *) ->
           Array.unsafe_set floats a (Array.unsafe_get fpool b)
       | 11 ->
           Array.unsafe_set ints a
             (Array.unsafe_get ints b + Array.unsafe_get ints c)
       | 12 ->
           Array.unsafe_set ints a
             (Array.unsafe_get ints b - Array.unsafe_get ints c)
       | 13 ->
           Array.unsafe_set ints a
             (Array.unsafe_get ints b * Array.unsafe_get ints c)
       | 14 (* div.i *) ->
           let den = Array.unsafe_get ints c in
           if den = 0 then V.err "integer division by zero";
           Array.unsafe_set ints a (Array.unsafe_get ints b / den)
       | 15 (* mod.i *) ->
           let den = Array.unsafe_get ints c in
           if den = 0 then V.err "integer modulo by zero";
           Array.unsafe_set ints a (Array.unsafe_get ints b mod den)
       | 16 (* neg.i *) -> Array.unsafe_set ints a (-Array.unsafe_get ints b)
       | 17 (* not.b *) ->
           Array.unsafe_set ints a (1 - Array.unsafe_get ints b)
       | 18 ->
           Array.unsafe_set floats a
             (Array.unsafe_get floats b +. Array.unsafe_get floats c)
       | 19 ->
           Array.unsafe_set floats a
             (Array.unsafe_get floats b -. Array.unsafe_get floats c)
       | 20 ->
           Array.unsafe_set floats a
             (Array.unsafe_get floats b *. Array.unsafe_get floats c)
       | 21 ->
           Array.unsafe_set floats a
             (Array.unsafe_get floats b /. Array.unsafe_get floats c)
       | 22 (* mod.f *) ->
           Array.unsafe_set floats a
             (Float.rem (Array.unsafe_get floats b)
                (Array.unsafe_get floats c))
       | 23 (* neg.f *) ->
           Array.unsafe_set floats a (-.Array.unsafe_get floats b)
       | 24 (* i2f *) ->
           Array.unsafe_set floats a (float_of_int (Array.unsafe_get ints b))
       | 25 (* f2i *) ->
           Array.unsafe_set ints a (int_of_float (Array.unsafe_get floats b))
       | 26 (* cmp.ii *) ->
           Array.unsafe_set ints b
             (if holds a (Array.unsafe_get ints c) (Array.unsafe_get ints d)
              then 1
              else 0)
       | 27 (* cmp.ff *) ->
           let r =
             Float.compare (Array.unsafe_get floats c)
               (Array.unsafe_get floats d)
           in
           let holds =
             match a with
             | 0 -> r < 0 | 1 -> r <= 0 | 2 -> r > 0 | 3 -> r >= 0
             | 4 -> r = 0 | _ -> r <> 0
           in
           Array.unsafe_set ints b (if holds then 1 else 0)
       | 28 (* ld.f *) ->
           let arr = Array.unsafe_get farrs b in
           let idx = Array.unsafe_get ints c + d in
           if idx < 0 || idx >= Array.length arr then
             oob idx (Array.length arr);
           Array.unsafe_set floats a (Array.unsafe_get arr idx)
       | 29 (* ld.fu *) ->
           Array.unsafe_set floats a
             (Array.unsafe_get
                (Array.unsafe_get farrs b)
                (Array.unsafe_get ints c + d))
       | 30 (* ld.i *) ->
           let arr = Array.unsafe_get iarrs b in
           let idx = Array.unsafe_get ints c + d in
           if idx < 0 || idx >= Array.length arr then
             oob idx (Array.length arr);
           Array.unsafe_set ints a (Array.unsafe_get arr idx)
       | 31 (* ld.iu *) ->
           Array.unsafe_set ints a
             (Array.unsafe_get
                (Array.unsafe_get iarrs b)
                (Array.unsafe_get ints c + d))
       | 32 (* chk.f *) ->
           let arr = Array.unsafe_get farrs a in
           let idx = Array.unsafe_get ints b + c in
           if idx < 0 || idx >= Array.length arr then
             oob idx (Array.length arr)
       | 33 (* chk.i *) ->
           let arr = Array.unsafe_get iarrs a in
           let idx = Array.unsafe_get ints b + c in
           if idx < 0 || idx >= Array.length arr then
             oob idx (Array.length arr)
       | 34 (* st.f — check already emitted or elision-proven *) ->
           Array.unsafe_set
             (Array.unsafe_get farrs a)
             (Array.unsafe_get ints b + c)
             (Array.unsafe_get floats d)
       | 35 (* st.i *) ->
           Array.unsafe_set
             (Array.unsafe_get iarrs a)
             (Array.unsafe_get ints b + c)
             (Array.unsafe_get ints d)
       | 36 (* len.f *) ->
           Array.unsafe_set ints a (Array.length (Array.unsafe_get farrs b))
       | 37 (* len.i *) ->
           Array.unsafe_set ints a (Array.length (Array.unsafe_get iarrs b))
       | 38 ->
           Array.unsafe_set floats a (sqrt (Array.unsafe_get floats b))
       | 39 -> Array.unsafe_set floats a (log (Array.unsafe_get floats b))
       | 40 -> Array.unsafe_set floats a (exp (Array.unsafe_get floats b))
       | 41 ->
           Array.unsafe_set floats a (Float.abs (Array.unsafe_get floats b))
       | 42 ->
           Array.unsafe_set floats a
             (Float.floor (Array.unsafe_get floats b))
       | 43 (* mulc.ld.fu *) ->
           let off = Array.unsafe_get code (base + 5) in
           Array.unsafe_set floats a
             (Array.unsafe_get fpool d
             *. Array.unsafe_get
                  (Array.unsafe_get farrs b)
                  (Array.unsafe_get ints c + off))
       | 44 (* acc.ld.fu *) ->
           Array.unsafe_set floats a
             (Array.unsafe_get floats a
             +. Array.unsafe_get
                  (Array.unsafe_get farrs b)
                  (Array.unsafe_get ints c + d))
       | 45 (* accmul.ld.ld.fu *) ->
           let i2r = Array.unsafe_get code (base + 5) in
           Array.unsafe_set floats a
             (Array.unsafe_get floats a
             +. Array.unsafe_get
                  (Array.unsafe_get farrs b)
                  (Array.unsafe_get ints c)
                *. Array.unsafe_get
                     (Array.unsafe_get farrs d)
                     (Array.unsafe_get ints i2r))
       | 46 (* accmul.ld.ld.f — both guarded, first array first *) ->
           let i2r = Array.unsafe_get code (base + 5) in
           let a1 = Array.unsafe_get farrs b in
           let i1 = Array.unsafe_get ints c in
           if i1 < 0 || i1 >= Array.length a1 then oob i1 (Array.length a1);
           let a2 = Array.unsafe_get farrs d in
           let i2 = Array.unsafe_get ints i2r in
           if i2 < 0 || i2 >= Array.length a2 then oob i2 (Array.length a2);
           Array.unsafe_set floats a
             (Array.unsafe_get floats a
             +. (Array.unsafe_get a1 i1 *. Array.unsafe_get a2 i2))
       | 47 (* ldst.add.fu *) ->
           let arr = Array.unsafe_get farrs a in
           let idx = Array.unsafe_get ints b + c in
           Array.unsafe_set arr idx
             (Array.unsafe_get arr idx +. Array.unsafe_get floats d)
       | 48 (* ldst.add.iu *) ->
           let arr = Array.unsafe_get iarrs a in
           let idx = Array.unsafe_get ints b + c in
           Array.unsafe_set arr idx
             (Array.unsafe_get arr idx + Array.unsafe_get ints d)
       | 49 (* recover: a <- b + ((iv / c) % d) * imm *) ->
           let dv = Array.unsafe_get ints c in
           if dv = 0 then V.err "integer division by zero";
           let nv = Array.unsafe_get ints d in
           if nv = 0 then V.err "integer modulo by zero";
           let s = Array.unsafe_get code (base + 5) in
           Array.unsafe_set ints a
             (Array.unsafe_get ints b
             + (Array.unsafe_get ints ivr / dv mod nv * s))
       | 50 (* addi.i *) ->
           Array.unsafe_set ints a (Array.unsafe_get ints b + c)
       | 51 (* accmul.ld.ldx.f — a1[i], then ix[i], then a2[ix[i]] *) ->
           let a1 = Array.unsafe_get farrs b in
           let i = Array.unsafe_get ints c in
           if i < 0 || i >= Array.length a1 then oob i (Array.length a1);
           let ix = Array.unsafe_get iarrs d in
           if i < 0 || i >= Array.length ix then oob i (Array.length ix);
           let j = Array.unsafe_get ix i in
           let a2 = Array.unsafe_get farrs (Array.unsafe_get code (base + 5)) in
           if j < 0 || j >= Array.length a2 then oob j (Array.length a2);
           Array.unsafe_set floats a
             (Array.unsafe_get floats a
             +. (Array.unsafe_get a1 i *. Array.unsafe_get a2 j))
       | _ -> V.err "bytecode: invalid opcode %d" op
     done
   with Exit -> ())

(* ------------------------------------------------------------------ *)
(* Per-chunk driver and exit.                                          *)

(** Run one claimed chunk, counter range [lower..upper] (the loop's own
    direction).  Selects the elided variant when every per-chunk
    subscript interval is proven in range — the same
    {!Omp_model.Subscript} arithmetic {!Analyze.Depend} uses for its
    PROVEN dependence verdicts — and the guarded twin otherwise. *)
let run_chunk (st : state) ~lower ~upper =
  let p = st.prog in
  st.ints.(p.Bc.iv_reg) <- lower;
  st.ints.(p.Bc.upper_reg) <- upper;
  let code =
    if Array.length p.Bc.checks = 0 then p.Bc.code
    else if
      Array.for_all
        (fun (c : Bc.check) ->
          let len =
            match c.Bc.kbank with
            | `F -> Array.length st.farrs.(c.Bc.karr)
            | `I -> Array.length st.iarrs.(c.Bc.karr)
          in
          Omp_model.Subscript.in_range ~first:lower ~last:upper ~len
            c.Bc.c_min c.Bc.c_max)
        p.Bc.checks
    then begin
      Omprt.Profile.bc_elided_tick ();
      p.Bc.code
    end
    else p.Bc.gcode
  in
  exec p st code

(** Restore the written captures and the counter.  Called once per
    drain execution, after the last chunk; skipped (by unwinding) on a
    runtime error, like the closure tier's abandoned frame. *)
let writeback (st : state) (fr : V.t array) =
  let p = st.prog in
  Array.iter
    (fun (c : Bc.cap) ->
      if c.Bc.written then
        fr.(c.Bc.slot) <-
          (match c.Bc.ckind with
           | `I -> V.VInt st.ints.(c.Bc.reg)
           | `F -> V.VFloat st.floats.(c.Bc.reg)
           | `B -> V.VBool (st.ints.(c.Bc.reg) <> 0)))
    p.Bc.caps;
  fr.(p.Bc.ivslot) <- V.VInt st.ints.(p.Bc.iv_reg)
