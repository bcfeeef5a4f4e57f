(** Runtime core shared by the two execution backends.

    The tree-walking evaluator ({!Interp}) and the staged closure
    compiler ({!Compile}) must agree exactly on program state and value
    semantics: the loaded-program record, global storage (including
    [threadprivate] per-thread cells), the int/float coercing arithmetic,
    value comparison, and pointer access.  Keeping those here — below
    both backends in the module graph — is what lets the differential
    test suite demand bit-identical outputs from them. *)

open Zr

exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

(** Storage for a global: ordinary shared cell, or per-thread cells for
    [threadprivate] globals (keyed by domain id; thread 0 of every team
    is the encountering domain, so its copy persists across regions as
    the OpenMP persistence rules describe). *)
type slot =
  | Plain of Value.t ref
  | Tls of { init : Value.t;
             cells : (int, Value.t ref) Hashtbl.t;
             mutex : Mutex.t }

type program = {
  ast : Ast.t;
  mutable res : Resolve.t option;         (* the walker's table of [ast] *)
  fns : (string, int) Hashtbl.t;          (* name -> Fn_decl node *)
  globals : (string, slot) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Checker hooks.

   The race checker ({!Check}) runs programs on cooperative virtual
   threads and needs to observe every shared-reachable memory access and
   key thread identity off the virtual thread rather than the domain.
   Both hooks are no-ops unless a checker session installs them, so the
   two production backends pay one ref read per instrumented site at
   most. *)

(** A traced memory location: a variable cell reached through a global
    or a pointer, or an element of a shared array. *)
type access =
  | Acell of Value.t ref
  | Afelem of float array * int
  | Aielem of int array * int

type tracer = {
  trace : rw:[ `R | `W ] -> access -> off:int -> hint:string -> unit;
      (** [off] is the byte offset of the access site in the
          preprocessed source; [hint] a best-effort variable name. *)
}

let tracer : tracer option ref = ref None

(* The operator of a compound assignment ([+=] etc.), noted by the tree
   walker immediately before the write event it belongs to; the checker
   consumes it to phrase clause suggestions.  Only written when a tracer
   is installed (single-domain), so there is no cross-domain race. *)
let pending_op : string option ref = ref None

(* Ordinary locals are thread-private, so the walker leaves them
   untraced — except when [&] takes a local's cell, which is exactly
   how the outliner lets a deferred task alias its creator's variable.
   The walker registers every cell that escapes through [&] here while
   a tracer is installed, and then traces {e direct} accesses to a
   registered cell like any shared location (the pointer side is
   already traced through [Deref]).  The list stays tiny — one entry
   per distinct escaped local — and both hooks are no-ops without a
   tracer. *)
let escaped : Value.t ref list ref = ref []

let note_escape (r : Value.t ref) =
  match !tracer with
  | Some _ when not (List.memq r !escaped) -> escaped := r :: !escaped
  | _ -> ()

let is_escaped (r : Value.t ref) =
  match !tracer with None -> false | Some _ -> List.memq r !escaped

(** Key for [threadprivate] storage: the domain id in production, the
    virtual-thread id under the checker. *)
let tls_key : (unit -> int) ref = ref (fun () -> (Domain.self () :> int))

let slot_cell = function
  | Plain r -> r
  | Tls t ->
      let key = !tls_key () in
      Mutex.lock t.mutex;
      let cell =
        match Hashtbl.find_opt t.cells key with
        | Some c -> c
        | None ->
            let c = ref t.init in
            Hashtbl.add t.cells key c;
            c
      in
      Mutex.unlock t.mutex;
      cell

let err = Value.err

(* ------------------------------------------------------------------ *)
(* Arithmetic with int/float coercion.                                 *)

let arith op_i op_f a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Value.VInt (op_i x y)
  | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) ->
      Value.VFloat (op_f (Value.to_float a) (Value.to_float b))
  | _ ->
      err "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)

(* The individual operators, spelled out so the compiled backend's hot
   paths hit a direct call with the int/int match first. *)

let add a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Value.VInt (x + y)
  | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) ->
      Value.VFloat (Value.to_float a +. Value.to_float b)
  | _ ->
      err "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)

let sub a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Value.VInt (x - y)
  | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) ->
      Value.VFloat (Value.to_float a -. Value.to_float b)
  | _ ->
      err "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)

let mul a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> Value.VInt (x * y)
  | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) ->
      Value.VFloat (Value.to_float a *. Value.to_float b)
  | _ ->
      err "arithmetic on %s and %s" (Value.type_name a) (Value.type_name b)

let div a b =
  match a, b with
  | Value.VInt _, Value.VInt 0 -> err "integer division by zero"
  | Value.VInt x, Value.VInt y -> Value.VInt (x / y)
  | _ -> Value.VFloat (Value.to_float a /. Value.to_float b)

let modulo a b =
  match a, b with
  | Value.VInt _, Value.VInt 0 -> err "integer modulo by zero"
  | Value.VInt x, Value.VInt y -> Value.VInt (x mod y)
  | _ -> Value.VFloat (Float.rem (Value.to_float a) (Value.to_float b))

(* [/=] always divides as floats; the divisor converts first, matching
   the tree walker's evaluation order for the compound assignment. *)
let div_assign cur rhs =
  let d = Value.to_float rhs in
  Value.VFloat (Value.to_float cur /. d)

let compare_vals a b =
  match a, b with
  | Value.VInt x, Value.VInt y -> compare x y
  | (Value.VInt _ | Value.VFloat _), (Value.VInt _ | Value.VFloat _) ->
      compare (Value.to_float a) (Value.to_float b)
  | Value.VBool x, Value.VBool y -> compare x y
  | Value.VStr x, Value.VStr y -> compare x y
  | _ ->
      err "comparison of %s and %s" (Value.type_name a) (Value.type_name b)

(* ------------------------------------------------------------------ *)
(* Pointers.                                                           *)

let ptr_read = function
  | Value.PVar r -> !r
  | Value.PSlot (fr, i) -> fr.(i)
  | Value.PElemF (a, i) -> Value.VFloat a.(i)
  | Value.PElemI (a, i) -> Value.VInt a.(i)

let ptr_write p v =
  match p with
  | Value.PVar r -> r := v
  | Value.PSlot (fr, i) -> fr.(i) <- v
  | Value.PElemF (a, i) -> a.(i) <- Value.to_float v
  | Value.PElemI (a, i) -> a.(i) <- Value.to_int v
