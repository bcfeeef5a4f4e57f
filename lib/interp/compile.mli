(** Staged closure compilation of a loaded Zr program.

    [compile] lowers every function of an {!Rt.program} (as produced by
    [Interp.load]) to nested OCaml closures over a flat slot frame;
    [call]/[run_main] then execute without any per-iteration AST
    dispatch or name lookup.  Both backends share {!Rt} and {!Builtins},
    so outputs, error messages and profile counts match the tree
    walker. *)

type t

(** Compile all functions of a loaded program.  The program's globals
    must be fully initialised (i.e. this runs after [Interp.load]).

    With [~bc], worksharing drain bodies are additionally planned for
    the register-bytecode tier ({!Bcgen}/{!Bcexec}): drains whose body
    the planner covers execute on the VM (specialised lazily on first
    entry), everything else falls back to the closures compiled here.
    [bc.elide] controls analysis-driven bounds-guard elision. *)
val compile : ?bc:Bcgen.opts -> Rt.program -> t

(** The underlying loaded program. *)
val program : t -> Rt.program

(** [call t fname args] invokes a program function on the compiled
    backend.  Raises [Value.Runtime_error] exactly where the tree
    walker would. *)
val call : t -> string -> Value.t list -> Value.t

(** Run [main]. *)
val run_main : t -> Value.t

(** Frame layout of a compiled function as [(slot, name)] pairs in
    allocation order — parameters first, then every declaration in
    compile order (shadowing allocates a fresh slot).  [None] if the
    function does not exist.  Exposed for the slot-allocation
    goldens. *)
val slot_layout : t -> string -> (int * string) list option

(** Whether this program was compiled with the bytecode tier. *)
val bc_enabled : t -> bool

(** One listing per drain, as [(label, listing)] in compile order;
    [label] is ["<fn>#<k>"] for the [k]-th recognised drain of [<fn>].
    A drain that specialised lists its disassembly.  A drain that stays
    on the closure tier lists ["closures: <reason>"]: the planner's
    refusal (known after [compile]), or the first reason an entry
    bailed (a failed specialisation, or a runtime shape outside the
    tier).  A planned drain appears only once it has executed
    (specialisation is lazy), so run the program before dumping. *)
val bc_listings : t -> (string * string) list
