(** Zigomp — pragma-driven shared-memory parallelism for the Zr language.

    The public API of this reproduction of "Pragma driven shared memory
    parallelism in Zig by supporting OpenMP loop directives" (SC-W
    2024).  The pipeline mirrors the paper's: Zr source annotated with
    [//$omp] pragma comments is tokenised and parsed into a Zig-style
    flat AST (clause data packed into the 32-bit [extra_data] array), a
    multi-pass preprocessor outlines parallel regions and lowers
    worksharing loops to [__kmpc_*] runtime calls, and the result
    executes against an OpenMP runtime built on OCaml domains.

    {1 Quick start}

    {[
      let program = {|
        fn dot(n: i64, x: []f64, y: []f64) f64 {
            var s: f64 = 0.0;
            var i: i64 = 0;
            //$omp parallel for reduction(+: s) shared(x, y)
            while (i < n) : (i += 1) {
                s += x[i] * y[i];
            }
            return s;
        }
      |} in
      let compiled = Zigomp.compile ~name:"dot.zr" program in
      let result =
        Zigomp.call compiled "dot"
          [ Zigomp.Value.VInt 3;
            Zigomp.Value.VFloatArr [| 1.; 2.; 3. |];
            Zigomp.Value.VFloatArr [| 4.; 5.; 6. |] ]
      in
      (* result = VFloat 32. , computed on a thread team *)
    ]}

    {1 Layers}

    - {!Frontend} — tokeniser, parser, AST ({!Zr}).
    - {!Pragmas} — OpenMP directive/clause model and the packed 32-bit
      encodings ({!Ompfront}).
    - {!Preprocessor} — the source-to-source lowering ({!Preproc}).
    - {!Runtime} — the OpenMP runtime on domains ({!Omprt}).
    - {!Simulator} — the ARCHER2 node model used to regenerate the
      paper's evaluation ({!Sim}, {!Simrt}).
    - {!Benchmarks} — the NPB kernels ({!Npb}) and the experiment
      harness ({!Harness}). *)

module Frontend = Zr
module Pragmas = Ompfront
module Preprocessor = Preproc
module Runtime = Omprt
module Simulator = Sim
module Simruntime = Simrt
module Benchmarks = Npb
module Harness = Harness
module Model = Omp_model

module Value = Interp.Value

(** Execution backend — the three tiers: [`Ast] walks the tree on
    every evaluation ({!Interp}, the executable specification),
    [`Compiled] stages each function once into nested OCaml closures
    over a flat slot frame ({!Interp.Compile}), and [`Bytecode] is
    [`Compiled] plus a register-bytecode VM for worksharing loop
    bodies: drain bodies the planner covers are lowered to fixed-width
    register instructions over untagged [int array]/[float array]
    files, with bounds guards elided where the subscript analysis
    proves every access of the chunk in range; anything uncovered
    falls back to the staged closures of the same program, so results,
    error messages and profile construct counts are identical across
    all three tiers. *)
type backend = [ `Compiled | `Ast | `Bytecode ]

(** [parse_backend s] — the pure [ZIGOMP_BACKEND] value parser
    (unit-tested directly, like the {!Omprt.Icv} [parse_*] family).
    Accepts the tier names and their synonyms, case-insensitively;
    [None] for anything else. *)
let parse_backend (s : string) : backend option =
  match String.lowercase_ascii (String.trim s) with
  | "ast" | "tree" | "walk" -> Some `Ast
  | "compiled" | "closure" | "staged" -> Some `Compiled
  | "bytecode" | "bc" | "vm" -> Some `Bytecode
  | _ -> None

(** Default backend: [`Compiled], overridable with
    [ZIGOMP_BACKEND=ast|compiled|bytecode] (the same escape-hatch
    shape as the [OMP_*] ICV environment variables, including the
    warn-once-and-fall-back treatment of malformed values: an
    unrecognised backend name is reported to stderr — unless
    [ZIGOMP_WARNINGS=0] — and [`Compiled] is used).  An empty value
    counts as unset. *)
let default_backend () : backend =
  match Sys.getenv_opt "ZIGOMP_BACKEND" with
  | None | Some "" -> `Compiled
  | Some v ->
      (match parse_backend v with
       | Some b -> b
       | None ->
           Omprt.Icv.warn_malformed ~var:"ZIGOMP_BACKEND" ~value:v
             ~expected:"'compiled', 'ast' or 'bytecode'" ~used:"compiled";
           `Compiled)

(** [parse_bc_elide s] — the pure [ZIGOMP_BC_ELIDE] parser: boolean
    switch for analysis-driven guard elision on the bytecode tier. *)
let parse_bc_elide (s : string) : bool option =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "on" | "yes" -> Some true
  | "0" | "false" | "off" | "no" -> Some false
  | _ -> None

let default_bc_elide () : bool =
  match Sys.getenv_opt "ZIGOMP_BC_ELIDE" with
  | None | Some "" -> true
  | Some v ->
      (match parse_bc_elide v with
       | Some b -> b
       | None ->
           Omprt.Icv.warn_malformed ~var:"ZIGOMP_BC_ELIDE" ~value:v
             ~expected:"'1' or '0'" ~used:"1";
           true)

type compiled = {
  prog : Interp.program;
  cc : Interp.Compile.t option;  (* Some iff backend <> `Ast *)
  backend : backend;
}

(** [preprocess ?name source] — run only the pragma lowering; returns
    the synthesised Zr source (what the paper's compiler hands to the
    next stage). *)
let preprocess = Preproc.Preprocess.run

let stage ?backend ?elide prog =
  let backend =
    match backend with Some b -> b | None -> default_backend ()
  in
  let cc =
    match backend with
    | `Compiled -> Some (Interp.Compile.compile prog)
    | `Bytecode ->
        let elide =
          match elide with Some e -> e | None -> default_bc_elide ()
        in
        Some (Interp.Compile.compile ~bc:{ Interp.Bcgen.elide } prog)
    | `Ast -> None
  in
  { prog; cc; backend }

(** [compile ?backend ?elide ?name source] — preprocess, parse, load,
    and (on the default [`Compiled] backend, or [`Bytecode]) stage
    every function into closures.  [elide] enables bounds-guard
    elision on the bytecode tier (default: [ZIGOMP_BC_ELIDE], else
    on); it is ignored by the other backends. *)
let compile ?backend ?elide ?name source : compiled =
  stage ?backend ?elide (Interp.load ?name source)

(** [compile_plain ?backend ?name source] — load without pragma
    processing (pragmas then cause a runtime error if reached; useful
    for testing the preprocessor's necessity). *)
let compile_plain ?backend ?elide ?name source : compiled =
  stage ?backend ?elide (Interp.load ?name ~preprocess:false source)

(** The synthesised source of a compiled program. *)
let preprocessed_source (p : compiled) =
  p.prog.Interp.ast.Zr.Ast.source.Zr.Source.text

(** The backend a program was staged for. *)
let backend_of (p : compiled) : backend = p.backend

(** One listing per drain of the bytecode backend (label × listing,
    compile order): the disassembly of each drain specialised so far,
    or ["closures: <reason>"] for each drain that stayed on the closure
    tier.  Empty for the other backends; a drain that has not run yet
    appears only if the planner refused it. *)
let bc_listings (p : compiled) : (string * string) list =
  match p.cc with
  | Some cc -> Interp.Compile.bc_listings cc
  | None -> []

(** [call p fn args] — invoke an exported function.  Parallel regions
    inside it execute on OCaml domains through the bundled runtime. *)
let call (p : compiled) fname args =
  match p.cc with
  | Some cc -> Interp.Compile.call cc fname args
  | None -> Interp.call p.prog fname args

(** [run_main p] — invoke [main]. *)
let run_main (p : compiled) = call p "main" []

(** [register_host name f] — expose an OCaml function to Zr programs
    under [name], the analogue of the paper's C/Fortran interop
    ([extern fn] with C linkage, section IV). *)
let register_host = Interp.register_host

let unregister_host = Interp.unregister_host

(** [set_num_threads n] — the default team size ICV, as
    [omp_set_num_threads]. *)
let set_num_threads = Omprt.Api.set_num_threads

let get_max_threads = Omprt.Api.get_max_threads

(** [set_max_active_levels n] — enable nested parallelism up to [n]
    active levels ([omp_set_max_active_levels]; the default of 1
    serialises nested regions, as libomp does). *)
let set_max_active_levels = Omprt.Api.set_max_active_levels

let get_max_active_levels = Omprt.Api.get_max_active_levels

(** The race detector and DPOR interleaving checker ([zrc --check]):
    findings, configuration, and the lower-level passes. *)
module Checker = Check

(** [check ?name ?config source] — run the full checker over a Zr
    program: execution-free lints, then the dynamic vector-clock race
    detector over the executions DPOR explores.  Deterministic for a
    fixed configuration; see {!Checker} for the report structure. *)
let check ?name ?config source : Check.Report.t =
  Check.check_source ?name ?config source

(** The static analyser ([zrc analyze]): data-sharing and dependence
    analysis with autoscoping — a backend that never executes the
    program.  See {!Analyzer} for the passes and the
    [PROVEN]/[MAY]/[CLEAN] taxonomy. *)
module Analyzer = Analyze

(** [analyze ?name source] — statically analyse a Zr program: per-region
    def/use dataflow, ZIV/SIV dependence tests, and clause autoscoping.
    The report shares {!Checker.Report} with the dynamic checker, so
    findings proved here suppress their dynamic duplicates through
    {!Checker.Report.merge}. *)
let analyze ?name source : Analyze.result = Analyze.run ?name source

(** [analyze_fix ?name source] — analyse and rewrite directives to a
    fixpoint; returns the fixed source, its final analysis, and the
    number of rewrite rounds. *)
let analyze_fix ?name ?max_rounds source =
  Analyze.fix_to_fixpoint ?name ?max_rounds source

(** Corpus batch mode ([zrc check --corpus], [zrc analyze --corpus]):
    every fixture under a directory plus the bundled NPB Zr kernels,
    one process, one machine-readable summary. *)
module Corpus = Corpus
