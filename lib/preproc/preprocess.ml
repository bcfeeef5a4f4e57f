(** The preprocessor driver — the paper's Listing 5.

    Each round of a step collects the replacement payloads for the
    constructs it handles in a parsed program, performs the
    replacements (offset adjustment falls out of rebuilding the text),
    and returns the new text: all parallel regions are replaced before
    worksharing loops, so nested constructs of different types need no
    special handling.  Steps run to a fixpoint so that constructs
    exposed by a replacement (e.g. a loop inside a freshly outlined
    function, or a nested region) are caught by a following round.

    Every text is parsed exactly once.  Only text a round produced is
    parsed again; a round that changes nothing hands its parse on to
    the next round or step, and the last one is the parse of the
    output ({!run_parsed}). *)

type step =
  | Loop_transforms
  | Split_combined
  | Parallel_regions
  | Worksharing_loops
  | Tasking
  | Sync

(* Loop transforms run first: refusal diagnostics keep the user's
   original source coordinates, counters are still plain identifiers
   (not yet [x__ptr.*] captures), and the combined split's clause
   printer never needs to learn the transform clauses.  Tasking runs
   after region outlining so enclosing-shared variables are already
   pointer rebindings — which is what makes by-value capture the right
   default for task bodies (see {!Tasking}). *)
let steps =
  [ Loop_transforms; Split_combined; Parallel_regions;
    Worksharing_loops; Tasking; Sync ]

let step_to_string = function
  | Loop_transforms -> "loop transformations"
  | Split_combined -> "split combined constructs"
  | Parallel_regions -> "parallel regions"
  | Worksharing_loops -> "worksharing loops"
  | Tasking -> "tasking and sections"
  | Sync -> "synchronisation constructs"

(* Fixpoint guard: a replacement can expose at most a handful of nested
   constructs; anything deeper than this is a cycle. *)
let max_rounds = 64

(* The round loop: [round] maps its input to [Some text] when it
   rewrote something, and [next] makes the following round's input
   from that text. *)
let converge ~(next : string -> 'a) (round : 'a -> string option) (x : 'a) :
    'a =
  let rec go n x =
    if n > max_rounds then
      failwith "Preprocess: replacement rounds did not converge";
    match round x with
    | None -> x
    | Some text -> go (n + 1) (next text)
  in
  go 0 x

(** [fixpoint f source] — rounds of [f] over source text until one
    changes nothing. *)
let fixpoint (f : string -> string option) source =
  converge ~next:Fun.id f source

(* Every worksharing loop's form, with its collapse chain, is checked
   once on the user's text, so a loop-form error names the user's line
   rather than a line of the outlined text the lowering passes read. *)
let check_loops (c : Synth.ctx) =
  Array.iteri
    (fun dir (n : Zr.Ast.node) ->
      match n.tag with
      | Omp_for | Omp_parallel_for | Omp_taskloop ->
          ignore (Nest.lowered c.ast dir)
      | _ -> ())
    c.ast.nodes

(** [run_parsed ?name source] — the full pipeline, returning the parse
    of the output: Zr with OpenMP pragmas in, plain Zr calling the
    [.omp.internal] runtime out. *)
let run_parsed ?(name = "<input>") (source : string) : Synth.ctx =
  let counter = ref 0 in
  let task_counter = ref 0 in
  let round = function
    | Loop_transforms -> Transform.round ~force:false
    | Split_combined -> Sync.split_round
    | Parallel_regions -> Outline.round ~counter
    | Worksharing_loops -> Loops.round
    | Tasking -> Tasking.round ~counter:task_counter
    | Sync -> Sync.sync_round
  in
  let parse = Synth.parse ~name in
  let c = parse source in
  check_loops c;
  List.fold_left (fun c step -> converge ~next:parse (round step) c) c steps

(** [run ?name source] — the output text of {!run_parsed}. *)
let run ?name source = Synth.text (run_parsed ?name source)
