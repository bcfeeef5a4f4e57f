(** [zrc --check]: vector-clock race detection and DPOR exploration
    for Zr OpenMP programs.

    This is the library's entry point (and root module).  A check runs
    three passes over a program:

    + execution-free lints on the original AST ({!Lint});
    + the preprocessor, whose [default(none)] diagnostic is converted
      into a lint finding;
    + the dynamic pass: {!Dpor} drives repeated executions of the
      program on the cooperative vector-clocked runtime ({!Sched}), and
      every happens-before violation observed by the {!Race} detector —
      plus barrier divergences and runtime errors — becomes a finding.

    Everything is deterministic for a fixed configuration: each
    execution replays a decision prefix, the frontier is drained in a
    fixed order, and the report is deduplicated and sorted.  The
    happens-before model and its limits are documented in DESIGN.md. *)

module Report = Report
module Vc = Vc
module Race = Race
module Sched = Sched
module Dpor = Dpor
module Lint = Lint

(** How the dynamic pass explores interleavings: exhaust the reduced
    interleaving space (up to [max_execs] executions,
    lowest-preemption-count prefixes first) and report COMPLETE or
    BOUNDED. *)
type exploration_cfg = Dpor of { max_execs : int; preempt_bound : int }

type config = {
  nthreads : int;    (** team size for the checked runs *)
  lint : bool;       (** run the execution-free lints *)
  exploration : exploration_cfg;
}

let default_config =
  { nthreads = 4; lint = true;
    exploration = Dpor { max_execs = 256; preempt_bound = 2 } }

let substr_index s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The id of a default(none) finding names the offending variables, so
   the preprocessor-raised lint and the static analyser's per-directive
   scope finding coincide and merge cleanly. *)
let default_none_id msg =
  let fallback = "lint|default-none" in
  match substr_index msg "variables " with
  | None -> fallback
  | Some i -> (
      let rest = String.sub msg (i + 10) (String.length msg - i - 10) in
      match substr_index rest " are referenced" with
      | None -> fallback
      | Some j ->
          let vars =
            String.sub rest 0 j |> String.split_on_char ','
            |> List.map String.trim |> List.sort compare
          in
          "lint|default-none|" ^ String.concat "," vars)

(* The dynamic pass: findings, and how the interleaving space was
   explored (for the report's verdict). *)
let dynamic ~config ~load ~run =
  let (Dpor { max_execs; preempt_bound }) = config.exploration in
  let run_one ex =
    Sched.run_controlled ~load ~run ~nthreads:config.nthreads ~ex ()
  in
  let findings, stats = Dpor.explore ~max_execs ~preempt_bound ~run_one in
  let executions = stats.Dpor.executions in
  ( findings,
    match stats.Dpor.verdict with
    | Dpor.Complete -> Report.Complete { executions }
    | Dpor.Bounded { within_bound_left } ->
        Report.Bounded { executions; preempt_bound; within_bound_left } )

(** Check a whole program (its [main] drives the dynamic pass; a
    program without [main] gets the static passes only). *)
let check_source ?(name = "<input>") ?(config = default_config) src :
    Report.t =
  match (if config.lint then Lint.run ~name src else []) with
  | exception Zr.Source.Error msg ->
      Report.make ~name [ Report.error ~detail:msg ]
  | lints -> (
      match Interp.parse ~name src with
      | exception Zr.Source.Error msg ->
          let f =
            if substr_index msg "default(none)" <> None then
              Report.lint ~id:(default_none_id msg) ()
                ~rule:"default-none" ~detail:msg
            else Report.error ~detail:msg
          in
          Report.make ~name (f :: lints)
      | ast ->
          let res = Interp.resolve ast in
          let load () = Interp.instantiate res in
          if not (Hashtbl.mem (load ()).Interp.fns "main") then
            Report.make ~name lints
          else
            let run prog = ignore (Interp.run_main prog) in
            let dyn, expl = dynamic ~config ~load ~run in
            Report.make ~name ~exploration:expl (lints @ dyn))

(** Check a program driven by a host entry point instead of [main] —
    how the NPB Zr kernels are checked: the caller registers its host
    functions, then [entry] receives the loaded program and performs
    the calls. *)
let check_run ?(name = "<zr>") ?(config = default_config) ~source
    ~(entry : Interp.program -> unit) () : Report.t =
  let lints =
    if config.lint then
      try Lint.run ~name source with Zr.Source.Error _ -> []
    else []
  in
  match Interp.parse ~name source with
  | exception Zr.Source.Error msg ->
      Report.make ~name [ Report.error ~detail:msg ]
  | ast ->
      let res = Interp.resolve ast in
      let load () = Interp.instantiate res in
      let dyn, expl = dynamic ~config ~load ~run:entry in
      Report.make ~name ~exploration:expl (lints @ dyn)
