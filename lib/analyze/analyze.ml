(** [zrc analyze]: static data-sharing, dependence and autoscoping
    analysis for Zr OpenMP programs — a backend that never executes
    the program.

    The pipeline is three passes plus a rewriter:

    + {!Dataflow} collects per-variable/per-array access sets for every
      parallel region, with multiplicities, barrier phases,
      synchronisation and subscript shapes;
    + {!Depend} decides, pair by pair, which accesses can conflict —
      ZIV/SIV subscript tests with direction vectors for the affine
      shapes, conservative [MAY] degradation for everything else;
    + {!Autoscope} turns conflicts into clause diagnoses
      ([reduction]/[atomic]/[nowait] repairs, [default(none)]
      completeness, [private]-vs-[firstprivate]) with precise clause
      spans;
    + {!Fix} renders the repairs back onto the source text;
      {!fix_to_fixpoint} reapplies analyse-and-rewrite until the
      program is clean or stable.

    The taxonomy: [PROVEN] findings are defects the analysis is sure
    of (a conforming execution with >= 2 threads exhibits them — the
    dynamic checker must be able to observe each one); [MAY] findings
    are conservative and advisory, and never affect the verdict or
    exit code; a program is [CLEAN] when it has no findings of either
    confidence. *)

module Dataflow = Dataflow
module Depend = Depend
module Autoscope = Autoscope
module Fix = Fix
module Report = Check.Report

type result = {
  report : Report.t;       (** verdict-affecting findings, backend
                               ["analyze"], exit code discipline of
                               {!Report.exit_code} *)
  may : Report.finding list;  (** advisory findings *)
  fixes : Fix.action list;
}

let dedup_by_line fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Report.finding) ->
      if Hashtbl.mem seen f.Report.line then false
      else begin
        Hashtbl.add seen f.Report.line ();
        true
      end)
    fs

(** Analyse a program; never executes it.  A parse error, or a
    worksharing loop the lowering rejects ({!Preproc.Preprocess.check_loops}),
    is the one error finding, with the message every other entry point
    reports. *)
let run ?(name = "<input>") source : result =
  match
    let ast, spans = Zr.Parser.parse_string ~name source in
    Preproc.Preprocess.check_loops { Preproc.Synth.ast; spans };
    (ast, spans)
  with
  | exception Zr.Source.Error msg ->
      { report =
          Report.make ~backend:"analyze" ~name [ Report.error ~detail:msg ];
        may = [];
        fixes = [] }
  | ast, spans ->
      let df = Dataflow.run ast spans in
      let out = Autoscope.run df in
      (* advisory: loop transforms the preprocessor would refuse, with
         the legality verdict in the rendered line (the refusal itself
         is safe — the clause is stripped — so these never affect the
         exit code) *)
      let transform_may =
        Preproc.Transform.assess { Preproc.Synth.ast; spans }
        |> List.map (fun (r : Preproc.Transform.refusal) ->
               Report.lint ~rule:"transform"
                 ~detail:
                   (Printf.sprintf "line %d: %s refused [%s]: %s" r.line
                      r.clause
                      (match r.verdict with
                       | Preproc.Transform.Proven -> "PROVEN"
                       | Preproc.Transform.May -> "MAY")
                      r.reason)
                 ())
      in
      { report =
          Report.make ~backend:"analyze" ~source:ast.Zr.Ast.source ~name
            out.Autoscope.findings;
        may =
          List.sort compare (dedup_by_line out.Autoscope.may)
          @ transform_may;
        fixes = out.Autoscope.fixes }

(** The strongest static verdict: no findings of either confidence. *)
let clean r = Report.clean r.report && r.may = []

let apply_fixes ~name source (fixes : Fix.action list) : string option =
  if fixes = [] then None
  else
    match Zr.Parser.parse_string ~name source with
    | exception Zr.Source.Error _ -> None
    | ast, spans -> (
        match Fix.replacements ~ast ~spans fixes with
        | [] -> None
        | rs -> Some (Preproc.Synth.apply_replacements source rs))

(** [fix_to_fixpoint source] — repeatedly analyse and rewrite until no
    repair remains, the rewrite stops changing the text, or the round
    bound is hit.  Returns the final source, its analysis and the
    number of rewrite rounds applied. *)
let fix_to_fixpoint ?(name = "<input>") ?(max_rounds = 8) source :
    string * result * int =
  let rec go src rounds =
    let r = run ~name src in
    if r.fixes = [] || rounds >= max_rounds then (src, r, rounds)
    else
      match apply_fixes ~name src r.fixes with
      | None -> (src, r, rounds)
      | Some src' when src' = src -> (src, r, rounds)
      | Some src' -> go src' (rounds + 1)
  in
  go source 0
