(* zrc — the Zr compiler driver.

   Subcommands mirror the stages the paper adds to the Zig compiler:

     zrc tokens FILE        dump the token stream (pragma sentinels included)
     zrc parse FILE         dump the AST node table and extra_data
     zrc preprocess FILE    run the OpenMP preprocessor, print the result
     zrc run FILE [-t N]    preprocess and execute main() on N threads *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* every Team.fork path — including serialised teams of one — wraps
   body failures in Worker_failure; unwrap for the user *)
let rec cause = function
  | Omprt.Team.Worker_failure (_, e) -> cause e
  | e -> e

(* [handle_errors' f] runs [f] for its exit code; [handle_errors f]
   runs a unit action and exits 0 on success.  Driver errors exit 1. *)
let handle_errors' f =
  try f () with e -> (
    match cause e with
    | Zr.Source.Error msg ->
        Printf.eprintf "error: %s\n" msg; 1
    | Interp.Value.Runtime_error msg ->
        Printf.eprintf "runtime error: %s\n" msg; 1
    | Failure msg | Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg; 1
    | e -> raise e)

let handle_errors f = handle_errors' (fun () -> f (); 0)

(* ---- tokens ---- *)

let tokens_cmd =
  let run file =
    handle_errors (fun () ->
        let src = Zr.Source.of_string ~name:file (read_file file) in
        let toks = Zr.Tokenizer.tokenize src in
        Array.iter
          (fun (t : Zr.Token.t) ->
            let line, col = Zr.Source.position src t.start in
            Printf.printf "%4d:%-3d %-18s %s\n" line col
              (Zr.Token.tag_to_string t.tag)
              (match t.tag with
               | Zr.Token.Identifier | Zr.Token.Int_literal
               | Zr.Token.Float_literal | Zr.Token.String_literal ->
                   Zr.Tokenizer.text src t
               | _ -> ""))
          toks)
  in
  Cmd.v (Cmd.info "tokens" ~doc:"Dump the token stream")
    Term.(const run $ file_arg)

(* ---- parse ---- *)

let parse_cmd =
  let run file =
    handle_errors (fun () ->
        let ast, _ = Zr.Parser.parse_string ~name:file (read_file file) in
        Printf.printf "%d nodes, %d extra_data words\n"
          (Array.length ast.Zr.Ast.nodes)
          (Array.length ast.Zr.Ast.extra_data);
        Array.iteri
          (fun i (n : Zr.Ast.node) ->
            Printf.printf "%4d  tag=%-16s main=%-4d lhs=%-6d rhs=%-6d\n" i
              (match n.tag with
               | Zr.Ast.Root -> "Root" | Zr.Ast.Fn_decl -> "Fn_decl"
               | Zr.Ast.Block -> "Block" | Zr.Ast.Var_decl -> "Var_decl"
               | Zr.Ast.Const_decl -> "Const_decl" | Zr.Ast.Assign -> "Assign"
               | Zr.Ast.While -> "While" | Zr.Ast.If -> "If"
               | Zr.Ast.Return -> "Return" | Zr.Ast.Break -> "Break"
               | Zr.Ast.Continue -> "Continue"
               | Zr.Ast.Expr_stmt -> "Expr_stmt" | Zr.Ast.Bin_op -> "Bin_op"
               | Zr.Ast.Un_op -> "Un_op" | Zr.Ast.Call -> "Call"
               | Zr.Ast.Index -> "Index" | Zr.Ast.Field -> "Field"
               | Zr.Ast.Deref -> "Deref" | Zr.Ast.Addr_of -> "Addr_of"
               | Zr.Ast.Ident -> "Ident" | Zr.Ast.Int_lit -> "Int_lit"
               | Zr.Ast.Float_lit -> "Float_lit"
               | Zr.Ast.String_lit -> "String_lit"
               | Zr.Ast.Bool_lit -> "Bool_lit"
               | Zr.Ast.Undefined_lit -> "Undefined_lit"
               | Zr.Ast.Struct_lit -> "Struct_lit"
               | Zr.Ast.Type_name -> "Type_name"
               | Zr.Ast.Type_slice -> "Type_slice"
               | Zr.Ast.Type_ptr -> "Type_ptr"
               | Zr.Ast.Omp_parallel -> "Omp_parallel"
               | Zr.Ast.Omp_for -> "Omp_for"
               | Zr.Ast.Omp_parallel_for -> "Omp_parallel_for"
               | Zr.Ast.Omp_barrier -> "Omp_barrier"
               | Zr.Ast.Omp_critical -> "Omp_critical"
               | Zr.Ast.Omp_master -> "Omp_master"
               | Zr.Ast.Omp_single -> "Omp_single"
               | Zr.Ast.Omp_atomic -> "Omp_atomic"
               | Zr.Ast.Omp_threadprivate -> "Omp_threadprivate"
               | Zr.Ast.Omp_task -> "Omp_task"
               | Zr.Ast.Omp_taskwait -> "Omp_taskwait"
               | Zr.Ast.Omp_taskloop -> "Omp_taskloop"
               | Zr.Ast.Omp_sections -> "Omp_sections"
               | Zr.Ast.Omp_section -> "Omp_section")
              n.main_token n.lhs n.rhs)
          ast.Zr.Ast.nodes)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Dump the AST node table")
    Term.(const run $ file_arg)

(* ---- preprocess ---- *)

let preprocess_cmd =
  let dump_transformed =
    Arg.(value & flag
         & info [ "dump-transformed" ]
             ~doc:"Stop after the loop-transformation stage (tile, \
                   unroll, interchange, legality checks) and print its \
                   output — the input to the rest of the lowering.  \
                   Prints the source unchanged when no transform \
                   applies.")
  in
  let run file dump_transformed =
    handle_errors (fun () ->
        let source = read_file file in
        if dump_transformed then
          let module P = Zigomp.Preprocessor in
          print_string
            (P.Preprocess.fixpoint (P.Transform.run ~name:file) source)
        else print_string (Zigomp.preprocess ~name:file source))
  in
  Cmd.v
    (Cmd.info "preprocess"
       ~doc:"Lower OpenMP pragmas to runtime calls; print the result")
    Term.(const run $ file_arg $ dump_transformed)

(* ---- run ---- *)

let run_cmd =
  let threads =
    Arg.(value & opt (some int) None
         & info [ "t"; "threads" ] ~docv:"N" ~doc:"Default team size")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Print a gprof-style per-construct profile on exit")
  in
  let backend =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("compiled", `Compiled); ("ast", `Ast);
                     ("bytecode", `Bytecode) ]))
             None
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"Execution backend: $(b,compiled) (staged closures, \
                   default), $(b,ast) (tree walker) or $(b,bytecode) \
                   (register VM for worksharing loop bodies, closures \
                   elsewhere).  Defaults to $(b,ZIGOMP_BACKEND) when \
                   set.")
  in
  let dump_bc =
    Arg.(value & flag
         & info [ "dump-bc" ]
             ~doc:"After the run, print the bytecode listing of every \
                   specialised loop body to stderr (drain label, \
                   per-instruction source lines, $(b,[unguarded]) \
                   markers on guard-elided accesses), and for each loop \
                   body that stayed on closures the reason.  Implies \
                   $(b,--backend bytecode) unless a backend is given.")
  in
  let run file threads profile backend dump_bc =
    handle_errors (fun () ->
        Option.iter Zigomp.set_num_threads threads;
        if profile then begin
          Omprt.Profile.reset ();
          Omprt.Profile.enable ()
        end;
        let backend =
          match backend with
          | Some _ -> backend
          | None -> if dump_bc then Some `Bytecode else None
        in
        let p = Zigomp.compile ?backend ~name:file (read_file file) in
        (match Zigomp.run_main p with
         | Zigomp.Value.VUnit -> ()
         | v -> print_endline (Zigomp.Value.to_string v));
        if dump_bc then
          List.iter
            (fun (label, listing) ->
              Printf.eprintf "=== %s ===\n%s" label listing)
            (Zigomp.bc_listings p);
        if profile then begin
          Omprt.Profile.disable ();
          prerr_string (Omprt.Profile.report ())
        end)
  in
  Cmd.v (Cmd.info "run" ~doc:"Preprocess and execute main()")
    Term.(const run $ file_arg $ threads $ profile $ backend $ dump_bc)

(* ---- analyze ---- *)

module Report = Zigomp.Checker.Report

(* The NPB Zr kernels ship inside the harness; `--kernel` analyses them
   without needing the source on disk. *)
let kernel_source = function
  | "cg" -> ("conj_grad.zr", Zigomp.Harness.Zr_cg.conj_grad_src)
  | "ep" -> ("ep.zr", Zigomp.Harness.Zr_ep.src)
  | "is" -> ("is.zr", Zigomp.Harness.Zr_is.src)
  | k -> failwith (Printf.sprintf "unknown kernel %S (expected cg|ep|is)" k)

(* Corpus batch mode, shared by `zrc check --corpus` and
   `zrc analyze --corpus`. *)
let do_corpus ?(no_static = false) ~mode ~config ~kernels ~json dir =
  let t = Zigomp.Corpus.run ~config ~kernels ~no_static ~mode ~dir () in
  if json then print_endline (Zigomp.Corpus.to_json t)
  else print_endline (Zigomp.Corpus.to_string t);
  t.Zigomp.Corpus.exit

let print_report ~json ~show_may (r : Zigomp.Analyzer.result) =
  if json then print_endline (Report.to_json ~may:r.Zigomp.Analyzer.may r.report)
  else begin
    print_endline (Report.to_string r.report);
    if show_may && r.may <> [] then begin
      Printf.printf "%d advisory (MAY) finding(s):\n"
        (List.length r.Zigomp.Analyzer.may);
      List.iter
        (fun (f : Report.finding) -> print_endline f.Report.line)
        r.Zigomp.Analyzer.may
    end
  end

let analyze_cmd =
  let file_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let kernel_opt =
    Arg.(value & opt (some string) None
         & info [ "kernel" ] ~docv:"NAME"
             ~doc:"Analyse a bundled NPB Zr kernel ($(b,cg), $(b,ep) or \
                   $(b,is)) instead of a file")
  in
  let json_opt =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the report as JSON (schema zigomp-report/1, \
                   shared with $(b,zrc check --json))")
  in
  let fix_opt =
    Arg.(value & flag
         & info [ "fix" ]
             ~doc:"Rewrite directives to repair PROVEN findings, \
                   re-analysing to a fixpoint; print the fixed source \
                   on stdout (report goes to stderr)")
  in
  let in_place_opt =
    Arg.(value & flag
         & info [ "in-place"; "i" ]
             ~doc:"With $(b,--fix): write the fixed source back to FILE")
  in
  let may_opt =
    Arg.(value & flag
         & info [ "may" ]
             ~doc:"Also print advisory (MAY) findings; they never \
                   affect the exit code")
  in
  let predict_opt =
    Arg.(value & flag
         & info [ "predict" ]
             ~doc:"For every legal tiling with literal bounds, print \
                   the roofline model's predicted cache working sets, \
                   L3 miss factors, effective arithmetic intensity and \
                   speedup (before vs after tiling) on the modelled \
                   machine.  Advisory; never affects the exit code.")
  in
  let predict_threads_opt =
    Arg.(value & opt int 1
         & info [ "predict-threads" ] ~docv:"N"
             ~doc:"Active threads assumed by $(b,--predict) (the \
                   per-thread working-set slice shrinks with the team)")
  in
  let print_predictions ~json ~name ~active source =
    match Zr.Parser.parse_string ~name source with
    | exception Zr.Source.Error _ -> ()
    | ast, spans ->
        let module T = Zigomp.Preprocessor.Transform in
        let module P = Zigomp.Simulator.Perfmodel in
        let fps = T.footprints { Zigomp.Preprocessor.Synth.ast; spans } in
        let m = Zigomp.Simulator.Machine.archer2 in
        (* the report owns stdout in JSON mode *)
        let ch = if json then stderr else stdout in
        let kib b = b /. 1024. in
        if fps = [] then
          Printf.fprintf ch
            "predict: no legal tiling with literal bounds\n"
        else
          List.iter
            (fun (fp : T.footprint) ->
              let cost =
                Zigomp.Model.Cost.make
                  ~flops:(fp.T.fp_iters *. float_of_int fp.T.fp_accesses)
                  ~bytes:fp.T.fp_bytes ()
              in
              let p =
                P.predict_tiling m ~active ~cost ~ws_before:fp.T.fp_ws_before
                  ~ws_after:fp.T.fp_ws_after
              in
              if fp.T.fp_ws_after >= fp.T.fp_ws_before then
                Printf.fprintf ch
                  "predict: line %d %s: ws %.1f KiB unchanged, no \
                   predicted change (speedup 1.00x)\n"
                  fp.T.fp_line fp.T.fp_desc (kib fp.T.fp_ws_before)
              else
                Printf.fprintf ch
                  "predict: line %d %s: ws %.1f KiB -> %.1f KiB, miss \
                   %.2f -> %.2f, AI %.3f -> %.3f flop/B, predicted \
                   speedup %.2fx\n"
                  fp.T.fp_line fp.T.fp_desc (kib fp.T.fp_ws_before)
                  (kib fp.T.fp_ws_after) p.P.miss_before p.P.miss_after
                  p.P.ai_before p.P.ai_after p.P.speedup)
            fps
  in
  let corpus_opt =
    Arg.(value & opt (some dir) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Batch mode: statically analyse every $(b,.zr) \
                   fixture under $(docv) plus the bundled NPB Zr \
                   kernels in one process; print one summary (JSON \
                   schema $(b,zigomp-corpus/1) with $(b,--json)) and \
                   exit with the maximum per-entry code")
  in
  let run file kernel corpus json fix in_place show_may predict
      predict_threads =
    handle_errors' (fun () ->
        match corpus with
        | Some dir ->
            if file <> None || kernel <> None || fix then
              failwith "--corpus excludes FILE, --kernel and --fix";
            do_corpus ~mode:Zigomp.Corpus.Manalyze
              ~config:Zigomp.Checker.default_config ~kernels:true ~json
              dir
        | None ->
        let name, source =
          match (kernel, file) with
          | Some k, None -> kernel_source k
          | None, Some f -> (f, read_file f)
          | Some _, Some _ -> failwith "FILE and --kernel are exclusive"
          | None, None -> failwith "expected FILE or --kernel"
        in
        if not fix then begin
          let r = Zigomp.analyze ~name source in
          print_report ~json ~show_may r;
          if predict then
            print_predictions ~json ~name ~active:predict_threads source;
          Report.exit_code r.Zigomp.Analyzer.report
        end
        else begin
          let fixed, r, rounds = Zigomp.analyze_fix ~name source in
          if in_place then begin
            (match (kernel, file) with
             | None, Some f when fixed <> source ->
                 let oc = open_out_bin f in
                 Fun.protect
                   ~finally:(fun () -> close_out oc)
                   (fun () -> output_string oc fixed)
             | _ -> ());
            print_report ~json ~show_may r
          end
          else if json then print_report ~json ~show_may r
          else begin
            print_string fixed;
            Printf.eprintf "%s\n" (Report.to_string r.Zigomp.Analyzer.report)
          end;
          if rounds > 0 then
            Printf.eprintf "analyze: %d fix round(s) applied\n" rounds;
          Report.exit_code r.Zigomp.Analyzer.report
        end)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically analyse data sharing, dependences and \
             autoscoping; never executes the program.  PROVEN findings \
             set exit code 2, a clean program exits 0.  $(b,--fix) \
             rewrites directives (reduction/atomic/nowait/firstprivate \
             repairs) until the analysis is clean.")
    Term.(const run $ file_opt $ kernel_opt $ corpus_opt $ json_opt
          $ fix_opt $ in_place_opt $ may_opt $ predict_opt
          $ predict_threads_opt)

(* ---- check ---- *)

let do_check file config ~json ~no_static =
  let source = read_file file in
  let dynamic = Zigomp.check ~name:file ~config source in
  let report =
    if no_static then dynamic
    else
      (* the static pre-pass: findings it PROVES are suppressed from
         the dynamic list by id, so one defect is reported once *)
      let static = (Zigomp.analyze ~name:file source).Zigomp.Analyzer.report in
      Report.merge ~static ~dynamic
  in
  if json then print_endline (Report.to_json report)
  else print_endline (Report.to_string report);
  Report.exit_code report

let threads_opt =
  Arg.(value & opt int 4
       & info [ "t"; "threads" ] ~docv:"N"
           ~doc:"Team size for the checked runs")

let no_lint_opt =
  Arg.(value & flag
       & info [ "no-lint" ] ~doc:"Skip the execution-free lints")

let check_json_opt =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Print the report as JSON (schema zigomp-report/1, \
                 shared with $(b,zrc analyze --json))")

let no_static_opt =
  Arg.(value & flag
       & info [ "no-static" ]
           ~doc:"Skip the static pre-pass (by default, findings the \
                 static analyser proves are reported once, from the \
                 static side); with $(b,--corpus), every entry \
                 reports raw dynamic findings")

let preempt_bound_opt =
  Arg.(value & opt int 2
       & info [ "preempt-bound" ] ~docv:"N"
           ~doc:"DPOR frontier order and BOUNDED verdict bound: \
                 prefixes forcing at most $(docv) preemptions are \
                 explored first, and a budget-truncated search \
                 reports whether any within-bound prefix was left")

let max_execs_opt =
  Arg.(value & opt int 256
       & info [ "max-execs" ] ~docv:"N"
           ~doc:"DPOR execution budget per checked program; when the \
                 reduced interleaving space needs more, the report \
                 verdict degrades from COMPLETE to BOUNDED (clean \
                 exit 1 instead of 0)")

(* The checker configuration, shared by `zrc check` and `zrc --check`. *)
let config_term =
  let make nthreads no_lint preempt_bound max_execs =
    { Zigomp.Checker.nthreads;
      lint = not no_lint;
      exploration = Zigomp.Checker.Dpor { max_execs; preempt_bound } }
  in
  Term.(const make $ threads_opt $ no_lint_opt $ preempt_bound_opt
        $ max_execs_opt)

let corpus_check_opt =
  Arg.(value & opt (some dir) None
       & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Batch mode: analyse and check every $(b,.zr) fixture \
                 under $(docv) plus the bundled NPB Zr kernels in one \
                 process; print one summary (JSON schema \
                 $(b,zigomp-corpus/1) with $(b,--json)) and exit with \
                 the maximum per-entry code")

let no_kernels_opt =
  Arg.(value & flag
       & info [ "no-kernels" ]
           ~doc:"With $(b,--corpus): skip the bundled NPB Zr kernels")

let check_cmd =
  let run file corpus no_kernels config json no_static =
    try
      match (corpus, file) with
      | Some dir, None ->
          do_corpus ~no_static ~mode:Zigomp.Corpus.Mcheck ~config
            ~kernels:(not no_kernels) ~json dir
      | None, Some file -> do_check file config ~json ~no_static
      | Some _, Some _ -> failwith "FILE and --corpus are exclusive"
      | None, None -> failwith "expected FILE or --corpus"
    with
    | Zr.Source.Error msg -> Printf.eprintf "error: %s\n" msg; 1
    | Failure msg | Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg; 1
  in
  let file_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Race-check a program: vector-clock happens-before \
             detection with DPOR exploration of the reduced \
             interleaving space (COMPLETE/BOUNDED verdicts), plus \
             static lints.  Exit 0 when clean and complete, 1 when \
             clean but budget-bounded, 2 when findings are reported.")
    Term.(const run $ file_opt $ corpus_check_opt $ no_kernels_opt
          $ config_term $ check_json_opt $ no_static_opt)

let () =
  let info =
    Cmd.info "zrc" ~version:"1.0.0"
      ~doc:"Zr compiler with OpenMP loop-directive support"
  in
  (* `zrc --check FILE` is accepted at top level as a synonym for the
     `check` subcommand, the spelling used throughout the docs. *)
  let default =
    let run check_file config =
      match check_file with
      | Some file ->
          `Ok
            (try do_check file config ~json:false ~no_static:false
             with
             | Zr.Source.Error msg -> Printf.eprintf "error: %s\n" msg; 1
             | Failure msg | Invalid_argument msg ->
                 Printf.eprintf "error: %s\n" msg; 1)
      | None -> `Help (`Pager, None)
    in
    let check_file =
      Arg.(value & opt (some file) None
           & info [ "check" ] ~docv:"FILE"
               ~doc:"Race-check $(docv) (same as the $(b,check) \
                     subcommand)")
    in
    Term.(ret (const run $ check_file $ config_term))
  in
  exit
    (Cmd.eval' ~catch:true
       (Cmd.group ~default info
          [ tokens_cmd; parse_cmd; preprocess_cmd; run_cmd; check_cmd;
            analyze_cmd ]))
