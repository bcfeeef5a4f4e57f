(* The frontend called stage by stage, so a traced run can time each
   layer from outside: tokenizer, parser, the six preprocessor passes
   (each driven to its fixpoint exactly as Preproc.Preprocess.run does),
   load, staging for each tier, and the static analyser. *)

module P = Preproc

let pass_names =
  [| "transform"; "split_combined"; "outline"; "loops"; "tasking"; "sync" |]

let pass_index = function
  | P.Preprocess.Loop_transforms -> 0
  | Split_combined -> 1
  | Parallel_regions -> 2
  | Worksharing_loops -> 3
  | Tasking -> 4
  | Sync -> 5

type stats = {
  mutable tokenize_s : float;
  mutable parse_s : float;
  mutable tokens : int;
  mutable nodes : int;
  pass_s : float array;
  mutable rounds : int;
  mutable out_bytes : int;
  mutable load_s : float;
  mutable stage_s : float;
  mutable stage_bc_s : float;
  mutable analyze_s : float;
}

let fresh () =
  { tokenize_s = 0.; parse_s = 0.; tokens = 0; nodes = 0;
    pass_s = Array.make (Array.length pass_names) 0.; rounds = 0;
    out_bytes = 0; load_s = 0.; stage_s = 0.; stage_bc_s = 0.;
    analyze_s = 0. }

let timed ~layer name f = Timing.time (fun () -> Trace.span ~layer name f)

(* Preprocess pass by pass, accumulating each pass's time and rounds. *)
let preprocess st ~name source =
  let counter = ref 0 and task_counter = ref 0 in
  let run_step src step =
    let f =
      match step with
      | P.Preprocess.Loop_transforms -> fun s -> P.Transform.run ~name s
      | Split_combined -> P.Sync.split_combined ~name
      | Parallel_regions -> P.Outline.run ~name ~counter
      | Worksharing_loops -> P.Loops.run ~name
      | Tasking -> P.Tasking.run ~name ~counter:task_counter
      | Sync -> P.Sync.run_sync ~name
    in
    let counted s =
      let r = f s in
      if r <> None then st.rounds <- st.rounds + 1;
      r
    in
    let i = pass_index step in
    let out, dt =
      timed ~layer:"preproc" ("preproc." ^ pass_names.(i)) (fun () ->
          P.Preprocess.fixpoint counted src)
    in
    st.pass_s.(i) <- st.pass_s.(i) +. dt;
    out
  in
  let out = List.fold_left run_step source P.Preprocess.steps in
  st.out_bytes <- st.out_bytes + String.length out;
  out

let stage st backend prog =
  let name, acc =
    match backend with
    | `Bytecode -> ("interp.stage_bc", fun dt -> st.stage_bc_s <- st.stage_bc_s +. dt)
    | `Compiled | `Ast -> ("interp.stage", fun dt -> st.stage_s <- st.stage_s +. dt)
  in
  let compiled, dt =
    timed ~layer:"interp" name (fun () -> Zigomp.stage ~backend prog)
  in
  acc dt;
  compiled

let load st ~name pre =
  let prog, dt =
    timed ~layer:"interp" "interp.load" (fun () ->
        Interp.load ~name ~preprocess:false pre)
  in
  st.load_s <- st.load_s +. dt;
  prog

(* [compile] — Zigomp.compile, called stage by stage while tracing. *)
let compile ?(backend = `Bytecode) ~name source =
  if not !Trace.enabled then Zigomp.compile ~backend ~name source
  else
    let st = fresh () in
    stage st backend (load st ~name (preprocess st ~name source))

let analyze ~name source =
  Trace.span ~layer:"analyze" "analyze.run" (fun () ->
      Zigomp.analyze ~name source)

(* [breakdown st ~name source] — one full frontend pass over [source]
   with every stage timed, both tiers staged, and the analyser run.
   Returns the preprocessed text. *)
let breakdown st ~name source =
  let tokens, tok_s =
    timed ~layer:"zr" "zr.tokenize" (fun () ->
        Zr.Tokenizer.tokenize (Zr.Source.of_string ~name source))
  in
  let (ast, _), parse_s =
    timed ~layer:"zr" "zr.parse" (fun () -> Zr.Parser.parse_string ~name source)
  in
  st.tokenize_s <- st.tokenize_s +. tok_s;
  st.parse_s <- st.parse_s +. parse_s;
  st.tokens <- st.tokens + Array.length tokens;
  st.nodes <- st.nodes + Array.length ast.Zr.Ast.nodes;
  let pre = preprocess st ~name source in
  let prog = load st ~name pre in
  ignore (stage st `Compiled prog);
  ignore (stage st `Bytecode prog);
  let _, an_s = Timing.time (fun () -> analyze ~name source) in
  st.analyze_s <- st.analyze_s +. an_s;
  pre

let ms s = 1e3 *. s

(* The per-layer frontend metrics of one breakdown. *)
let metrics st =
  [ ("zr.tokenize_ms", "ms", ms st.tokenize_s);
    ("zr.parse_ms", "ms", ms st.parse_s);
    ("zr.tokens", "count", float_of_int st.tokens);
    ("zr.nodes", "count", float_of_int st.nodes) ]
  @ Array.to_list
      (Array.mapi
         (fun i n -> ("preproc." ^ n ^ "_ms", "ms", ms st.pass_s.(i)))
         pass_names)
  @ [ ("preproc.rounds", "count", float_of_int st.rounds);
      ("preproc.out_bytes", "bytes", float_of_int st.out_bytes);
      ("interp.load_ms", "ms", ms st.load_s);
      ("interp.stage_ms", "ms", ms st.stage_s);
      ("interp.stage_bc_ms", "ms", ms st.stage_bc_s);
      ("analyze.run_ms", "ms", ms st.analyze_s) ]
