(** Corpus batch mode: every fixture, one process.

    [zrc check --corpus DIR] (and [zrc analyze --corpus DIR]) walk
    [DIR] for [.zr] fixtures and run each through the static analyser
    plus — in check mode — the dynamic checker, exactly as the
    per-file commands would, then append the three bundled NPB Zr
    kernels (CG, EP, IS) driven by their host entry points.  The
    result is one machine-readable summary (schema [zigomp-corpus/1])
    whose exit code is the maximum of the per-entry exit codes, so a
    single invocation replaces CI's per-fixture shell loops and the
    report artifact captures the whole corpus at once. *)

module Report = Check.Report
module V = Interp.Value

type mode = Mcheck | Manalyze

let mode_name = function Mcheck -> "check" | Manalyze -> "analyze"

type entry = {
  path : string;            (** fixture path, or [npb/<kernel>.zr] *)
  report : Report.t;        (** merged report, as the per-file command *)
  may : Report.finding list;  (** analyze-mode advisories *)
}

type t = {
  mode : mode;
  entries : entry list;     (** fixtures in path order, then kernels *)
  total_execs : int;        (** dynamic executions summed over entries *)
  exit : int;               (** max of the per-entry exit codes *)
}

(** [.zr] files under [dir], recursively, in sorted order. *)
let rec discover dir =
  match Sys.readdir dir with
  | exception Sys_error msg ->
      failwith (Printf.sprintf "corpus: cannot read %s: %s" dir msg)
  | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun f ->
             let p = Filename.concat dir f in
             if Sys.is_directory p then discover p
             else if Filename.check_suffix p ".zr" then [ p ]
             else [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One fixture, exactly as `zrc check FILE` / `zrc analyze FILE`. *)
let run_entry ~mode ~config ~no_static ~name source =
  match mode with
  | Manalyze ->
      let r = Analyze.run ~name source in
      { path = name; report = r.Analyze.report; may = r.Analyze.may }
  | Mcheck ->
      let dynamic = Check.check_source ~name ~config source in
      if no_static then { path = name; report = dynamic; may = [] }
      else
        let static = (Analyze.run ~name source).Analyze.report in
        { path = name; report = Report.merge ~static ~dynamic; may = [] }

(* ------------------------- the NPB kernels ------------------------ *)

(* A small SPD system for conj_grad (the tridiagonal [-1, 4, -1]
   matrix): the checked problem is tiny — the happens-before structure
   is identical at any size. *)
let spd_args n =
  let rows =
    Array.init n (fun i ->
        List.filter
          (fun (j, _) -> j >= 0 && j < n)
          [ (i - 1, -1.0); (i, 4.0); (i + 1, -1.0) ])
  in
  let rowstr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> rowstr.(i + 1) <- rowstr.(i) + List.length r) rows;
  let nnz = rowstr.(n) in
  let colidx = Array.make nnz 0 in
  let a = Array.make nnz 0. in
  Array.iteri
    (fun i r ->
      List.iteri
        (fun k (j, v) ->
          colidx.(rowstr.(i) + k) <- j;
          a.(rowstr.(i) + k) <- v)
        r)
    rows;
  let x = Array.make n 1.0 in
  let alloc () = Array.make n 0. in
  [ V.VInt n; V.VIntArr rowstr; V.VIntArr colidx; V.VFloatArr a;
    V.VFloatArr x; V.VFloatArr (alloc ()); V.VFloatArr (alloc ());
    V.VFloatArr (alloc ()); V.VFloatArr (alloc ()) ]

let kernel_sources =
  [ ("npb/conj_grad.zr", Harness.Zr_cg.conj_grad_src);
    ("npb/ep_main.zr", Harness.Zr_ep.src);
    ("npb/is_rank.zr", Harness.Zr_is.src) ]

let check_kernel ~config ~no_static name =
  let checked ~source ~entry =
    let dynamic = Check.check_run ~name ~config ~source ~entry () in
    if no_static then { path = name; report = dynamic; may = [] }
    else
      let static = (Analyze.run ~name source).Analyze.report in
      { path = name; report = Report.merge ~static ~dynamic; may = [] }
  in
  match name with
  | "npb/conj_grad.zr" ->
      checked ~source:Harness.Zr_cg.conj_grad_src
        ~entry:(fun prog ->
          ignore (Interp.call prog "conj_grad" (spd_args 16)))
  | "npb/ep_main.zr" ->
      Harness.Zr_ep.with_hosts (fun () ->
          checked ~source:Harness.Zr_ep.src
            ~entry:(fun prog ->
              let sums = Array.make 2 0. in
              let q = Array.make Npb.Ep.nq 0. in
              ignore
                (Interp.call prog "ep_main"
                   (Harness.Zr_ep.args ~nn:4 sums q))))
  | "npb/is_rank.zr" ->
      (* a shrunken problem: 1024 keys, 16 buckets, 2 iterations *)
      let p =
        { Npb.Classes.Is.cls = Npb.Classes.S; total_keys_log2 = 10;
          max_key_log2 = 7; num_buckets_log2 = 4; max_iterations = 2 }
      in
      Harness.Zr_is.with_hosts (fun () ->
          checked ~source:Harness.Zr_is.src
            ~entry:(fun prog ->
              let d =
                Harness.Zr_is.make_data p ~nthreads:config.Check.nthreads
              in
              ignore
                (Interp.call prog "is_rank"
                   (Harness.Zr_is.rank_args d ~itlo:1
                      ~ithi:p.Npb.Classes.Is.max_iterations))))
  | _ -> invalid_arg "Corpus.check_kernel"

let kernel_entry ~mode ~config ~no_static (name, source) =
  match mode with
  | Manalyze ->
      let r = Analyze.run ~name source in
      { path = name; report = r.Analyze.report; may = r.Analyze.may }
  | Mcheck -> check_kernel ~config ~no_static name

(* --------------------------- the sweep ---------------------------- *)

let executions = Report.executions

(** Run the corpus: fixtures under [dir] in path order, then the NPB
    kernels (unless [kernels] is [false]).  A fixture whose check
    raises is reported as an [error] finding, not a crash — one bad
    fixture must not hide the rest of the corpus.  A directory with no
    fixtures at all is a [Failure], not an empty (vacuously clean)
    report: a mistyped path must not read as a passing corpus. *)
let run ?(config = Check.default_config) ?(kernels = true)
    ?(no_static = false) ~mode ~dir () : t =
  let guarded name f =
    try f () with
    | Zr.Source.Error msg | Failure msg | Invalid_argument msg ->
        { path = name;
          report =
            Report.make ~name [ Report.error ~detail:msg ];
          may = [] }
  in
  let paths = discover dir in
  if paths = [] then
    failwith
      (Printf.sprintf
         "corpus: no .zr fixtures under %s — an empty corpus would \
          report vacuously clean"
         dir);
  let fixtures =
    List.map
      (fun path ->
        guarded path (fun () ->
            run_entry ~mode ~config ~no_static ~name:path (read_file path)))
      paths
  in
  let kernel_entries =
    if not kernels then []
    else
      List.map
        (fun (name, source) ->
          guarded name (fun () ->
              kernel_entry ~mode ~config ~no_static (name, source)))
        kernel_sources
  in
  let entries = fixtures @ kernel_entries in
  { mode;
    entries;
    total_execs =
      List.fold_left (fun acc e -> acc + executions e.report) 0 entries;
    exit =
      List.fold_left (fun acc e -> max acc (Report.exit_code e.report)) 0
        entries }

let findings t =
  List.fold_left
    (fun acc e -> acc + List.length e.report.Report.findings)
    0 t.entries

let summary t =
  Printf.sprintf
    "corpus[%s]: %d entr%s, %d finding(s), %d execution(s), exit %d"
    (mode_name t.mode) (List.length t.entries)
    (if List.length t.entries = 1 then "y" else "ies")
    (findings t) t.total_execs t.exit

let to_string t =
  String.concat "\n"
    (List.map (fun e -> Report.to_string e.report) t.entries
    @ [ summary t ])

let to_json t =
  let entry e =
    Printf.sprintf "{\"path\": \"%s\", \"report\": %s}"
      (Report.json_escape e.path)
      (Report.to_json ~may:e.may e.report)
  in
  String.concat ""
    [ "{\"schema\": \"zigomp-corpus/1\"";
      Printf.sprintf ", \"mode\": \"%s\"" (mode_name t.mode);
      Printf.sprintf ", \"entries\": [%s]"
        (String.concat ", " (List.map entry t.entries));
      Printf.sprintf ", \"total_executions\": %d" t.total_execs;
      Printf.sprintf ", \"exit\": %d" t.exit;
      "}" ]
