(* Smoke test of the end-to-end benchmark, run from the workspace root:
   every workload at toy sizes, traced and untraced.  It checks what the
   benchmark's users rely on: every operation passes its output check,
   the one-line result names exactly the metrics BENCHMARK.json
   declares, a report compared with itself is unchanged, and each trace
   is JSON with a traceEvents array. *)

open Perfbench

let e2e = Sys.argv.(1)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench smoke: " ^ s);
      exit 1)
    fmt

let dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "perfbench-smoke-%d" (Unix.getpid ()))

(* Run e2e with [args]; exit code and non-empty stdout lines.  Its tables
   go to a log, shown only when the run fails. *)
let run args =
  let log = Filename.concat dir "stderr.log" in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process e2e (Array.of_list (e2e :: args)) Unix.stdin out_w err
  in
  Unix.close out_w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> 255
  in
  if code <> 0 then prerr_string (In_channel.with_open_bin log In_channel.input_all);
  (code, List.filter (fun l -> l <> "") (String.split_on_char '\n' out))

let last lines = List.nth lines (List.length lines - 1)

let names key j =
  List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key j))

let spec = Json.read_file "BENCHMARK.json"

let () =
  (match spec with
   | Json.Obj kvs ->
       let keys = List.sort compare (List.map fst kvs) in
       if keys
          <> [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds";
               "workloads" ]
       then fail "BENCHMARK.json has keys %s" (String.concat ", " keys)
   | _ -> fail "BENCHMARK.json is not an object");
  Unix.mkdir dir 0o755;
  let report = Filename.concat dir "report.json" in
  (* every workload, traced, each in its own child process *)
  let code, _ = run [ "--smoke"; "--trace-dir"; dir; "--out"; report ] in
  if code <> 0 then fail "traced smoke run exited %d" code;
  let r = Json.read_file report in
  let workloads = Json.to_list (Json.member "workloads" r) in
  let run_names = List.map (fun w -> Json.to_str (Json.member "workload" w)) workloads in
  if run_names <> names "workloads" spec then
    fail "ran workloads %s" (String.concat ", " run_names);
  List.iter
    (fun w ->
      let name = Json.to_str (Json.member "workload" w) in
      if Json.to_int (Json.member "failed_ops" w) <> 0
         || not (Json.to_bool (Json.member "correct" w))
      then fail "%s: failed operations" name;
      let trace = Json.read_file (Filename.concat dir (name ^ ".trace.json")) in
      match Json.member "traceEvents" trace with
      | Json.Arr (_ :: _) -> ()
      | _ -> fail "%s: trace has no traceEvents" name)
    workloads;
  (* the one-line result names exactly the declared metrics *)
  let result traced =
    let code, lines =
      run
        ([ "--smoke"; "--workload"; "tasking" ]
        @ if traced then [ "--trace-dir"; dir ] else [])
    in
    if code <> 0 then fail "tasking (traced: %b) exited %d" traced code;
    let j = Json.of_string (last lines) in
    (match j with
     | Json.Obj kvs ->
         if List.map fst kvs <> [ "correct"; "attempted"; "failed"; "metrics" ] then
           fail "result keys %s" (String.concat ", " (List.map fst kvs))
     | _ -> fail "result is not an object");
    if Json.to_int (Json.member "failed" j) <> 0 then fail "failed operations";
    match Json.member "metrics" j with
    | Json.Obj kvs -> List.map fst kvs
    | _ -> fail "result has no metrics"
  in
  if result false <> names "end_to_end" spec then
    fail "untraced result does not list the end_to_end metrics";
  if result true <> names "per_layer" spec then
    fail "traced result does not list the per_layer metrics";
  (* a report compared with itself changes nothing *)
  let code, lines = run [ "compare"; report; report ] in
  if code <> 0 then fail "compare of a report with itself exited %d" code;
  List.iter
    (fun l ->
      List.iter
        (fun bad ->
          if List.mem bad (String.split_on_char ' ' l) then
            fail "compare of a report with itself: %s" l)
        [ "worse"; "better"; "unresolved" ])
    lines;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  print_endline "perfbench smoke: ok"
