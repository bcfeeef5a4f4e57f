(* Metric definitions, the benchmark's JSON report (schema
   zigomp-e2e/1), the one-line result printed last, and the
   comparison of two reports. *)

(* The metric definitions live in BENCHMARK.json, at the root of the
   repository: each end-to-end metric with its unit, direction and the
   share of the baseline median it may worsen by; each per-layer metric
   with its unit and direction.  End-to-end metrics are reported by
   every workload of an untraced run, per-layer ones by every workload
   of a traced run. *)
type spec = { name : string; unit_ : string; higher : bool; bound : float option }

type specs = { end_to_end : spec list; per_layer : spec list }

let spec_file = "BENCHMARK.json"

let load_specs () =
  let j = Json.read_file spec_file in
  let specs key =
    List.map
      (fun m ->
        { name = Json.to_str (Json.member "name" m);
          unit_ = Json.to_str (Json.member "unit" m);
          higher = Json.to_str (Json.member "better" m) = "higher";
          bound =
            (match Json.member "bound" m with
             | Json.Num b -> Some b
             | _ -> None) })
      (Json.to_list (Json.member key j))
  in
  { end_to_end = specs "end_to_end"; per_layer = specs "per_layer" }

(* Units a workload that never does the work may report as zero: counts
   per operation and shares. *)
let zero_ok unit_ = unit_ = "count/op" || unit_ = "%"

type workload_report = {
  workload : string;
  traced : bool;
  correct : bool;
  ops : int;
  failed_ops : int;
  errors : string list;
  metrics : Workloads.metric list;
}

type t = {
  seed : int;
  nproc : int;
  threads : int;
  smoke : bool;
  workloads : workload_report list;
}

let schema = "zigomp-e2e/1"

let find_metric (w : workload_report) name =
  List.find_opt (fun (m : Workloads.metric) -> m.name = name) w.metrics

(* ------------------------------ JSON ------------------------------ *)

let summary_json (m : Workloads.metric) =
  let s = Timing.summarize m.samples in
  let open Json in
  Obj
    ([ ("unit", Str m.unit_); ("n", Num (float_of_int s.n));
       ("median", Num s.median); ("q1", Num s.q1); ("q3", Num s.q3) ]
    @ (match s.p90 with Some p -> [ ("p90", Num p) ] | None -> [])
    @ [ ("samples", Arr (Array.to_list (Array.map (fun v -> Num v) s.samples))) ])

let workload_json w =
  let open Json in
  Obj
    [ ("workload", Str w.workload); ("traced", Bool w.traced);
      ("correct", Bool w.correct); ("ops", Num (float_of_int w.ops));
      ("failed_ops", Num (float_of_int w.failed_ops));
      ("errors", Arr (List.map (fun e -> Str e) w.errors));
      ("metrics",
       Obj (List.map (fun (m : Workloads.metric) -> (m.name, summary_json m)) w.metrics)) ]

let to_json t =
  let open Json in
  Obj
    [ ("schema", Str schema); ("seed", Num (float_of_int t.seed));
      ("nproc", Num (float_of_int t.nproc));
      ("threads", Num (float_of_int t.threads));
      ("oversubscribed", Bool (t.nproc < t.threads));
      ("smoke", Bool t.smoke);
      ("workloads", Arr (List.map workload_json t.workloads)) ]

let workload_of_json j =
  let open Json in
  { workload = to_str (member "workload" j);
    traced = to_bool (member "traced" j);
    correct = to_bool (member "correct" j);
    ops = to_int (member "ops" j);
    failed_ops = to_int (member "failed_ops" j);
    errors = List.map to_str (to_list (member "errors" j));
    metrics =
      (match member "metrics" j with
       | Obj kvs ->
           List.map
             (fun (name, m) ->
               { Workloads.name;
                 unit_ = to_str (member "unit" m);
                 samples =
                   Array.of_list (List.map to_float (to_list (member "samples" m))) })
             kvs
       | _ -> []) }

let of_json j =
  let open Json in
  if to_str (member "schema" j) <> schema then
    failwith "not a zigomp-e2e/1 report";
  { seed = to_int (member "seed" j);
    nproc = to_int (member "nproc" j);
    threads = to_int (member "threads" j);
    smoke = to_bool (member "smoke" j);
    workloads = List.map workload_of_json (to_list (member "workloads" j)) }

(* The one-line result: the declared metrics of one workload, by median. *)
let result_line specs w =
  let value s =
    let v =
      match find_metric w s.name with
      | Some m -> (Timing.summarize m.samples).median
      | None when zero_ok s.unit_ -> 0.
      | None ->
          failwith (Printf.sprintf "%s: metric %s was not measured" w.workload s.name)
    in
    (s.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit_) ])
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool w.correct);
         ("attempted", Json.Num (float_of_int w.ops));
         ("failed", Json.Num (float_of_int w.failed_ops));
         ("metrics",
          Json.Obj
            (List.map value (if w.traced then specs.per_layer else specs.end_to_end))) ])

(* ------------------------------ text ------------------------------ *)

let print_table oc w =
  Printf.fprintf oc "== %s%s: %s, %d ops, %d failed\n" w.workload
    (if w.traced then " (traced)" else "")
    (if w.correct then "correct" else "INCORRECT")
    w.ops w.failed_ops;
  List.iter (fun e -> Printf.fprintf oc "   error: %s\n" e) w.errors;
  List.iter
    (fun (m : Workloads.metric) ->
      let s = Timing.summarize m.samples in
      Printf.fprintf oc "   %-34s %-8s median %-12.6g q1 %-12.6g q3 %-12.6g%s n %d\n"
        m.name m.unit_ s.median s.q1 s.q3
        (match s.p90 with
         | Some p -> Printf.sprintf " p90 %-12.6g" p
         | None -> "")
        s.n)
    w.metrics;
  flush oc

(* ----------------------------- compare ---------------------------- *)

(* One side of a comparison: a workload's metric pooled over one or more
   reports.  With one report the run's own samples give the spread; with
   several, each run contributes its median. *)
let pooled reports workload name =
  let runs =
    List.filter_map
      (fun t ->
        List.find_opt (fun w -> w.workload = workload) t.workloads
        |> Option.map (fun w -> (w, find_metric w name)))
      reports
  in
  match runs with
  | [ (_, Some m) ] -> Some (Timing.summarize m.samples)
  | _ ->
      let medians =
        List.filter_map
          (fun (_, m) ->
            Option.map
              (fun (m : Workloads.metric) -> (Timing.summarize m.samples).median)
              m)
          runs
      in
      if medians = [] then None else Some (Timing.summarize (Array.of_list medians))

let failure_share reports workload =
  let ops, failed =
    List.fold_left
      (fun (o, f) t ->
        List.fold_left
          (fun (o, f) w ->
            if w.workload = workload then (o + w.ops, f + w.failed_ops)
            else (o, f))
          (o, f) t.workloads)
      (0, 0) reports
  in
  if ops = 0 then 1. else float_of_int failed /. float_of_int ops

type verdict = Unchanged | Better | Worse | Unresolved | Info

let verdict_name = function
  | Unchanged -> "unchanged"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Info -> "-"

(* Within the bound is unchanged; beyond it, a baseline whose own
   quartiles are wider than the bound cannot tell better from noise.
   Metrics without a bound are shown, not judged. *)
let judge spec (old_s : Timing.summary) (new_s : Timing.summary) =
  let delta =
    if old_s.median = 0. then 0. else (new_s.median -. old_s.median) /. old_s.median
  in
  let v =
    match spec with
    | Some { bound = Some b; higher; _ } ->
        if Float.abs delta <= b then Unchanged
        else if Timing.rel_iqr old_s > b then Unresolved
        else if (delta > 0.) <> higher then Worse
        else Better
    | _ -> Info
  in
  (delta, v)

(* [compare_reports oc specs olds news] — prints one row per workload x
   metric present on both sides; returns [true] when nothing got worse
   and no workload's share of failed operations rose. *)
let compare_reports oc specs olds news =
  let workloads =
    List.concat_map (fun t -> List.map (fun w -> w.workload) t.workloads) olds
    |> List.sort_uniq compare
  in
  Printf.fprintf oc "%-15s %-32s %12s %12s %25s %9s %s\n" "workload" "metric"
    "old median" "new median" "old q1..q3" "delta" "verdict";
  let ok = ref true in
  List.iter
    (fun wl ->
      let names =
        List.concat_map
          (fun t ->
            List.concat_map
              (fun w ->
                if w.workload = wl then
                  List.map (fun (m : Workloads.metric) -> m.name) w.metrics
                else [])
              t.workloads)
          olds
        |> List.sort_uniq compare
      in
      List.iter
        (fun name ->
          match (pooled olds wl name, pooled news wl name) with
          | Some o, Some n ->
              let spec = List.find_opt (fun s -> s.name = name) specs.end_to_end in
              let delta, v = judge spec o n in
              if v = Worse then ok := false;
              Printf.fprintf oc "%-15s %-32s %12.6g %12.6g %12.6g..%-12.6g %+8.2f%% %s\n"
                wl name o.median n.median o.q1 o.q3 (100. *. delta)
                (verdict_name v)
          | _ -> ())
        names;
      let fo = failure_share olds wl and fn = failure_share news wl in
      if fn > fo then begin
        ok := false;
        Printf.fprintf oc "%-15s failed share rose from %.4f to %.4f: worse\n"
          wl fo fn
      end)
    workloads;
  !ok
