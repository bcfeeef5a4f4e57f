(* Edge cases of the worksharing lowering, end-to-end through the
   preprocessor and interpreter, plus direct tests of the kmpc
   protocol's static/dispatch entry points under unusual bounds:
   negative steps, non-unit strides, inclusive comparisons, empty and
   single-iteration spaces. *)

module V = Interp.Value

let () = Omprt.Api.set_num_threads 4

let vfloat = function
  | V.VFloat f -> f
  | v -> Alcotest.failf "expected float, got %s" (V.to_string v)

(* run one worksharing loop over a per-index hit array; check exactly-
   once coverage of precisely the expected index set.  [clauses] are
   appended to the enclosing [parallel]. *)
let run_loop ?(clauses = "") ~header ~size expected_hits =
  let src = Printf.sprintf {|
fn go(n: i64, hits: []f64) f64 {
    //$omp parallel shared(hits) firstprivate(n)%s
    {
        %s
    }
    return 0.0;
}
|} clauses header
  in
  let p = Interp.load ~name:"edge.zr" src in
  let hits = Array.make size 0. in
  ignore (Interp.call p "go" [ V.VInt size; V.VFloatArr hits ]);
  let expected = Array.make size 0. in
  List.iter (fun i -> expected.(i) <- expected.(i) +. 1.) expected_hits;
  Alcotest.(check (array (float 0.))) "exact coverage" expected hits

let test_negative_step () =
  run_loop ~size:10
    ~header:{|
        var i: i64 = 0;
        i = n - 1;
        //$omp for
        while (i > 0) : (i -= 1) {
            hits[i] = hits[i] + 1.0;
        }|}
    (List.init 9 (fun k -> k + 1))  (* 9 down to 1 *)

let test_negative_step_inclusive () =
  run_loop ~size:10
    ~header:{|
        var i: i64 = 0;
        i = n - 1;
        //$omp for schedule(dynamic, 3)
        while (i >= 0) : (i -= 1) {
            hits[i] = hits[i] + 1.0;
        }|}
    (List.init 10 Fun.id)

let test_stride_3 () =
  run_loop ~size:20
    ~header:{|
        var i: i64 = 0;
        //$omp for
        while (i < n) : (i += 3) {
            hits[i] = hits[i] + 1.0;
        }|}
    [ 0; 3; 6; 9; 12; 15; 18 ]

let test_stride_inclusive_upper () =
  run_loop ~size:16
    ~header:{|
        var i: i64 = 0;
        //$omp for schedule(static, 2)
        while (i <= 15) : (i += 5) {
            hits[i] = hits[i] + 1.0;
        }|}
    [ 0; 5; 10; 15 ]

let test_empty_space () =
  run_loop ~size:5
    ~header:{|
        var i: i64 = 0;
        i = 7;
        //$omp for
        while (i < 3) : (i += 1) {
            hits[0] = hits[0] + 1.0;
        }|}
    []

let test_single_iteration () =
  run_loop ~size:5
    ~header:{|
        var i: i64 = 2;
        //$omp for schedule(guided, 4)
        while (i < 3) : (i += 1) {
            hits[i] = hits[i] + 1.0;
        }|}
    [ 2 ]

let test_chunk_larger_than_space () =
  run_loop ~size:6
    ~header:{|
        var i: i64 = 0;
        //$omp for schedule(dynamic, 100)
        while (i < n) : (i += 1) {
            hits[i] = hits[i] + 1.0;
        }|}
    (List.init 6 Fun.id)

let test_num_threads_one () =
  let p = Interp.load ~name:"one.zr" {|
fn f(n: i64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) num_threads(1)
    while (i < n) : (i += 1) { s += 1.0; }
    return s;
}
|} in
  Alcotest.(check (float 0.)) "degenerate team of one" 50.
    (vfloat (Interp.call p "f" [ V.VInt 50 ]))

(* ---- direct kmpc protocol checks ---- *)

let test_kmpc_static_for_strided () =
  (* negative stride through the real static_for wrapper *)
  let visited = Atomic.make [] in
  Omprt.Omp.parallel ~num_threads:3 (fun () ->
      Omprt.Kmpc.static_for ~lo:20 ~hi:0 ~step:(-4) (fun i ->
          Omprt.Atomics.cas_loop visited (fun l -> i :: l)));
  Alcotest.(check (list int)) "strided descending coverage"
    [ 4; 8; 12; 16; 20 ]
    (List.sort compare (Atomic.get visited))

let test_kmpc_static_for_chunked () =
  let visited = Atomic.make [] in
  Omprt.Omp.parallel ~num_threads:3 (fun () ->
      Omprt.Kmpc.static_for ~chunk:2 ~lo:0 ~hi:11 ~step:1 (fun i ->
          Omprt.Atomics.cas_loop visited (fun l -> i :: l)));
  Alcotest.(check (list int)) "chunked static coverage"
    (List.init 11 Fun.id)
    (List.sort compare (Atomic.get visited))

let test_kmpc_dispatch_for_negative () =
  let visited = Atomic.make [] in
  Omprt.Omp.parallel ~num_threads:4 (fun () ->
      Omprt.Kmpc.dispatch_for ~sched:(Omp_model.Sched.Guided 2) ~lo:9
        ~hi:(-1) ~step:(-1) (fun i ->
          Omprt.Atomics.cas_loop visited (fun l -> i :: l)));
  Alcotest.(check (list int)) "guided descending coverage"
    (List.init 10 Fun.id)
    (List.sort compare (Atomic.get visited))

let test_static_init_bounds_values () =
  (* inside a team of 1 the block is the whole space, inclusive upper *)
  Omprt.Omp.parallel ~num_threads:1 (fun () ->
      match Omprt.Kmpc.for_static_init ~lo:3 ~hi:12 ~step:2 () with
      | Some { lower; upper; _ } ->
          Alcotest.(check int) "lower" 3 lower;
          Alcotest.(check int) "upper (inclusive, on-grid)" 11 upper
      | None -> Alcotest.fail "expected a block")

(* ---- the canonical loop form, one table ---- *)

module Df = Analyze.Dataflow

(* One loop shape, read by the preprocessor, by [Transform.assess] under
   [tile(4)] and by the analyser's dataflow pass.  The loop sits in a
   parallel region, so the pragma is at 5:9 of the user's text and on a
   later line of the outlined text the lowering reads. *)
type shape = {
  label : string;
  init : int;             (* the counter's value on entry *)
  clauses : string;       (* on the [for], for the preprocessor and analyser *)
  loop : string;
  lowered : string option;  (* [None]: the preprocessor succeeds *)
  refusal : string option;  (* [None]: [tile(4)] is legal *)
  facts : string;         (* the analyser's loop facts and hits subscripts *)
}

let shape_source ~init ~clauses loop =
  Printf.sprintf
    "fn go(n: i64, s: i64, hits: []f64) f64 {\n\
    \    //$omp parallel shared(hits) firstprivate(n, s)\n\
    \    {\n\
    \        var j: i64 = 0; var i: i64 = %d;\n\
    \        //$omp for%s\n\
    \        %s\n\
    \    }\n\
    \    return 0.0;\n\
     }\n"
    init clauses loop

(* "lb ub step cmp trips | subscripts": "?" for unknown, "-" when the
   analyser cannot read the loop; subscripts of [hits] are [i+c], a
   constant or [?] (opaque), deduplicated. *)
let dataflow_facts src =
  let ast, spans = Zr.Parser.parse_string ~name:"edge.zr" src in
  let df = Df.run ast spans in
  let opt = function Some v -> string_of_int v | None -> "?" in
  let loop =
    match List.concat_map (fun (r : Df.region) -> r.loops) df.regions with
    | [] -> "-"
    | [ (_, li) ] ->
        Printf.sprintf "%s %s %s %s %s" (opt li.lb) (opt li.ub) (opt li.step)
          (if li.linclusive then "incl" else "excl")
          (opt li.trips)
    | _ -> Alcotest.fail "more than one worksharing loop"
  in
  let subs =
    List.concat_map (fun (r : Df.region) -> r.accesses) df.regions
    |> List.filter_map (fun (a : Df.access) ->
           match a.sub with
           | Some _ when a.var <> "hits" -> None
           | Some (Df.Saffine (_, c)) -> Some (Printf.sprintf "i%+d" c)
           | Some (Df.Sconst k) -> Some (string_of_int k)
           | Some Df.Sopaque -> Some "?"
           | None -> None)
    |> List.sort_uniq compare
  in
  loop ^ " | " ^ String.concat " " subs

let check_shape sh =
  let src = shape_source ~init:sh.init ~clauses:sh.clauses sh.loop in
  let lowered =
    match Preproc.Preprocess.run ~name:"edge.zr" src with
    | _ -> None
    | exception Zr.Source.Error msg -> Some msg
  in
  Alcotest.(check (option string))
    (sh.label ^ ": preprocessor")
    (Option.map (( ^ ) "edge.zr:5:9: ") sh.lowered)
    lowered;
  let tiled = shape_source ~init:sh.init ~clauses:" tile(4)" sh.loop in
  let ast, spans = Zr.Parser.parse_string ~name:"edge.zr" tiled in
  let reasons =
    List.map
      (fun (r : Preproc.Transform.refusal) -> r.reason)
      (Preproc.Transform.assess { Preproc.Synth.ast; spans })
  in
  Alcotest.(check (list string))
    (sh.label ^ ": tile(4)")
    (Option.to_list sh.refusal) reasons;
  Alcotest.(check string) (sh.label ^ ": analyser") sh.facts
    (dataflow_facts src)

let body = "{ hits[i] = hits[i] + 1.0; }"

let shape ?(init = 0) ?(clauses = "") ?lowered ?refusal label loop facts =
  { label; init; clauses; loop; lowered; refusal; facts }

let not_canonical = "not a canonical counted loop"

let shapes =
  [ (* canonical headers *)
    shape "<" ("while (i < 10) : (i += 1) " ^ body) "0 10 1 excl 10 | i+0";
    shape "<=" ("while (i <= 9) : (i += 1) " ^ body) "0 9 1 incl 10 | i+0";
    shape "> with -=" ~init:9 ("while (i > 0) : (i -= 1) " ^ body)
      "9 0 -1 excl 9 | i+0";
    shape ">= with -=" ~init:9 ("while (i >= 0) : (i -= 1) " ^ body)
      "9 0 -1 incl 10 | i+0";
    shape "stride 3" ("while (i < 10) : (i += 3) " ^ body)
      "0 10 3 excl 4 | i+0";
    (* other steps and continuations *)
    shape "i += s" ("while (i < 10) : (i += s) " ^ body)
      ~refusal:"the loop step is not an integer literal" "0 10 ? excl ? | i+0";
    shape "i = i + 1" ("while (i < 10) : (i = i + 1) " ^ body)
      ~lowered:
        "worksharing loop: the continuation must be a compound increment \
         (+= or -=)"
      ~refusal:not_canonical "0 10 ? excl ? | i+0";
    shape "no continuation"
      "while (i < 10) { hits[i] = hits[i] + 1.0; i += 1; }"
      ~lowered:
        "worksharing loop: the while loop needs a continuation expression \
         to determine the increment"
      ~refusal:not_canonical "- | ?";
    (* malformed comparisons *)
    shape "!=" ("while (i != 10) : (i += 1) " ^ body)
      ~lowered:"worksharing loop: unsupported comparison operator"
      ~refusal:not_canonical "- | ?";
    shape "10 > i" ("while (10 > i) : (i += 1) " ^ body)
      ~lowered:
        "worksharing loop: the comparison must start with the loop counter"
      ~refusal:not_canonical "- | ?";
    (* steps the lowering cannot honour *)
    shape "i += 0" ("while (i < 10) : (i += 0) " ^ body)
      ~lowered:"worksharing loop: the loop step is zero"
      ~refusal:"the loop step is zero" "0 10 0 excl ? | i+0";
    shape "> with +=" ("while (i > 10) : (i += 1) " ^ body)
      ~lowered:
        "worksharing loop: the loop step runs against the comparison \
         direction"
      ~refusal:"the loop step runs against the comparison direction"
      "0 10 1 excl ? | i+0";
    (* collapse nests *)
    shape "collapse(2) without the inner init" ~clauses:" collapse(2)"
      "while (i < 4) : (i += 1) { while (j < 4) : (j += 1) { hits[i * 4 + \
       j] = 1.0; } }"
      ~lowered:
        "collapse: each collapsed loop body must contain exactly the next \
         counter initialisation followed by the next while loop"
      ~refusal:"a further nested loop inside the body" "0 4 1 excl 4 | ?";
    shape "collapse(2), non-rectangular" ~clauses:" collapse(2)"
      "while (i < 4) : (i += 1) { j = 0; while (j < i) : (j += 1) { hits[i \
       * 4 + j] = 1.0; } }"
      ~lowered:
        "worksharing loop: the loop nest is not rectangular (the inner \
         bounds depend on the outer counter)"
      ~refusal:
        "the loop nest is not rectangular (the inner bounds depend on the \
         outer counter)"
      "0 4 1 excl 4 | ?";
    (* what the shared reader widens: a bound in constant arithmetic
       gives Transform a trip count, and with it a dependence window
       too short for the distance-2 pair; the analyser reads a
       constant offset written in two parts *)
    shape "bound 1 + 1" "while (i < 1 + 1) : (i += 1) { hits[i + 2] = \
                         hits[i] + 1.0; }"
      "0 2 1 excl 2 | i+0 i+2";
    shape "hits[i + 1 + 1]"
      "while (i < 10) : (i += 1) { hits[i + 1 + 1] = hits[i + 1 + 1] + \
       1.0; }"
      "0 10 1 excl 10 | i+2" ]

let test_loop_shapes () = List.iter check_shape shapes

(* ---- trip counts against the sequential loop ---- *)

(* The iterations of [while (i cmp ub) : (i += step)] from [lb], run
   sequentially; [None] when the header is one the lowering rejects. *)
let sequential ~lb ~ub ~step ~cmp =
  let up = cmp = "<" || cmp = "<=" in
  if step = 0 || (step > 0) <> up then None
  else
    let test i =
      match cmp with
      | "<" -> i < ub
      | "<=" -> i <= ub
      | ">" -> i > ub
      | _ -> i >= ub
    in
    let rec go i acc = if test i then go (i + step) (i :: acc) else acc in
    Some (go lb [])

let header_gen =
  let open QCheck2.Gen in
  let* lb = int_range (-20) 20 in
  let* ub = int_range (-20) 20 in
  let* step =
    oneof [ return 0; int_range 1 7; map (fun s -> -s) (int_range 1 7) ]
  in
  let* minus_eq = bool in
  let* cmp = oneofl [ "<"; "<="; ">"; ">=" ] in
  let* sched = oneofl Test_pipeline_prop.schedules in
  let* threads = int_range 1 4 in
  return (lb, ub, step, minus_eq, cmp, sched, threads)

let print_header (lb, ub, step, minus_eq, cmp, sched, threads) =
  Printf.sprintf
    "i = %d; //$omp for %s; while (i %s %d) : (i %s %d); %d threads" lb sched
    cmp ub
    (if minus_eq then "-=" else "+=")
    (if minus_eq then -step else step)
    threads

let prop_trip_counts =
  QCheck2.Test.make ~name:"generated headers: hits = the sequential while"
    ~count:300 ~long_factor:20 ~print:print_header header_gen
    (fun (lb, ub, step, minus_eq, cmp, sched, threads) ->
      let header =
        Printf.sprintf
          {|var i: i64 = 0;
        i = %d;
        //$omp for %s
        while (i %s %d) : (i %s %d) {
            hits[i + 20] = hits[i + 20] + 1.0;
        }|}
          lb sched cmp ub
          (if minus_eq then "-=" else "+=")
          (if minus_eq then -step else step)
      in
      let clauses = Printf.sprintf " num_threads(%d)" threads in
      match sequential ~lb ~ub ~step ~cmp with
      | Some visited ->
          run_loop ~clauses ~header ~size:41 (List.map (( + ) 20) visited);
          true
      | None -> (
          (* the pragma sits at 7:9 of [run_loop]'s program *)
          let expected =
            "edge.zr:7:9: worksharing loop: "
            ^
            if step = 0 then "the loop step is zero"
            else "the loop step runs against the comparison direction"
          in
          match run_loop ~clauses ~header ~size:41 [] with
          | () -> QCheck2.Test.fail_reportf "not rejected"
          | exception Zr.Source.Error msg ->
              msg = expected || QCheck2.Test.fail_reportf "%s" msg))

let suite =
  [ Alcotest.test_case "negative step" `Quick test_negative_step;
    Alcotest.test_case "negative step, inclusive" `Quick
      test_negative_step_inclusive;
    Alcotest.test_case "stride 3" `Quick test_stride_3;
    Alcotest.test_case "stride with inclusive upper" `Quick
      test_stride_inclusive_upper;
    Alcotest.test_case "empty iteration space" `Quick test_empty_space;
    Alcotest.test_case "single iteration" `Quick test_single_iteration;
    Alcotest.test_case "chunk larger than space" `Quick
      test_chunk_larger_than_space;
    Alcotest.test_case "num_threads(1)" `Quick test_num_threads_one;
    Alcotest.test_case "kmpc static_for strided" `Quick
      test_kmpc_static_for_strided;
    Alcotest.test_case "kmpc static_for chunked" `Quick
      test_kmpc_static_for_chunked;
    Alcotest.test_case "kmpc dispatch_for negative" `Quick
      test_kmpc_dispatch_for_negative;
    Alcotest.test_case "static_init bound values" `Quick
      test_static_init_bounds_values;
    Alcotest.test_case "loop shapes: preprocessor, tile(4), analyser" `Quick
      test_loop_shapes;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |])
      prop_trip_counts;
  ]
