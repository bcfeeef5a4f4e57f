(* Differential property for the tasking constructs: randomly composed
   programs over task/taskwait, taskloop(grainsize), sections and
   single copyprivate are executed by all three tiers — the tree walker
   ([Interp.call]), the closure compiler ([Interp.Compile.call]) and
   the bytecode tier ([Interp.Compile.compile ~bc]) — at 1 and 4
   threads, and must agree with each other and with the model answer
   computed in OCaml.  Mirrors the harness of test_compile.ml.  Fixed
   programs pin the same agreement for a task created in [main] and for
   task creations the closure compiler must not take its direct path
   on. *)

module V = Interp.Value
module G = QCheck2.Gen

(* Each segment is one construct instance inside the parallel region.
   All segments are race-free by construction (task targets are
   disjoint cells, taskloops are rooted in a single, sections write
   distinct cells, broadcasts land in a private), so every tier must
   produce the same checksum. *)
type seg =
  | Tasks of int * int     (* k tasks incrementing cells 0..k-1 by c *)
  | Taskloop of int * int  (* grainsize g, every cell += c *)
  | Sections of int list   (* per-section increment of cell j *)
  | Broadcast of int       (* single copyprivate; every member adds c *)

let cells = 16

let render_seg i = function
  | Tasks (k, c) ->
      Printf.sprintf
        {|    //$omp single
    {
        var t%d: i64 = 0;
        while (t%d < %d) : (t%d += 1) {
            //$omp task shared(x) firstprivate(t%d)
            { x[t%d] = x[t%d] + %d; }
        }
        //$omp taskwait
    }|}
        i i k i i i i c
  | Taskloop (g, c) ->
      Printf.sprintf
        {|    //$omp single
    {
        var i%d: i64 = 0;
        //$omp taskloop grainsize(%d)
        while (i%d < n) : (i%d += 1) {
            x[i%d] = x[i%d] + %d;
        }
    }|}
        i g i i i i c
  | Sections cs ->
      let body =
        String.concat "\n"
          (List.mapi
             (fun j c ->
               Printf.sprintf
                 "        //$omp section\n        { x[%d] = x[%d] + %d; }"
                 j j c)
             cs)
      in
      Printf.sprintf "    //$omp sections\n    {\n%s\n    }" body
  | Broadcast c ->
      Printf.sprintf
        {|    //$omp single copyprivate(bc)
    { bc = %d; }
    //$omp critical
    { total = total + bc; }|}
        c

let render segs =
  String.concat "\n"
    ([ "fn f(n: i64, x: []i64) i64 {";
       "    var total: i64 = 0;";
       "    //$omp parallel shared(x, total)";
       "    {";
       "    var bc: i64 = 0;" ]
    @ List.mapi render_seg segs
    @ [ "    }";
        "    var s: i64 = 0;";
        "    var i: i64 = 0;";
        "    while (i < n) : (i += 1) { s += x[i]; }";
        "    return s + total;";
        "}" ])

(* The model answer, segment by segment. *)
let expected ~nt segs =
  let x = Array.make cells 0 in
  let total = ref 0 in
  List.iter
    (function
      | Tasks (k, c) ->
          for j = 0 to k - 1 do
            x.(j) <- x.(j) + c
          done
      | Taskloop (_, c) ->
          Array.iteri (fun j v -> x.(j) <- v + c) x
      | Sections cs -> List.iteri (fun j c -> x.(j) <- x.(j) + c) cs
      | Broadcast c -> total := !total + (nt * c))
    segs;
  Array.fold_left ( + ) !total x

let seg_gen =
  let inc = G.int_range 1 9 in
  G.oneof
    [ G.map2 (fun k c -> Tasks (k, c)) (G.int_range 1 cells) inc;
      G.map2 (fun g c -> Taskloop (g, c)) (G.int_range 1 8) inc;
      G.map (fun cs -> Sections cs)
        (G.list_size (G.int_range 2 3) inc);
      G.map (fun c -> Broadcast c) inc ]

let case_gen =
  let open G in
  let* segs = list_size (int_range 1 3) seg_gen in
  let* nt = oneofl [ 1; 4 ] in
  return (segs, nt)

(* All three tiers, each on fresh arguments. *)
let tiers ?(fname = "f") ~args src =
  let p = Interp.load ~name:"taskdiff.zr" src in
  let walker =
    try Ok (Interp.call p fname (args ()))
    with e -> Error (Printexc.to_string e)
  in
  let compiled =
    try
      let cc = Interp.Compile.compile p in
      Ok (Interp.Compile.call cc fname (args ()))
    with e -> Error (Printexc.to_string e)
  in
  let bytecode =
    try
      let cc = Interp.Compile.compile ~bc:{ Interp.Bcgen.elide = true } p in
      Ok (Interp.Compile.call cc fname (args ()))
    with e -> Error (Printexc.to_string e)
  in
  (walker, compiled, bytecode)

let run_tiers =
  tiers ~args:(fun () -> [ V.VInt cells; V.VIntArr (Array.make cells 0) ])

let prop_tasking_tiers =
  QCheck2.Test.make
    ~name:"random tasking programs: walker = compiled = bytecode = model"
    ~count:40 ~long_factor:20
    ~print:(fun (segs, nt) ->
      Printf.sprintf "threads=%d expected=%d\n%s" nt
        (expected ~nt segs) (render segs))
    case_gen
    (fun (segs, nt) ->
      Omprt.Api.set_num_threads nt;
      let walker, compiled, bytecode = run_tiers (render segs) in
      let want = Ok (V.VInt (expected ~nt segs)) in
      walker = want && compiled = want && bytecode = want)

let result_t = Alcotest.(result (testable V.pp ( = )) string)

let check_tiers what ~want (walker, compiled, bytecode) =
  Alcotest.(check result_t) (what ^ ": walker") want walker;
  Alcotest.(check result_t) (what ^ ": compiled") want compiled;
  Alcotest.(check result_t) (what ^ ": bytecode") want bytecode

(* A task created by [main] itself, outside any region, runs on its own
   copy of the initial task's ICV frame. *)
let test_orphan_task_icvs () =
  let base = Omprt.Api.get_max_threads () in
  Fun.protect ~finally:(fun () -> Omprt.Api.set_num_threads base)
  @@ fun () ->
  check_tiers "set_num_threads inside the task stays inside"
    ~want:(Ok (V.VInt 0))
    (tiers ~fname:"main" ~args:(fun () -> [])
       {|
fn main() i64 {
    var before = omp.get_max_threads();
    //$omp task
    { omp.set_num_threads(before + 3); }
    return omp.get_max_threads() - before;
}
|})

(* An assignment evaluates its target once: a call in the index or in
   the pointer expression runs once, for [=] and [+=] alike. *)
let test_assign_target_once () =
  let case stmt ~want =
    check_tiers stmt ~want:(Ok (V.VInt want))
      (tiers ~fname:"main" ~args:(fun () -> [])
         (Printf.sprintf
            {|
var counter: i64 = 0;

fn bump() i64 {
    counter += 1;
    return counter - 1;
}

fn via(p: anytype) anytype {
    counter += 1;
    return p;
}

fn main() i64 {
    counter = 0;
    var a = alloc_i64(4);
    var x: i64 = 3;
    %s
    return counter * 1000 + a[0] * 100 + a[1] * 10 + x;
}
|}
            stmt))
  in
  case "a[bump()] = 5;" ~want:1503;
  case "a[bump()] += 1;" ~want:1103;
  case "a[bump()] = 5; a[bump()] += 1;" ~want:2513;
  case "via(&x).* = 7;" ~want:1007;
  case "via(&x).* += 1;" ~want:1004

(* Hand-written task creations that differ from the outliner's shape
   in one respect each, so the compiler must take the generic path;
   every tier gives the same answer or the same error. *)
let shape_case ~task_fn ~creation =
  Printf.sprintf
    {|
%s

fn f(k: i64) i64 {
    var r: i64 = 0;
    %s
    return r;
}
|}
    task_fn creation

let test_task_shapes_take_generic_path () =
  let args () = [ V.VInt 20 ] in
  let task_fn =
    {|fn t(fp: anytype, sh: anytype) void {
    var n = fp.n;
    var r__ptr = sh.r;
    r__ptr.* = n * 2;
}|}
  in
  check_tiers "the outliner's own shape" ~want:(Ok (V.VInt 40))
    (tiers ~args
       (shape_case ~task_fn
          ~creation:"__kmpc_omp_task(t, .{ .n = k }, .{ .r = &r });"));
  check_tiers "capture struct held in a variable" ~want:(Ok (V.VInt 40))
    (tiers ~args
       (shape_case ~task_fn
          ~creation:
            {|var caps = .{ .n = k };
    __kmpc_omp_task(t, caps, .{ .r = &r });|}));
  check_tiers "task function reads fp after its prologue"
    ~want:(Ok (V.VInt 25))
    (tiers ~args
       (shape_case
          ~task_fn:
            {|fn t(fp: anytype, sh: anytype) void {
    var n = fp.n;
    var r__ptr = sh.r;
    r__ptr.* = n + fp.m;
}|}
          ~creation:
            "__kmpc_omp_task(t, .{ .n = k, .m = 5 }, .{ .r = &r });"));
  let ((walker, _, _) as missing) =
    tiers ~args
      (shape_case
         ~task_fn:
           {|fn t(fp: anytype, sh: anytype) void {
    var n = fp.n;
    var m = fp.m;
    var r__ptr = sh.r;
    r__ptr.* = n + m;
}|}
         ~creation:"__kmpc_omp_task(t, .{ .n = k }, .{ .r = &r });")
  in
  Alcotest.(check bool) "the walker reports the missing field" true
    (match walker with
     | Error msg -> Astring_contains.contains msg "struct has no field '.m'"
     | Ok _ -> false);
  check_tiers "prologue field missing from the literal" ~want:walker missing

(* A [parallel for] nested in another: the combined-construct split
   rewrites the outer one first and the inner one in a later round,
   instead of overlapping the two replacements. *)
let test_nested_parallel_for () =
  let base = Omprt.Api.get_max_threads () in
  Fun.protect ~finally:(fun () -> Omprt.Api.set_num_threads base)
  @@ fun () ->
  List.iter
    (fun nt ->
      Omprt.Api.set_num_threads nt;
      check_tiers
        (Printf.sprintf "nested parallel for, %d threads" nt)
        ~want:(Ok (V.VInt 24))
        (tiers ~fname:"main" ~args:(fun () -> [])
           {|
fn main() i64 {
    var out = alloc_i64(4);
    var i: i64 = 0;
    //$omp parallel for shared(out)
    while (i < 4) : (i += 1) {
        var acc: i64 = 0;
        var j: i64 = 0;
        //$omp parallel for reduction(+: acc)
        while (j < 3) : (j += 1) {
            acc += 2;
        }
        out[i] = acc;
    }
    var s: i64 = 0;
    var k: i64 = 0;
    while (k < 4) : (k += 1) { s += out[k]; }
    return s;
}
|}))
    [ 1; 4 ]

(* Clauses on a construct nested in a parallel region name that
   region's shared variables, which outlining has rebound as pointers:
   a shared one is passed on as the pointer, a privatised one becomes a
   local value.  Nested regions run serialised, one per outer member. *)
let nested_clause_cases =
  [ ( "nested parallel uses a shared variable",
      (fun nt -> V.VFloat (float_of_int nt)),
      {|
fn main() f64 {
    var s: f64 = 0.0;
    //$omp parallel shared(s)
    {
        //$omp parallel
        {
            //$omp atomic
            s += 1.0;
        }
    }
    return s;
}
|} );
    ( "nested parallel firstprivate",
      (fun nt -> V.VInt (6 * nt)),
      {|
fn main() i64 {
    var s: i64 = 5;
    var total: i64 = 0;
    //$omp parallel shared(s, total)
    {
        //$omp parallel firstprivate(s)
        {
            s += 1;
            //$omp atomic
            total += s;
        }
    }
    return total;
}
|} );
    ( "nested parallel private",
      (fun nt -> V.VInt (3 * nt)),
      {|
fn main() i64 {
    var s: i64 = 5;
    var total: i64 = 0;
    //$omp parallel shared(s, total)
    {
        //$omp parallel private(s)
        {
            s = 3;
            //$omp atomic
            total += s;
        }
    }
    return total;
}
|} );
    ( "single around parallel reduction",
      (fun _ -> V.VFloat 1.0),
      {|
fn main() f64 {
    var s: f64 = 0.0;
    //$omp parallel shared(s)
    {
        //$omp single
        {
            //$omp parallel reduction(+: s)
            {
                s += 1.0;
            }
        }
    }
    return s;
}
|} );
    ( "single around parallel for reduction",
      (fun _ -> V.VInt 28),
      {|
fn main() i64 {
    var s: i64 = 0;
    //$omp parallel shared(s)
    {
        //$omp single
        {
            var i: i64 = 0;
            //$omp parallel for reduction(+: s)
            while (i < 8) : (i += 1) {
                s += i;
            }
        }
    }
    return s;
}
|} );
    ( "for firstprivate of a shared variable",
      (fun _ -> V.VInt 20),
      {|
fn main() i64 {
    var x: i64 = 5;
    var out = alloc_i64(4);
    //$omp parallel shared(x, out)
    {
        var i: i64 = 0;
        //$omp for firstprivate(x)
        while (i < 4) : (i += 1) {
            out[i] = x;
        }
    }
    return out[0] + out[1] + out[2] + out[3];
}
|} );
    ( "for private of a shared variable",
      (fun _ -> V.VInt 13),
      {|
fn main() i64 {
    var x: i64 = 3;
    var out = alloc_i64(4);
    //$omp parallel shared(x, out)
    {
        var i: i64 = 0;
        //$omp for private(x)
        while (i < 4) : (i += 1) {
            x = i + 1;
            out[i] = x;
        }
    }
    return out[0] + out[1] + out[2] + out[3] + x;
}
|} ) ]

let test_nested_clauses () =
  let base = Omprt.Api.get_max_threads () in
  Fun.protect ~finally:(fun () -> Omprt.Api.set_num_threads base)
  @@ fun () ->
  List.iter
    (fun nt ->
      Omprt.Api.set_num_threads nt;
      List.iter
        (fun (what, want, src) ->
          check_tiers
            (Printf.sprintf "%s, %d threads" what nt)
            ~want:(Ok (want nt))
            (tiers ~fname:"main" ~args:(fun () -> []) src))
        nested_clause_cases)
    [ 1; 4 ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_tasking_tiers;
    Alcotest.test_case "tasks in main own their ICVs on every tier" `Quick
      test_orphan_task_icvs;
    Alcotest.test_case "non-outliner task shapes agree on every tier" `Quick
      test_task_shapes_take_generic_path;
    Alcotest.test_case "assignment targets evaluate once on every tier"
      `Quick test_assign_target_once;
    Alcotest.test_case "nested parallel for runs on every tier" `Quick
      test_nested_parallel_for;
    Alcotest.test_case "nested clauses on shared variables, every tier"
      `Quick test_nested_clauses ]
