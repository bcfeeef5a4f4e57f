(* The pinned inputs.  Every Zr program the benchmark compiles or checks
   is listed here with the answer it must produce, taken from the
   checker and analyser at the commit that defined the benchmark and
   matching CI's tables.  A fixture added under examples/ therefore
   cannot silently change what a workload measures: it is reported as
   unlisted and left out until it is added here. *)

(* The fixture directories the frontend and check workloads draw from. *)
let fixture_dirs = [ "examples/zr"; "examples/tasking" ]

(* Static PROVEN finding ids per frontend input; inputs not named here
   must analyse with no PROVEN finding. *)
let frontend_fixtures =
  [ "examples/zr/analyze/private_read_first.zr";
    "examples/zr/analyze/sections_scalar.zr";
    "examples/zr/analyze/siv_carried.zr";
    "examples/zr/analyze/task_capture_loop.zr";
    "examples/zr/analyze/taskloop_disjoint.zr";
    "examples/zr/clean/atomic_counter.zr";
    "examples/zr/clean/nowait_barrier.zr";
    "examples/zr/clean/reduction.zr";
    "examples/zr/clean/sections_atomic.zr";
    "examples/zr/clean/task_capture_fp.zr";
    "examples/zr/clean/task_taskwait.zr";
    "examples/zr/dpor/hidden_handoff.zr";
    "examples/zr/dpor/hidden_handoff_clean.zr";
    "examples/zr/histogram.zr";
    "examples/zr/jacobi.zr";
    "examples/zr/mandelbrot.zr";
    "examples/zr/racy/missing_reduction.zr";
    "examples/zr/racy/nowait_useafter.zr";
    "examples/zr/racy/shared_counter.zr";
    "examples/zr/racy/task_no_taskwait.zr";
    "examples/zr/transform/collapse2.zr";
    "examples/zr/transform/collapse2_illegal.zr";
    "examples/zr/transform/interchange_colmajor.zr";
    "examples/zr/transform/interchange_colmajor_illegal.zr";
    "examples/zr/transform/tile_stencil.zr";
    "examples/zr/transform/tile_stencil_illegal.zr";
    "examples/tasking/task_fib.zr";
    "examples/tasking/tree_sum.zr" ]

let proven_ids =
  [ ("examples/zr/analyze/private_read_first.zr", [ "scope|firstprivate|t@15:33" ]);
    ("examples/zr/analyze/sections_scalar.zr", [ "race|w" ]);
    ("examples/zr/analyze/siv_carried.zr", [ "race|a" ]);
    ("examples/zr/analyze/task_capture_loop.zr", [ "race|cap" ]);
    ("examples/zr/racy/missing_reduction.zr", [ "race|s" ]);
    ("examples/zr/racy/nowait_useafter.zr", [ "race|q" ]);
    ("examples/zr/racy/shared_counter.zr", [ "race|counter" ]);
    ("examples/zr/racy/task_no_taskwait.zr", [ "race|r" ]) ]

let expected_proven path =
  Option.value ~default:[] (List.assoc_opt path proven_ids)

(* The check corpus: CI's `zrc check --corpus examples/zr --max-execs 16`
   entries, with each entry's exit code and sorted finding ids.  Checking
   an entry marked slow takes from half a second to 31 s (jacobi), so
   the check workload leaves them out: a run then holds enough passes
   for a steady median.  Their answers stay pinned here.
   interchange_colmajor, one long traced execution of about half a
   second, stays in: it is the large fixtures' kind of traffic at a size
   a pass can afford. *)
type check_entry = { path : string; exit : int; ids : string list; slow : bool }

let entry ?(slow = false) path exit ids = { path; exit; ids; slow }

let check_entries =
  [ entry "examples/zr/analyze/private_read_first.zr" 2
      [ "error|dpor: arithmetic on undefined and float";
        "scope|firstprivate|t@15:33" ];
    entry "examples/zr/analyze/sections_scalar.zr" 2 [ "race|w" ];
    entry "examples/zr/analyze/siv_carried.zr" 2 [ "race|a" ];
    entry "examples/zr/analyze/task_capture_loop.zr" 2 [ "race|cap" ];
    entry "examples/zr/analyze/taskloop_disjoint.zr" 0 [];
    entry "examples/zr/clean/atomic_counter.zr" 1 [];
    entry "examples/zr/clean/nowait_barrier.zr" 1 [];
    entry "examples/zr/clean/reduction.zr" 0 [];
    entry "examples/zr/clean/sections_atomic.zr" 1 [];
    entry "examples/zr/clean/task_capture_fp.zr" 0 [];
    entry "examples/zr/clean/task_taskwait.zr" 0 [];
    entry "examples/zr/dpor/hidden_handoff.zr" 2 [ "race|data" ];
    entry "examples/zr/dpor/hidden_handoff_clean.zr" 0 [];
    entry ~slow:true "examples/zr/histogram.zr" 1 [];
    entry ~slow:true "examples/zr/jacobi.zr" 1 [];
    entry ~slow:true "examples/zr/mandelbrot.zr" 1 [];
    entry "examples/zr/racy/missing_reduction.zr" 2 [ "race|s" ];
    entry "examples/zr/racy/nowait_useafter.zr" 2
      [ "lint|nowait-dependent-read|q@24:9 :: written under `for nowait` at \
         19:9, used before the next barrier";
        "race|q" ];
    entry "examples/zr/racy/shared_counter.zr" 2 [ "race|counter" ];
    entry "examples/zr/racy/task_no_taskwait.zr" 2 [ "race|r" ];
    entry "examples/zr/transform/collapse2.zr" 0 [];
    entry "examples/zr/transform/collapse2_illegal.zr" 2 [ "race|hits" ];
    entry "examples/zr/transform/interchange_colmajor.zr" 0 [];
    entry ~slow:true "examples/zr/transform/interchange_colmajor_illegal.zr" 2
      [ "race|a" ];
    entry ~slow:true "examples/zr/transform/tile_stencil.zr" 0 [];
    entry ~slow:true "examples/zr/transform/tile_stencil_illegal.zr" 2 [ "race|a" ];
    entry ~slow:true "npb/conj_grad.zr" 1 [];
    entry ~slow:true "npb/ep_main.zr" 1 [];
    entry "npb/is_rank.zr" 1 [] ]

(* CI's corpus race-id set; the check workload's entries must cover it. *)
let ci_race_ids = [ "a"; "cap"; "counter"; "data"; "hits"; "q"; "r"; "s"; "w" ]

(* The smoke check: three small fixtures whose answers do not depend on
   the execution budget between 4 and 16. *)
let smoke_check_paths =
  [ "examples/zr/clean/reduction.zr"; "examples/zr/racy/shared_counter.zr";
    "examples/zr/transform/collapse2.zr" ]

let is_kernel path = String.length path > 4 && String.sub path 0 4 = "npb/"

(* Fixtures on disk that this manifest does not list, reported once per
   process on stderr. *)
let warn_unlisted =
  lazy
    (let listed p =
       List.mem p frontend_fixtures
       || List.exists (fun e -> e.path = p) check_entries
     in
     List.concat_map
       (fun d -> if Sys.file_exists d then Zigomp.Corpus.discover d else [])
       fixture_dirs
     |> List.iter (fun p ->
            if not (listed p) then
              Printf.eprintf
                "perfbench: warning: %s is not in the pinned manifest and is \
                 not measured\n%!"
                p))
