(* The benchmark harness.

   With no arguments it regenerates every artefact of the paper's
   evaluation section — Tables I-III and Figures 3-5 — on the simulated
   ARCHER2 node, then runs the microbenchmark suite (bechamel) over the
   runtime primitives and the ablation studies for the design choices
   called out in DESIGN.md.  Individual sections can be selected:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table1 fig3     # just CG artefacts
     dune exec bench/main.exe micro           # bechamel microbenches
     dune exec bench/main.exe bytecode        # the three execution tiers
     dune exec bench/main.exe pool            # hot-team pool vs spawn-per-fork
     dune exec bench/main.exe ablation        # schedule/reduction ablations *)

open Bechamel

(* ------------------------------------------------------------------ *)
(* Paper artefacts.                                                    *)

let emit_table kernel =
  let text, _ = Harness.Experiment.table kernel in
  print_endline text

let emit_figure kernel = print_endline (Harness.Experiment.figure kernel)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the runtime primitives the generated code leans on.
   One bechamel test per primitive; real execution on this host.       *)

let micro_tests () =
  let nt = 4 in
  let dot_prog =
    Zigomp.compile ~name:"bench_dot.zr"
      {|
fn dot(n: i64, x: []f64, y: []f64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) shared(x, y)
    while (i < n) : (i += 1) {
        s += x[i] * y[i];
    }
    return s;
}
|}
  in
  let x = Array.init 10_000 float_of_int in
  let y = Array.init 10_000 (fun i -> float_of_int (i mod 3)) in
  let pre_src =
    {|
fn f(n: i64) f64 {
    var s: f64 = 0.0;
    //$omp parallel reduction(+: s)
    {
        var i: i64 = 0;
        //$omp for schedule(dynamic, 8) nowait
        while (i < n) : (i += 1) { s += 1.0; }
    }
    return s;
}
|}
  in
  let fcell = Omprt.Atomics.Float.make 0. in
  let icell = Omprt.Atomics.Int.make 0 in
  [ Test.make ~name:"fork_join_4"
      (Staged.stage (fun () ->
           Omprt.Omp.parallel ~num_threads:nt (fun () -> ())));
    Test.make ~name:"barrier_x8_4thr"
      (Staged.stage (fun () ->
           Omprt.Omp.parallel ~num_threads:nt (fun () ->
               for _ = 1 to 8 do Omprt.Omp.barrier () done)));
    Test.make ~name:"ws_static_10k_iters"
      (Staged.stage (fun () ->
           Omprt.Omp.parallel ~num_threads:nt (fun () ->
               Omprt.Omp.ws_for ~lo:0 ~hi:10_000 (fun lo hi ->
                   let s = ref 0. in
                   for i = lo to hi - 1 do s := !s +. x.(i) done;
                   ignore !s))));
    Test.make ~name:"ws_dynamic64_10k_iters"
      (Staged.stage (fun () ->
           Omprt.Omp.parallel ~num_threads:nt (fun () ->
               Omprt.Omp.ws_for ~sched:(Omp_model.Sched.Dynamic 64) ~lo:0
                 ~hi:10_000 (fun lo hi ->
                   let s = ref 0. in
                   for i = lo to hi - 1 do s := !s +. x.(i) done;
                   ignore !s))));
    Test.make ~name:"ws_guided8_10k_iters"
      (Staged.stage (fun () ->
           Omprt.Omp.parallel ~num_threads:nt (fun () ->
               Omprt.Omp.ws_for ~sched:(Omp_model.Sched.Guided 8) ~lo:0
                 ~hi:10_000 (fun lo hi ->
                   let s = ref 0. in
                   for i = lo to hi - 1 do s := !s +. x.(i) done;
                   ignore !s))));
    Test.make ~name:"atomic_add_native_int"
      (Staged.stage (fun () -> Omprt.Atomics.Int.add icell 1));
    Test.make ~name:"atomic_mul_cas_loop_int"
      (Staged.stage (fun () -> Omprt.Atomics.Int.mul icell 1));
    Test.make ~name:"atomic_add_cas_loop_float"
      (Staged.stage (fun () -> Omprt.Atomics.Float.add fcell 1.0));
    Test.make ~name:"critical_section"
      (Staged.stage (fun () -> Omprt.Lock.critical (fun () -> ())));
    Test.make ~name:"preprocess_region+loop"
      (Staged.stage (fun () ->
           ignore (Zigomp.preprocess ~name:"bench.zr" pre_src)));
    Test.make ~name:"interp_dot_10k"
      (Staged.stage (fun () ->
           ignore
             (Zigomp.call dot_prog "dot"
                [ Zigomp.Value.VInt 10_000; Zigomp.Value.VFloatArr x;
                  Zigomp.Value.VFloatArr y ])));
    Test.make ~name:"sim_des_10k_events"
      (Staged.stage (fun () ->
           let des = Sim.Des.create () in
           for _ = 1 to 10 do
             Sim.Des.spawn des (fun () ->
                 for _ = 1 to 1000 do Sim.Des.advance des 1e-6 done)
           done;
           ignore (Sim.Des.run des)));
  ]

let run_micro () =
  print_endline "== microbenchmarks (real execution, bechamel OLS ns/run) ==";
  Zigomp.set_num_threads 4;
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"micro" (micro_tests ()) in
  let raws = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raws in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) ->
      if est >= 1e6 then Printf.printf "  %-32s %12.2f ms/run\n" name (est /. 1e6)
      else if est >= 1e3 then Printf.printf "  %-32s %12.2f us/run\n" name (est /. 1e3)
      else Printf.printf "  %-32s %12.1f ns/run\n" name est)
    (List.sort compare !rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The execution tiers head-to-head on two preprocessed Zr loop bodies:
   a 1-D stencil sweep and a CSR spmv, the two shapes NPB CG and the
   heat example lean on.  Per-iteration cost is what matters — the loop
   body runs once per iteration of a worksharing loop — so results are
   reported in ns/iteration.                                           *)

let stencil_src =
  {|
fn stencil(n: i64, a: []f64, b: []f64) f64 {
    var i: i64 = 1;
    //$omp parallel for shared(a, b)
    while (i < n - 1) : (i += 1) {
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    return b[1];
}
|}

let spmv_src =
  {|
fn spmv(nrows: i64, a: []f64, colidx: []i64, rowstr: []i64,
        x: []f64, y: []f64) f64 {
    var row: i64 = 0;
    //$omp parallel for shared(a, colidx, rowstr, x, y)
    while (row < nrows) : (row += 1) {
        var sum: f64 = 0.0;
        var k: i64 = rowstr[row];
        while (k < rowstr[row + 1]) : (k += 1) {
            sum += a[k] * x[colidx[k]];
        }
        y[row] = sum;
    }
    return y[0];
}
|}

(* Mean seconds per call of [fname] over [reps] calls, after one
   warm-up call (which also specialises the bytecode tier's drains). *)
let time_call prog fname args ~reps =
  ignore (Zigomp.call prog fname args);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do ignore (Zigomp.call prog fname args) done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

(* The same, in nanoseconds per iteration of a call's [iters] loop
   iterations. *)
let time_per_iter prog fname args ~iters ~reps =
  1e9 *. time_call prog fname args ~reps /. float_of_int iters

(* Both bodies on all three backends, plus the guard-elision ablation
   (bytecode with the subscript-analysis elision disabled, so every
   array access runs the guarded twin).  Written to BENCH_bytecode.json
   for the perf trajectory and for CI's bytecode-not-slower-than-
   compiled gate.                                                      *)

let bench_bytecode () =
  print_endline
    "== bytecode: register VM vs staged closures vs AST walker (real \
     execution, 1 thread) ==";
  Zigomp.set_num_threads 1;
  let case ~name ~src ~fname ~args ~iters ~reps =
    let run backend ?elide () =
      let p = Zigomp.compile ~backend ?elide ~name:(name ^ ".zr") src in
      time_per_iter p fname args ~iters ~reps
    in
    let ast_ns = run `Ast () in
    let compiled_ns = run `Compiled () in
    let bc_ns = run `Bytecode ~elide:true () in
    let bc_guarded_ns = run `Bytecode ~elide:false () in
    Printf.printf
      "  %-14s %8.1f ns/iter (ast) %8.1f (compiled) %8.1f (bytecode) \
       %8.1f (bytecode, guards kept) %6.1fx vs compiled\n%!"
      name ast_ns compiled_ns bc_ns bc_guarded_ns (compiled_ns /. bc_ns);
    (name, iters, ast_ns, compiled_ns, bc_ns, bc_guarded_ns)
  in
  let n = 4_096 in
  let a = Array.init n (fun i -> float_of_int (i mod 7)) in
  let b = Array.make n 0. in
  let stencil_row =
    case ~name:"stencil_body" ~src:stencil_src ~fname:"stencil"
      ~args:[ Zigomp.Value.VInt n; Zigomp.Value.VFloatArr a;
              Zigomp.Value.VFloatArr b ]
      ~iters:(n - 2) ~reps:20
  in
  (* CG-shaped: NPB CG's rows average about 73 nonzeros, so the row's
     gather loop, not the per-row dispatch, dominates; 64 rows keep a
     call near the stencil's iteration count *)
  let nrows = 64 in
  let band = 73 in
  let ncols = 1_024 in
  let rowstr = Array.init (nrows + 1) (fun r -> r * band) in
  let colidx =
    Array.init (nrows * band) (fun k ->
        let r = k / band and d = k mod band in
        ((r * 31) + (d * 13)) mod ncols)
  in
  let av = Array.init (nrows * band) (fun k -> float_of_int (k mod 3)) in
  let x = Array.init ncols (fun i -> float_of_int (i mod 5)) in
  let y = Array.make nrows 0. in
  let spmv_row =
    case ~name:"spmv_body" ~src:spmv_src ~fname:"spmv"
      ~args:[ Zigomp.Value.VInt nrows; Zigomp.Value.VFloatArr av;
              Zigomp.Value.VIntArr colidx; Zigomp.Value.VIntArr rowstr;
              Zigomp.Value.VFloatArr x; Zigomp.Value.VFloatArr y ]
      ~iters:(nrows * band) ~reps:20
  in
  let json_row (name, iters, ast_ns, compiled_ns, bc_ns, bc_guarded_ns) =
    Printf.sprintf
      {|    { "kernel": %S, "iters_per_call": %d, "ast_ns_per_iter": %.2f, "compiled_ns_per_iter": %.2f, "bytecode_ns_per_iter": %.2f, "bytecode_guarded_ns_per_iter": %.2f, "speedup_vs_compiled": %.2f, "elision_gain": %.2f }|}
      name iters ast_ns compiled_ns bc_ns bc_guarded_ns
      (compiled_ns /. bc_ns) (bc_guarded_ns /. bc_ns)
  in
  let json =
    Printf.sprintf
      "{\n  \"bench\": \"bytecode\",\n  \"unit\": \"ns/iteration\",\n  \
       \"results\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map json_row [ stencil_row; spmv_row ]))
  in
  let oc = open_out "BENCH_bytecode.json" in
  output_string oc json;
  close_out oc;
  print_endline "  wrote BENCH_bytecode.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Loop transformations: the measured effect of the source-to-source
   rewrites (tile, interchange, unroll, collapse) under the bytecode
   tier, and the roofline model's verdict on the tiling.
   BENCH_transform.json carries both, so CI can gate on the measured
   tiling speedup and on prediction/measurement sign agreement.        *)

let transform_stencil_src clause =
  Printf.sprintf
    {|
fn sweep(a: []f64, b: []f64, out: []f64) f64 {
    //$omp parallel shared(a, b, out)
    {
        var i: i64 = 0;
        //$omp for %s
        while (i < 1024) : (i += 1) {
            var j: i64 = 0;
            while (j < 1024) : (j += 1) {
                out[i * 1024 + j] = a[i * 1024 + j] + b[j * 1024 + i];
            }
        }
    }
    return out[0];
}
|}
    clause

let transform_colmajor_src clause =
  Printf.sprintf
    {|
fn sweep(src: []f64, out: []f64) f64 {
    //$omp parallel shared(src, out)
    {
        var i: i64 = 0;
        //$omp for %s
        while (i < 512) : (i += 1) {
            var j: i64 = 0;
            while (j < 512) : (j += 1) {
                out[j * 512 + i] = src[j * 512 + i] * 2.0;
            }
        }
    }
    return out[0];
}
|}
    clause

let transform_saxpy_src clause =
  Printf.sprintf
    {|
fn saxpy(x: []f64, y: []f64) f64 {
    //$omp parallel shared(x, y)
    {
        var i: i64 = 0;
        //$omp for %s
        while (i < 65536) : (i += 1) {
            y[i] = y[i] + 0.5 * x[i];
        }
    }
    return y[0];
}
|}
    clause

let transform_grid_src clause =
  Printf.sprintf
    {|
fn grid(hits: []i64) i64 {
    //$omp parallel shared(hits)
    {
        var i: i64 = 0;
        //$omp for %s
        while (i < 512) : (i += 1) {
            var j: i64 = 0;
            while (j < 512) : (j += 1) {
                hits[i * 512 + j] = hits[i * 512 + j] + i + j;
            }
        }
    }
    return hits[0];
}
|}
    clause

let bench_transform () =
  print_endline
    "== transform: tile/interchange/unroll/collapse rewrites under the \
     bytecode tier (real execution) ==";
  let run_variant ~name ~src ~fname ~args ~iters ~reps =
    let p = Zigomp.compile ~backend:`Bytecode ~name:(name ^ ".zr") src in
    time_per_iter p fname args ~iters ~reps
  in
  (* tiled vs untiled transpose-add, 1 thread so the cache effect is
     not diluted across private slices; the roofline prediction is
     evaluated at the same active=1 *)
  Zigomp.set_num_threads 1;
  let n = 1024 in
  let a = Array.init (n * n) (fun t -> float_of_int (t mod 97)) in
  let b = Array.init (n * n) (fun t -> float_of_int (t mod 89)) in
  let out = Array.make (n * n) 0. in
  let stencil_args =
    [ Zigomp.Value.VFloatArr a; Zigomp.Value.VFloatArr b;
      Zigomp.Value.VFloatArr out ]
  in
  let untiled_ns =
    run_variant ~name:"stencil_untiled" ~src:(transform_stencil_src "")
      ~fname:"sweep" ~args:stencil_args ~iters:(n * n) ~reps:3
  in
  let tiled_ns =
    run_variant ~name:"stencil_tiled"
      ~src:(transform_stencil_src "tile(8, 8)") ~fname:"sweep"
      ~args:stencil_args ~iters:(n * n) ~reps:3
  in
  let measured = untiled_ns /. tiled_ns in
  let predicted =
    let src = transform_stencil_src "tile(8, 8)" in
    let ast, spans =
      Zigomp.Frontend.Parser.parse_string ~name:"stencil_tiled.zr" src
    in
    match
      Zigomp.Preprocessor.Transform.footprints
        { Zigomp.Preprocessor.Synth.ast; spans }
    with
    | [] -> 1.0
    | (fp : Zigomp.Preprocessor.Transform.footprint) :: _ ->
        let cost =
          Omp_model.Cost.make
            ~flops:(fp.fp_iters *. float_of_int fp.fp_accesses)
            ~bytes:fp.fp_bytes ()
        in
        (Sim.Perfmodel.predict_tiling Sim.Machine.archer2 ~active:1 ~cost
           ~ws_before:fp.fp_ws_before ~ws_after:fp.fp_ws_after)
          .Sim.Perfmodel.speedup
  in
  let sign_agrees =
    (* both sides within 2% of 1.0 also count as agreement: the model
       saying "no change" about a flat measurement is a correct call *)
    (predicted >= 1.0 && measured >= 0.98)
    || (predicted <= 1.0 && measured <= 1.02)
  in
  Printf.printf
    "  tile(8,8) transpose-add 1024^2: %8.1f ns/iter untiled %8.1f \
     tiled  measured %.2fx, predicted %.2fx (%s)\n%!"
    untiled_ns tiled_ns measured predicted
    (if sign_agrees then "signs agree" else "signs DISAGREE");
  (* interchange: column-major sweep made row-major *)
  let m = 512 in
  let src_arr = Array.init (m * m) (fun t -> float_of_int (t mod 31)) in
  let out2 = Array.make (m * m) 0. in
  let colmajor_args =
    [ Zigomp.Value.VFloatArr src_arr; Zigomp.Value.VFloatArr out2 ]
  in
  let colmajor_ns =
    run_variant ~name:"colmajor" ~src:(transform_colmajor_src "")
      ~fname:"sweep" ~args:colmajor_args ~iters:(m * m) ~reps:3
  in
  let interchanged_ns =
    run_variant ~name:"interchanged"
      ~src:(transform_colmajor_src "interchange") ~fname:"sweep"
      ~args:colmajor_args ~iters:(m * m) ~reps:3
  in
  Printf.printf
    "  interchange col-major 512^2:    %8.1f ns/iter original %8.1f \
     interchanged  %.2fx\n%!"
    colmajor_ns interchanged_ns (colmajor_ns /. interchanged_ns);
  (* unroll ablation on a streamed daxpy *)
  let x = Array.init 65536 (fun t -> float_of_int (t mod 7)) in
  let y = Array.make 65536 1.0 in
  let saxpy_args = [ Zigomp.Value.VFloatArr x; Zigomp.Value.VFloatArr y ] in
  let unroll_ns =
    List.map
      (fun f ->
        let clause = if f = 1 then "" else Printf.sprintf "unroll(%d)" f in
        ( f,
          run_variant
            ~name:(Printf.sprintf "saxpy_u%d" f)
            ~src:(transform_saxpy_src clause) ~fname:"saxpy"
            ~args:saxpy_args ~iters:65536 ~reps:10 ))
      [ 1; 2; 4; 8 ]
  in
  List.iter
    (fun (f, ns) ->
      Printf.printf "  unroll(%d) daxpy 64k:            %8.1f ns/iter\n%!"
        f ns)
    unroll_ns;
  (* collapse(2) vs worksharing only the outer loop, 4 threads *)
  Zigomp.set_num_threads 4;
  let hits = Array.make (m * m) 0 in
  let grid_args = [ Zigomp.Value.VIntArr hits ] in
  let nested_ns =
    run_variant ~name:"grid_nested" ~src:(transform_grid_src "")
      ~fname:"grid" ~args:grid_args ~iters:(m * m) ~reps:3
  in
  let collapse_ns =
    run_variant ~name:"grid_collapse"
      ~src:(transform_grid_src "collapse(2)") ~fname:"grid"
      ~args:grid_args ~iters:(m * m) ~reps:3
  in
  Printf.printf
    "  collapse(2) grid 512^2, 4 thr:  %8.1f ns/iter nested %8.1f \
     collapsed  %.2fx\n%!"
    nested_ns collapse_ns (nested_ns /. collapse_ns);
  let json =
    Printf.sprintf
      "{\n  \"bench\": \"transform\",\n  \"unit\": \"ns/iteration\",\n  \
       \"results\": [\n\
      \    { \"kernel\": \"stencil_tile8x8\", \"untiled_ns_per_iter\": \
       %.2f, \"tiled_ns_per_iter\": %.2f, \"measured_speedup\": %.3f, \
       \"predicted_speedup\": %.3f, \"prediction_sign_agrees\": %b },\n\
      \    { \"kernel\": \"interchange_colmajor\", \
       \"original_ns_per_iter\": %.2f, \"interchanged_ns_per_iter\": \
       %.2f, \"speedup\": %.3f },\n\
      \    { \"kernel\": \"unroll_daxpy\", %s },\n\
      \    { \"kernel\": \"collapse2_grid\", \"nested_ns_per_iter\": \
       %.2f, \"collapsed_ns_per_iter\": %.2f, \"ratio\": %.3f }\n\
      \  ]\n}\n"
      untiled_ns tiled_ns measured predicted sign_agrees colmajor_ns
      interchanged_ns
      (colmajor_ns /. interchanged_ns)
      (String.concat ", "
         (List.map
            (fun (f, ns) ->
              Printf.sprintf "\"unroll%d_ns_per_iter\": %.2f" f ns)
            unroll_ns))
      nested_ns collapse_ns
      (nested_ns /. collapse_ns)
  in
  let oc = open_out "BENCH_transform.json" in
  output_string oc json;
  close_out oc;
  print_endline "  wrote BENCH_transform.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The hot-team pool ablation: spawn-per-fork and pooled fork measured
   back-to-back in the same process, so the speedup is observable on
   any host without cross-run noise.  Empty region bodies isolate the
   fork/join machinery itself — exactly what `fork_join_4` in the micro
   section exercises, which routes through the pool by default.        *)

let bench_pool () =
  print_endline
    "== pool: spawn-per-fork vs hot-team pooled __kmpc_fork_call (real \
     execution) ==";
  let reps = 300 in
  let mean_fork_cost nt =
    (* one unmeasured fork absorbs pool/worker creation, so both modes
       are timed steady-state *)
    Omprt.Omp.parallel ~num_threads:nt (fun () -> ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Omprt.Omp.parallel ~num_threads:nt (fun () -> ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  Printf.printf "  %-8s %18s %18s %10s\n" "threads" "spawn-per-fork"
    "pooled (hot team)" "speedup";
  List.iter
    (fun nt ->
      Omprt.Pool.set_enabled false;
      let spawn = mean_fork_cost nt in
      Omprt.Pool.set_enabled true;
      let pooled = mean_fork_cost nt in
      Printf.printf "  %-8d %15.1f us %15.1f us %9.1fx\n%!" nt
        (1e6 *. spawn) (1e6 *. pooled)
        (if pooled > 0. then spawn /. pooled else Float.infinity))
    [ 1; 2; 4; 8 ];
  print_string ("  " ^ Omprt.Profile.pool_report ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out, measured on the
   simulated node so that 128-thread behaviour is visible.             *)

let ablation_schedules () =
  print_endline
    "== ablation: loop schedule under imbalance (simulated, 128 threads) ==";
  print_endline
    "   triangular work: iteration i costs ~i flops; 10^5 iterations";
  let cost lo hi =
    let f = ref 0. in
    for i = lo to hi - 1 do f := !f +. (1e3 *. float_of_int i) done;
    Omp_model.Cost.flops !f
  in
  List.iter
    (fun sched ->
      let r =
        Simrt.run ~num_threads:128 (fun (module O : Omprt.Omp_intf.S) ->
            O.parallel (fun () ->
                O.ws_for ~sched ~chunk_cost:cost ~lo:0 ~hi:100_000
                  (fun _ _ -> ())))
      in
      Printf.printf "  %-16s makespan %10.4f s  (claims: %d)\n"
        (Omp_model.Sched.to_string sched)
        r.Simrt.makespan
        (r.Simrt.run_stats.static_chunks + r.Simrt.run_stats.dynamic_claims))
    [ Omp_model.Sched.Static None; Omp_model.Sched.Static (Some 64);
      Omp_model.Sched.Dynamic 64; Omp_model.Sched.Dynamic 512;
      Omp_model.Sched.Guided 64 ];
  print_newline ()

let ablation_barrier_scaling () =
  print_endline "== ablation: modelled barrier cost vs team size ==";
  List.iter
    (fun nt ->
      Printf.printf "  %4d threads: %7.3f us\n" nt
        (1e6 *. Sim.Perfmodel.barrier_time Sim.Machine.archer2 ~nthreads:nt))
    [ 2; 8; 32; 128 ];
  print_newline ()

let ablation_cache_knee () =
  print_endline
    "== ablation: the L3 capacity knee behind CG's super-linear tail ==";
  print_endline "   SpMV-like sweep, 461 MB matrix, varying team size:";
  let m = Sim.Machine.archer2 in
  List.iter
    (fun nt ->
      let miss = Sim.Perfmodel.miss_factor m ~active:nt 460.8e6 in
      Printf.printf
        "  %4d threads: %6.1f MB/thread slice, miss factor %.2f\n" nt
        (460.8 /. float_of_int nt)
        miss)
    [ 32; 64; 96; 128 ];
  print_newline ()

let ablation_gantt () =
  print_endline
    "== ablation: execution timelines, imbalanced loop on 8 simulated \
     threads ==";
  print_endline
    "   iteration i costs ~i work units; static leaves late threads \
     waiting ('='),\n   dynamic balances the tail:";
  let cost lo hi =
    let f = ref 0. in
    for i = lo to hi - 1 do f := !f +. (3e5 *. float_of_int i) done;
    Omp_model.Cost.flops !f
  in
  List.iter
    (fun sched ->
      let r =
        Simrt.run ~num_threads:8 ~trace:true
          (fun (module O : Omprt.Omp_intf.S) ->
            O.parallel (fun () ->
                O.ws_for ~sched ~chunk_cost:cost ~lo:0 ~hi:512
                  (fun _ _ -> ())))
      in
      Printf.printf "-- schedule(%s): makespan %.4f s\n"
        (Omp_model.Sched.to_string sched) r.Simrt.makespan;
      (match r.Simrt.trace with
       | Some tr -> print_string (Sim.Trace.gantt tr ~makespan:r.Simrt.makespan)
       | None -> ());
      print_newline ())
    [ Omp_model.Sched.Static None; Omp_model.Sched.Dynamic 16 ]

let ablation_reduction_paths () =
  print_endline
    "== ablation: reduction combine paths (real, 4 threads, 10^5 adds) ==";
  let trial name f =
    let t0 = Unix.gettimeofday () in
    f ();
    Printf.printf "  %-28s %8.4f s\n" name (Unix.gettimeofday () -. t0)
  in
  trial "atomic CAS-loop float add" (fun () ->
      let cell = Omprt.Atomics.Float.make 0. in
      Omprt.Omp.parallel ~num_threads:4 (fun () ->
          for _ = 1 to 25_000 do Omprt.Atomics.Float.add cell 1. done));
  trial "critical-section add" (fun () ->
      let cell = ref 0. in
      Omprt.Omp.parallel ~num_threads:4 (fun () ->
          for _ = 1 to 25_000 do
            Omprt.Lock.critical (fun () -> cell := !cell +. 1.)
          done));
  trial "thread-local + one combine" (fun () ->
      let cell = Omprt.Atomics.Float.make 0. in
      Omprt.Omp.parallel ~num_threads:4 (fun () ->
          let local = ref 0. in
          for _ = 1 to 25_000 do local := !local +. 1. done;
          Omprt.Atomics.Float.add cell !local));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sensitivity: how robust are the headline shapes to the calibrated
   machine constants?  Each parameter is perturbed +/-25% and the mean
   deviation from the paper's table recomputed — large swings would
   mean the reproduction rests on a fitted knife edge.                 *)

let sensitivity () =
  print_endline
    "== sensitivity: paper-table deviation under +/-25% machine-constant \
     perturbation ==";
  let deviation machine kernel =
    let pt =
      match kernel with
      | Harness.Experiment.CG -> Harness.Paper.table1
      | Harness.Experiment.EP -> Harness.Paper.table2
      | Harness.Experiment.IS -> Harness.Paper.table3
    in
    let lang =
      Harness.Experiment.lang_of_name (fst pt.Harness.Paper.langs)
    in
    let model =
      List.map
        (fun nt ->
          Harness.Experiment.sim_time ~machine kernel lang ~nthreads:nt)
        pt.Harness.Paper.threads
    in
    Harness.Stats.mean_abs_rel_err
      (List.combine pt.Harness.Paper.ported model)
  in
  let base = Sim.Machine.archer2 in
  let variants =
    [ ("baseline", base);
      ("l3_hit_miss -25%",
       { base with Sim.Machine.l3_hit_miss = base.Sim.Machine.l3_hit_miss *. 0.75 });
      ("l3_hit_miss +25%",
       { base with Sim.Machine.l3_hit_miss =
           Float.min 1.0 (base.Sim.Machine.l3_hit_miss *. 1.25) });
      ("ccx_mem_bw -25%",
       { base with Sim.Machine.ccx_mem_bw = base.Sim.Machine.ccx_mem_bw *. 0.75 });
      ("ccx_mem_bw +25%",
       { base with Sim.Machine.ccx_mem_bw = base.Sim.Machine.ccx_mem_bw *. 1.25 });
      ("gather_node_bw -25%",
       { base with Sim.Machine.gather_node_bw =
           base.Sim.Machine.gather_node_bw *. 0.75 });
      ("gather_node_bw +25%",
       { base with Sim.Machine.gather_node_bw =
           base.Sim.Machine.gather_node_bw *. 1.25 });
    ]
  in
  Printf.printf "  %-22s %10s %10s %10s\n" "machine variant" "CG dev"
    "EP dev" "IS dev";
  List.iter
    (fun (name, machine) ->
      Printf.printf "  %-22s %9.1f%% %9.1f%% %9.1f%%\n%!" name
        (100. *. deviation machine Harness.Experiment.CG)
        (100. *. deviation machine Harness.Experiment.EP)
        (100. *. deviation machine Harness.Experiment.IS))
    variants;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Deferred tasking: the same stencil body run as a taskloop (tasks of
   [grainsize] consecutive iterations, rooted in a single) and as the
   static worksharing loop, and recursive task fib against its serial
   twin.  Written to BENCH_tasking.json for the perf trajectory across
   PRs; no gate — task overhead vs static partitioning is the quantity
   being tracked, not bounded.                                         *)

let taskloop_sweep_src =
  {|
fn sweep(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a, b)
    {
        //$omp single
        {
            var i: i64 = 1;
            //$omp taskloop grainsize(256)
            while (i < n - 1) : (i += 1) {
                b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
        }
    }
    return b[1];
}
|}

let staticfor_sweep_src =
  {|
fn sweep(n: i64, a: []f64, b: []f64) f64 {
    var i: i64 = 1;
    //$omp parallel for shared(a, b)
    while (i < n - 1) : (i += 1) {
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
    return b[1];
}
|}

let task_fib_src =
  {|
fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    var a: i64 = 0;
    var b: i64 = 0;
    //$omp task shared(a) firstprivate(n)
    { a = fib(n - 1); }
    //$omp task shared(b) firstprivate(n)
    { b = fib(n - 2); }
    //$omp taskwait
    return a + b;
}

fn fibmain(n: i64) i64 {
    var r: i64 = 0;
    //$omp parallel
    {
        //$omp single
        { r = fib(n); }
    }
    return r;
}
|}

let serial_fib_src =
  {|
fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}

fn fibmain(n: i64) i64 {
    return fib(n);
}
|}

let bench_tasking () =
  print_endline
    "== tasking: taskloop vs static for; task fib vs serial (4 threads) ==";
  Zigomp.set_num_threads 4;
  let n = 65_536 in
  let a = Array.init n (fun i -> float_of_int (i mod 7)) in
  let b = Array.make n 0. in
  let sweep_args =
    [ Zigomp.Value.VInt n; Zigomp.Value.VFloatArr a;
      Zigomp.Value.VFloatArr b ]
  in
  let tl_prog = Zigomp.compile ~name:"taskloop_sweep.zr" taskloop_sweep_src in
  let st_prog = Zigomp.compile ~name:"staticfor_sweep.zr" staticfor_sweep_src in
  let sweep_ns prog =
    time_per_iter prog "sweep" sweep_args ~iters:(n - 2) ~reps:10
  in
  let tl_ns = sweep_ns tl_prog in
  let st_ns = sweep_ns st_prog in
  Printf.printf
    "  %-14s %10.1f ns/iter (taskloop g=256) %10.1f ns/iter (static for) \
     %6.2fx overhead\n%!"
    "stencil_sweep" tl_ns st_ns (tl_ns /. st_ns);
  let fib_n = 18 in
  let fib_args = [ Zigomp.Value.VInt fib_n ] in
  let tfib_prog = Zigomp.compile ~name:"task_fib.zr" task_fib_src in
  let sfib_prog = Zigomp.compile ~name:"serial_fib.zr" serial_fib_src in
  (* correctness before timing: both must agree *)
  let tv = Zigomp.call tfib_prog "fibmain" fib_args in
  let sv = Zigomp.call sfib_prog "fibmain" fib_args in
  if tv <> sv then failwith "bench tasking: task fib diverged from serial";
  let tfib_ms = 1e3 *. time_call tfib_prog "fibmain" fib_args ~reps:5 in
  let sfib_ms = 1e3 *. time_call sfib_prog "fibmain" fib_args ~reps:5 in
  Printf.printf
    "  %-14s %10.2f ms/call (task) %10.2f ms/call (serial) %6.2fx \
     overhead\n%!"
    (Printf.sprintf "fib_%d" fib_n)
    tfib_ms sfib_ms (tfib_ms /. sfib_ms);
  let json =
    Printf.sprintf
      "{\n  \"bench\": \"tasking\",\n  \"threads\": 4,\n  \"results\": [\n\
      \    { \"case\": \"stencil_sweep\", \"taskloop_ns_per_iter\": %.2f, \
       \"static_ns_per_iter\": %.2f, \"overhead_ratio\": %.3f },\n\
      \    { \"case\": \"fib_%d\", \"task_ms_per_call\": %.3f, \
       \"serial_ms_per_call\": %.3f, \"overhead_ratio\": %.3f }\n  ]\n}\n"
      tl_ns st_ns (tl_ns /. st_ns) fib_n tfib_ms sfib_ms
      (tfib_ms /. sfib_ms)
  in
  let oc = open_out "BENCH_tasking.json" in
  output_string oc json;
  close_out oc;
  print_endline "  wrote BENCH_tasking.json";
  print_newline ()

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", fun () -> emit_table Harness.Experiment.CG);
    ("table2", fun () -> emit_table Harness.Experiment.EP);
    ("table3", fun () -> emit_table Harness.Experiment.IS);
    ("fig3", fun () -> emit_figure Harness.Experiment.CG);
    ("fig4", fun () -> emit_figure Harness.Experiment.EP);
    ("fig5", fun () -> emit_figure Harness.Experiment.IS);
    ("micro", run_micro);
    ("bytecode", bench_bytecode);
    ("transform", bench_transform);
    ("tasking", bench_tasking);
    ("pool", bench_pool);
    ("sensitivity", sensitivity);
    ("ablation",
     fun () ->
       ablation_schedules ();
       ablation_barrier_scaling ();
       ablation_cache_knee ();
       ablation_gantt ();
       ablation_reduction_paths ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen =
    if args = [] then List.map fst sections
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a sections) then begin
            Printf.eprintf
              "unknown section %S; available: %s\n" a
              (String.concat ", " (List.map fst sections));
            exit 2
          end)
        args;
      args
    end
  in
  List.iter (fun name -> (List.assoc name sections) ()) chosen
