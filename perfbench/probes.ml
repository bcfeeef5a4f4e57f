(* Layer probes for a traced run: the runtime primitives at the team
   size the workloads use.  They do not depend on the workload, so every
   traced run reports them and a change to one primitive shows in every
   workload's trace. *)

module Omp = Omprt.Omp

(* Median seconds per call of [f], timed in batches of [batch] calls. *)
let per_call ~seconds ?(batch = 1) f =
  let samples =
    Timing.repeat_for ~seconds ~min_runs:5 (fun () ->
        for _ = 1 to batch do f () done)
  in
  Timing.median (List.map snd samples) /. float_of_int batch

let run ~seconds ~threads =
  let per_call = per_call ~seconds in
  let us s = 1e6 *. s and ns s = 1e9 *. s in
  let x = Array.init 10_000 float_of_int in
  let sum_chunk lo hi =
    let s = ref 0. in
    for i = lo to hi - 1 do s := !s +. x.(i) done;
    ignore (Sys.opaque_identity !s)
  in
  let region body () = Omp.parallel ~num_threads:threads body in
  let fcell = Omprt.Atomics.Float.make 0. in
  [ ("omprt.fork_join_us", "us", us (per_call ~batch:50 (region ignore)));
    ("omprt.barrier_us", "us",
     us
       (per_call
          (region (fun () -> for _ = 1 to 100 do Omp.barrier () done))
       /. 100.));
    ("omprt.ws_static_10k_us", "us",
     us (per_call (region (fun () -> Omp.ws_for ~lo:0 ~hi:10_000 sum_chunk))));
    ("omprt.ws_dynamic64_10k_us", "us",
     us
       (per_call
          (region (fun () ->
               Omp.ws_for ~sched:(Omp_model.Sched.Dynamic 64) ~lo:0
                 ~hi:10_000 sum_chunk))));
    ("omprt.atomic_float_add_ns", "ns",
     ns (per_call ~batch:1000 (fun () -> Omprt.Atomics.Float.add fcell 1.0)));
    ("omprt.critical_ns", "ns",
     ns (per_call ~batch:1000 (fun () -> Omprt.Lock.critical ignore)));
    ("omprt.task.spawn_ns", "ns",
     ns
       (per_call
          (region (fun () ->
               Omp.single (fun () ->
                   for _ = 1 to 1000 do Omp.task ignore done;
                   Omp.taskwait ())))
       /. 1000.)) ]
