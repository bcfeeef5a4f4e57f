(* Simulator substrate tests: the priority heap, the discrete-event
   scheduler (clocks, barriers, mutexes, determinism), and the roofline
   performance model. *)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  List.iter (fun k -> Sim.Heap.push h k (int_of_float k))
    [ 5.; 1.; 4.; 1.5; 0.5; 9.; 2. ];
  let rec drain acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list (float 0.))) "keys come out sorted"
    [ 0.5; 1.; 1.5; 2.; 4.; 5.; 9. ]
    (drain [])

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h 1.0 v) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Sim.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "equal keys pop in insertion order"
    [ 1; 2; 3; 4 ] (drain [])

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains any sequence sorted" ~count:200
    QCheck2.Gen.(list_size (int_range 0 64) (float_range 0. 1000.))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iter (fun k -> Sim.Heap.push h k ()) keys;
      let rec drain acc =
        match Sim.Heap.pop h with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* ---- DES ---- *)

let test_des_advance_and_makespan () =
  let des = Sim.Des.create () in
  Sim.Des.spawn des (fun () -> Sim.Des.advance des 3.0);
  Sim.Des.spawn des (fun () -> Sim.Des.advance des 5.0);
  Alcotest.(check (float 1e-12)) "makespan = slowest thread" 5.0
    (Sim.Des.run des)

let test_des_min_clock_first () =
  (* the thread with the smaller clock always acts first *)
  let des = Sim.Des.create () in
  let log = ref [] in
  Sim.Des.spawn des (fun () ->
      Sim.Des.advance des 1.0;
      log := `A :: !log;
      Sim.Des.advance des 10.0;
      log := `A2 :: !log);
  Sim.Des.spawn des (fun () ->
      Sim.Des.advance des 2.0;
      log := `B :: !log;
      Sim.Des.advance des 2.0;
      log := `B2 :: !log);
  ignore (Sim.Des.run des);
  Alcotest.(check bool) "time-ordered interleaving" true
    (List.rev !log = [ `A; `B; `B2; `A2 ])

let test_des_barrier_rendezvous () =
  let des = Sim.Des.create () in
  let b = Sim.Des.Sbarrier.create des 3 in
  let after = ref [] in
  List.iter
    (fun dt ->
      Sim.Des.spawn des (fun () ->
          Sim.Des.advance des dt;
          Sim.Des.Sbarrier.wait b ~cost:0.5;
          after := Sim.Des.now des :: !after))
    [ 1.0; 4.0; 2.5 ];
  ignore (Sim.Des.run des);
  (* everyone resumes at max arrival (4.0) + barrier cost (0.5) *)
  List.iter
    (fun t -> Alcotest.(check (float 1e-12)) "release time" 4.5 t)
    !after

let test_des_barrier_reusable () =
  let des = Sim.Des.create () in
  let b = Sim.Des.Sbarrier.create des 2 in
  let finish = ref [] in
  List.iter
    (fun dt ->
      Sim.Des.spawn des (fun () ->
          for _ = 1 to 3 do
            Sim.Des.advance des dt;
            Sim.Des.Sbarrier.wait b ~cost:0.
          done;
          finish := Sim.Des.now des :: !finish))
    [ 1.0; 2.0 ];
  ignore (Sim.Des.run des);
  List.iter
    (fun t ->
      Alcotest.(check (float 1e-12)) "3 rounds, slowest dominates" 6.0 t)
    !finish

let test_des_mutex_serialises () =
  let des = Sim.Des.create () in
  let m = Sim.Des.Smutex.create des in
  let sections = ref [] in
  for _t = 0 to 2 do
    Sim.Des.spawn des (fun () ->
        Sim.Des.Smutex.lock m;
        let t0 = Sim.Des.now des in
        Sim.Des.advance des 1.0;
        sections := (t0, Sim.Des.now des) :: !sections;
        Sim.Des.Smutex.unlock m)
  done;
  ignore (Sim.Des.run des);
  let spans = List.sort compare !sections in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "critical sections back to back, never overlapping"
    [ (0., 1.); (1., 2.); (2., 3.) ]
    spans

let test_des_deadlock_detected () =
  let des = Sim.Des.create () in
  let b = Sim.Des.Sbarrier.create des 2 in
  Sim.Des.spawn des (fun () -> Sim.Des.Sbarrier.wait b ~cost:0.);
  Alcotest.(check bool) "lone thread at a 2-barrier deadlocks" true
    (try ignore (Sim.Des.run des); false
     with Sim.Des.Deadlock _ -> true)

let test_des_deterministic () =
  let run_once () =
    let des = Sim.Des.create () in
    let trace = ref [] in
    for t = 0 to 4 do
      Sim.Des.spawn des (fun () ->
          for i = 1 to 5 do
            Sim.Des.advance des (float_of_int ((t + i) mod 3) +. 0.1);
            trace := (t, i, Sim.Des.now des) :: !trace
          done)
    done;
    let m = Sim.Des.run des in
    (m, !trace)
  in
  let m1, t1 = run_once () in
  let m2, t2 = run_once () in
  Alcotest.(check (float 0.)) "same makespan" m1 m2;
  Alcotest.(check bool) "identical event traces" true (t1 = t2)

(* ---- controlled DES ---- *)

(* Controlled mode, one scheduling point of each kind: the start, a
   switch chosen at an advance, a suspension, a wake-up followed by an
   advance that keeps the running thread, and two finishes.  The hook
   runs once per point and is offered the sorted ids of the threads
   that are neither suspended nor finished, the running one included. *)
let test_des_controlled () =
  let des = Sim.Des.create () in
  let offered = ref [] and picks = ref [ 0; 1; 2; 2; 0; 1 ] in
  Sim.Des.set_decide des (fun ids ->
      offered := ids :: !offered;
      match !picks with
      | p :: rest -> picks := rest; p
      | [] -> Alcotest.fail "more scheduling points than expected");
  let log = ref [] in
  let note s = log := (s, Sim.Des.now des) :: !log in
  let wake1 = ref None in
  Sim.Des.spawn des (fun () ->
      Sim.Des.spawn des (fun () ->
          note "1 starts";
          Sim.Des.suspend des (fun w -> wake1 := Some w);
          note "1 woken");
      Sim.Des.spawn des (fun () ->
          note "2 starts";
          (match !wake1 with Some w -> w ~at:5.0 | None -> ());
          Sim.Des.advance des 1.0;
          note "2 kept running");
      Sim.Des.advance des 1.0;
      note "0 resumed");
  ignore (Sim.Des.run des);
  Alcotest.(check (list (list int))) "one decision per point, sorted sets"
    [ [ 0 ]; [ 0; 1; 2 ]; [ 0; 2 ]; [ 0; 1; 2 ]; [ 0; 1 ]; [ 1 ] ]
    (List.rev !offered);
  Alcotest.(check (list (pair string (float 0.))))
    "the chosen thread runs next, with unchanged clocks"
    [ ("1 starts", 0.); ("2 starts", 0.); ("2 kept running", 1.);
      ("0 resumed", 1.); ("1 woken", 5.) ]
    (List.rev !log)

let test_des_controlled_misuse () =
  let des = Sim.Des.create () in
  Sim.Des.spawn des (fun () -> ());
  Alcotest.(check bool) "set_decide after a spawn is refused" true
    (try Sim.Des.set_decide des List.hd; false
     with Invalid_argument _ -> true);
  let des = Sim.Des.create () in
  Sim.Des.set_decide des (fun _ -> 7);
  Sim.Des.spawn des (fun () -> ());
  Alcotest.(check bool) "choosing a thread that is not runnable fails" true
    (try ignore (Sim.Des.run des); false with Invalid_argument _ -> true)

(* ---- perfmodel ---- *)

let m = Sim.Machine.archer2

let test_roofline_compute_bound () =
  let c = Omp_model.Cost.flops 1e9 in
  let t = Sim.Perfmodel.time m ~active:1 c in
  Alcotest.(check (float 1e-9)) "flops / rate" (1e9 /. m.flops_per_core) t;
  (* compute time is independent of active thread count *)
  Alcotest.(check (float 1e-12)) "no bandwidth interaction" t
    (Sim.Perfmodel.time m ~active:128 c)

let test_roofline_memory_scaling () =
  let c = Omp_model.Cost.bytes 1e9 in
  let t1 = Sim.Perfmodel.time m ~active:1 c in
  let t4 = Sim.Perfmodel.time m ~active:4 c in
  let t128 = Sim.Perfmodel.time m ~active:128 c in
  Alcotest.(check bool) "per-thread bandwidth shrinks with occupancy" true
    (t4 > t1 && t128 >= t4);
  (* at full occupancy the per-thread share is node_bw / 128 *)
  Alcotest.(check (float 1e-6)) "node saturation share"
    (1e9 /. (m.node_mem_bw /. 128.)) t128

let test_gather_slower_than_stream () =
  let stream = Omp_model.Cost.bytes 1e8 in
  let gather = Omp_model.Cost.gather 1e8 in
  Alcotest.(check bool) "gather costs more" true
    (Sim.Perfmodel.time m ~active:1 gather
     > Sim.Perfmodel.time m ~active:1 stream)

let test_cache_capacity_effect () =
  (* working set far above the L3 slice: full traffic; below: reduced *)
  let c = Omp_model.Cost.bytes 1e9 in
  let big = Sim.Perfmodel.time m ~active:128 ~working_set:1e12 c in
  let fits = Sim.Perfmodel.time m ~active:128 ~working_set:1e6 c in
  Alcotest.(check bool) "fitting working set is faster" true (fits < big);
  Alcotest.(check (float 1e-9)) "floor is the hit-level miss factor"
    (big *. m.l3_hit_miss) fits

let test_miss_factor_monotone () =
  let wss = [ 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 ] in
  let misses =
    List.map (fun ws -> Sim.Perfmodel.miss_factor m ~active:16 ws) wss
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "miss factor grows with working set" true
    (mono misses);
  List.iter
    (fun f ->
      Alcotest.(check bool) "in [hit, 1]" true
        (f >= m.l3_hit_miss -. 1e-12 && f <= 1.0 +. 1e-12))
    misses

let test_barrier_cost_grows () =
  Alcotest.(check (float 0.)) "1 thread free" 0.
    (Sim.Perfmodel.barrier_time m ~nthreads:1);
  Alcotest.(check bool) "grows with team size" true
    (Sim.Perfmodel.barrier_time m ~nthreads:128
     > Sim.Perfmodel.barrier_time m ~nthreads:2)

let suite =
  [ Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap FIFO on ties" `Quick test_heap_fifo_ties;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    Alcotest.test_case "DES advance and makespan" `Quick
      test_des_advance_and_makespan;
    Alcotest.test_case "DES min-clock-first order" `Quick
      test_des_min_clock_first;
    Alcotest.test_case "DES barrier rendezvous" `Quick
      test_des_barrier_rendezvous;
    Alcotest.test_case "DES barrier reusable" `Quick test_des_barrier_reusable;
    Alcotest.test_case "DES mutex serialises" `Quick test_des_mutex_serialises;
    Alcotest.test_case "DES deadlock detection" `Quick
      test_des_deadlock_detected;
    Alcotest.test_case "DES determinism" `Quick test_des_deterministic;
    Alcotest.test_case "DES controlled decisions" `Quick test_des_controlled;
    Alcotest.test_case "DES controlled misuse" `Quick
      test_des_controlled_misuse;
    Alcotest.test_case "roofline compute bound" `Quick
      test_roofline_compute_bound;
    Alcotest.test_case "roofline memory scaling" `Quick
      test_roofline_memory_scaling;
    Alcotest.test_case "gather slower than stream" `Quick
      test_gather_slower_than_stream;
    Alcotest.test_case "cache capacity effect" `Quick
      test_cache_capacity_effect;
    Alcotest.test_case "miss factor monotone" `Quick test_miss_factor_monotone;
    Alcotest.test_case "barrier cost grows with team" `Quick
      test_barrier_cost_grows;
  ]
