(* Deferred tasking on the native runtime: work-stealing deques, nested
   tasks run inline, task scheduling points (taskwait/barrier/region
   end), per-task ICV data environments, copyprivate broadcast — and the
   exception-safety regression for [single] (a raise in the claimed body
   used to strand teammates at the implied barrier forever). *)

open Omprt

(* Recursive fib over explicit tasks: the canonical irregular workload
   static partitioning cannot express. *)
let rec task_fib n =
  if n < 2 then n
  else begin
    let a = ref 0 and b = ref 0 in
    Omp.task (fun () -> a := task_fib (n - 1));
    Omp.task (fun () -> b := task_fib (n - 2));
    Omp.taskwait ();
    !a + !b
  end

let fib_expected = 987 (* fib 16 *)

(* Spin until the steal counter passes [since], for [secs] at most. *)
let wait_for_steal ~since secs =
  let deadline = Api.get_wtime () +. secs in
  while
    (Profile.task_stats ()).Profile.task_steals <= since
    && Api.get_wtime () < deadline
  do
    Domain.cpu_relax ()
  done

let test_task_fib_parallel () =
  (* the only way work reaches tids 1..3 is stealing: every task is
     rooted in the single-claiming thread's deque.  A teammate that
     reaches a scheduling point while no task is live passes it without
     stealing, so the others wait until the root's children exist; and
     whether one gets a CPU before the owner could drain its own deque
     is up to the OS scheduler, so the root keeps its two children
     queued until a steal is seen (10 s at most) *)
  let result = ref 0 in
  let spawned = Atomic.make false in
  let before = Profile.task_stats () in
  Omp.parallel ~num_threads:4 (fun () ->
      Omp.single ~nowait:true (fun () ->
          let a = ref 0 and b = ref 0 in
          Omp.task (fun () -> a := task_fib 15);
          Omp.task (fun () -> b := task_fib 14);
          Atomic.set spawned true;
          wait_for_steal ~since:before.Profile.task_steals 10.;
          Omp.taskwait ();
          result := !a + !b);
      while not (Atomic.get spawned) do Domain.cpu_relax () done);
  let after = Profile.task_stats () in
  Alcotest.(check int) "fib 16 over deferred tasks" fib_expected !result;
  Alcotest.(check bool) "tasks were spawned" true
    (after.Profile.tasks_spawned > before.Profile.tasks_spawned);
  Alcotest.(check bool) "work migrated through steals" true
    (after.Profile.task_steals > before.Profile.task_steals)

let test_task_fib_serial_team () =
  (* nt=1: every task must execute undeferred at its creation point *)
  let result = ref 0 in
  let before = Profile.task_stats () in
  Omp.parallel ~num_threads:1 (fun () -> result := task_fib 12);
  let after = Profile.task_stats () in
  Alcotest.(check int) "fib 12 undeferred" 144 !result;
  Alcotest.(check int) "every spawn ran undeferred"
    (after.Profile.tasks_spawned - before.Profile.tasks_spawned)
    (after.Profile.tasks_undeferred - before.Profile.tasks_undeferred);
  Alcotest.(check int) "no steals on a team of one"
    before.Profile.task_steals after.Profile.task_steals

let test_task_outside_region_is_undeferred () =
  let ran = ref false in
  Omp.task (fun () -> ran := true);
  Alcotest.(check bool) "executed at the creation point" true !ran;
  Omp.taskwait () (* no-op outside a region; must not raise *)

let test_task_outside_region_owns_its_icvs () =
  (* the initial task's frame used to be the task's own: a
     set_num_threads inside leaked into every later fork *)
  let base = Api.get_max_threads () in
  Fun.protect ~finally:(fun () -> Icv.global.nthreads <- base) @@ fun () ->
  let seen = ref 0 and team = ref 0 in
  Omp.task (fun () ->
      Api.set_num_threads (base + 3);
      seen := Api.get_max_threads ();
      (* a region forked inside the task inherits the task's frame *)
      Omp.parallel (fun () ->
          if Omp.thread_num () = 0 then team := Omp.num_threads ()));
  Alcotest.(check int) "the task sees its own setting" (base + 3) !seen;
  Alcotest.(check int) "a fork inside the task inherits it" (base + 3) !team;
  Alcotest.(check int) "the initial task's nthreads-var is untouched" base
    (Api.get_max_threads ())

(* --- inline nested tasks -------------------------------------------- *)

let task_delta (b : Profile.task_stats) (a : Profile.task_stats) =
  ( a.Profile.tasks_spawned - b.Profile.tasks_spawned,
    a.Profile.tasks_undeferred - b.Profile.tasks_undeferred,
    a.Profile.task_local_pops - b.Profile.task_local_pops,
    a.Profile.task_steals - b.Profile.task_steals )

let test_task_counts_conserved () =
  (* every task either runs inline or is claimed from a deque exactly
     once, by its owner or by a thief *)
  List.iter
    (fun nt ->
      let result = ref 0 in
      let before = Profile.task_stats () in
      Omp.parallel ~num_threads:nt (fun () ->
          Omp.single (fun () -> result := task_fib 16));
      let spawned, undeferred, pops, steals =
        task_delta before (Profile.task_stats ())
      in
      Alcotest.(check int) (Printf.sprintf "fib 16 at %d threads" nt)
        fib_expected !result;
      Alcotest.(check int)
        (Printf.sprintf "spawned = undeferred + pops + steals at %d" nt)
        spawned (undeferred + pops + steals))
    [ 2; 4 ]

let test_nested_tasks_run_inline () =
  let result = ref 0 in
  let before = Profile.task_stats () in
  Omp.parallel ~num_threads:2 (fun () ->
      Omp.single (fun () -> result := task_fib 16));
  let _, undeferred, _, _ = task_delta before (Profile.task_stats ()) in
  Alcotest.(check int) "fib 16" fib_expected !result;
  Alcotest.(check bool) "explicit tasks ran some children inline" true
    (undeferred > 0)

let test_generator_tasks_stay_deferred () =
  (* a single's loop is an implicit task: inlining its spawns would
     leave teammates with nothing to steal *)
  let hits = Array.make 64 0 in
  let before = Profile.task_stats () in
  Omp.parallel ~num_threads:2 (fun () ->
      Omp.single (fun () ->
          for i = 0 to 63 do
            Omp.task (fun () -> hits.(i) <- hits.(i) + 1)
          done));
  let spawned, undeferred, _, _ = task_delta before (Profile.task_stats ()) in
  Alcotest.(check bool) "every task ran exactly once" true
    (Array.for_all (( = ) 1) hits);
  Alcotest.(check int) "all 64 spawned" 64 spawned;
  Alcotest.(check int) "none ran inline" 0 undeferred

let test_flat_spawn_loop_stays_stealable () =
  (* an explicit task spawning in a flat loop (a taskloop or a
     [while ... task] inside a task) must keep a queued task for each
     teammate: its thread's deque starts empty, so its first [nt - 1]
     spawns are deferred whatever the thieves do *)
  let nt = 4 in
  let hits = Array.make 64 0 in
  let before = Profile.task_stats () in
  Omp.parallel ~num_threads:nt (fun () ->
      Omp.single (fun () ->
          Omp.task (fun () ->
              for i = 0 to 63 do
                Omp.task (fun () -> hits.(i) <- hits.(i) + 1)
              done)));
  let spawned, undeferred, _, _ = task_delta before (Profile.task_stats ()) in
  Alcotest.(check bool) "every task ran exactly once" true
    (Array.for_all (( = ) 1) hits);
  Alcotest.(check int) "the task and its 64 children spawned" 65 spawned;
  Alcotest.(check bool)
    (Printf.sprintf "the task and at least %d children deferred" (nt - 1))
    true
    (spawned - undeferred >= nt)

(* Run [body] as an explicit task on an [nt]-thread team, at a point
   where its thread's deque holds [nt - 1] tasks, so [body]'s first
   spawn runs inline.  The task first spawns [nt - 1] blockers and waits
   until each teammate has stolen one — a blocker holds its thief until
   [body] is done — so nobody can steal the [nt - 1] fillers it queues
   next.  Teammates hold off until the task exists: one that reached the
   region-end scheduling point while no task was live would leave.
   Returns the region's outcome and the inline-task count. *)
let with_inline_spawn ~nt body =
  let spawned = Atomic.make false in
  let held = Atomic.make 0 and release = Atomic.make false in
  let before = Profile.task_stats () in
  let outcome =
    match
      Omp.parallel ~num_threads:nt (fun () ->
          if Omp.thread_num () = 0 then begin
            Omp.task (fun () ->
                let nt = Omp.num_threads () in
                for _ = 2 to nt do
                  Omp.task (fun () ->
                      Atomic.incr held;
                      while not (Atomic.get release) do
                        Domain.cpu_relax ()
                      done)
                done;
                while Atomic.get held < nt - 1 do Domain.cpu_relax () done;
                for _ = 2 to nt do Omp.task (fun () -> ()) done;
                Fun.protect ~finally:(fun () -> Atomic.set release true) body);
            Atomic.set spawned true
          end
          else while not (Atomic.get spawned) do Domain.cpu_relax () done)
    with
    | () -> Ok ()
    | exception e -> Error e
  in
  let _, undeferred, _, _ = task_delta before (Profile.task_stats ()) in
  (outcome, undeferred)

let test_inline_task_failure_propagates () =
  List.iter
    (fun nt ->
      let outcome, undeferred =
        with_inline_spawn ~nt (fun () ->
            Omp.task (fun () -> failwith "inline boom"))
      in
      Alcotest.(check int) (Printf.sprintf "one inline task at %d" nt) 1
        undeferred;
      Alcotest.(check bool)
        (Printf.sprintf "inline raise is a Worker_failure at %d" nt)
        true
        (match outcome with
         | Error (Team.Worker_failure (_, Failure msg)) -> msg = "inline boom"
         | Ok () | Error _ -> false))
    [ 2; 4 ]

let test_inline_task_isolates_icvs () =
  let inherited = ref 0 and after = ref 0 in
  let outcome, undeferred =
    with_inline_spawn ~nt:2 (fun () ->
        Api.set_num_threads 7;
        Omp.task (fun () ->
            inherited := Api.get_max_threads ();
            Api.set_num_threads 99);
        after := Api.get_max_threads ())
  in
  Alcotest.(check bool) "region completed" true (outcome = Ok ());
  Alcotest.(check int) "the task ran inline" 1 undeferred;
  Alcotest.(check int) "inline task inherited the creator's value" 7
    !inherited;
  Alcotest.(check int) "its set_num_threads did not leak back" 7 !after

let test_region_end_drains_tasks () =
  (* tasks spawned but never taskwaited: the implicit region-end
     scheduling point must complete them before the join *)
  let hits = Array.make 64 0 in
  Omp.parallel ~num_threads:4 (fun () ->
      Omp.single ~nowait:true (fun () ->
          for i = 0 to 63 do
            Omp.task (fun () -> hits.(i) <- hits.(i) + 1)
          done));
  Alcotest.(check bool) "every task ran exactly once" true
    (Array.for_all (( = ) 1) hits)

let test_barrier_is_a_scheduling_point () =
  (* all tasks are complete once any thread passes an explicit barrier *)
  let hits = Array.make 32 0 in
  let ok = Atomic.make true in
  Omp.parallel ~num_threads:4 (fun () ->
      if Omp.thread_num () = 0 then
        for i = 0 to 31 do
          Omp.task (fun () -> hits.(i) <- hits.(i) + 1)
        done;
      Omp.barrier ();
      if not (Array.for_all (( = ) 1) hits) then Atomic.set ok false);
  Alcotest.(check bool) "barrier waited for all tasks" true (Atomic.get ok)

let test_taskwait_waits_for_children_only () =
  let child_done = ref false in
  let seen_by_parent = ref false in
  Omp.parallel ~num_threads:2 (fun () ->
      if Omp.thread_num () = 0 then begin
        Omp.task (fun () -> child_done := true);
        Omp.taskwait ();
        seen_by_parent := !child_done
      end);
  Alcotest.(check bool) "taskwait returned after the child ran" true
    !seen_by_parent

let test_task_inherits_and_isolates_icvs () =
  (* the task's data environment snapshots the generating task's frame
     at creation; omp_set_* inside the task stays in the task *)
  let inherited = ref 0 in
  let after = ref 0 in
  Omp.parallel ~num_threads:2 (fun () ->
      if Omp.thread_num () = 0 then begin
        Api.set_num_threads 7;
        Omp.task (fun () ->
            inherited := Api.get_max_threads ();
            Api.set_num_threads 99);
        Omp.taskwait ();
        after := Api.get_max_threads ()
      end);
  Alcotest.(check int) "task inherited the creator's nthreads-var" 7
    !inherited;
  Alcotest.(check int) "the task's set_num_threads did not leak back" 7
    !after

let test_task_failure_propagates_as_worker_failure () =
  Alcotest.(check bool) "deferred task raise arrives as Worker_failure"
    true
    (try
       Omp.parallel ~num_threads:4 (fun () ->
           Omp.single (fun () ->
               Omp.task (fun () -> failwith "task boom");
               Omp.taskwait ()));
       false
     with Team.Worker_failure (_, Failure msg) -> msg = "task boom")

(* --- the single exception-safety regression ------------------------ *)

let test_single_body_raise_does_not_strand_teammates () =
  (* pre-PR: the claiming thread skipped the implied barrier on a raise,
     so the other three threads waited forever — this test hung *)
  Alcotest.(check bool) "raise inside single surfaces as Worker_failure"
    true
    (try
       Omp.parallel ~num_threads:4 (fun () ->
           Omp.single (fun () -> failwith "single boom"));
       false
     with Team.Worker_failure (_, Failure msg) -> msg = "single boom")

let test_single_nowait_raise_propagates () =
  (* no implied barrier to honour here: the failure just propagates out
     of the region body and surfaces at the join *)
  Alcotest.(check bool) "nowait single still propagates the failure" true
    (try
       Omp.parallel ~num_threads:2 (fun () ->
           Omp.single ~nowait:true (fun () -> failwith "nowait boom"));
       false
     with Team.Worker_failure (_, Failure msg) -> msg = "nowait boom")

(* --- copyprivate ---------------------------------------------------- *)

let test_copyprivate_broadcast () =
  let views = Array.make 4 0 in
  Omp.parallel ~num_threads:4 (fun () ->
      let x = ref 0 in
      (* the generated-code shape: split single + put/get around the
         implied barrier *)
      if Kmpc.single_begin () then begin
        x := 42;
        Kmpc.copyprivate_put !x;
        Kmpc.single_end ()
      end;
      Kmpc.barrier ();
      x := Kmpc.copyprivate_get ();
      views.(Omp.thread_num ()) <- !x);
  Alcotest.(check (array int)) "every thread received the claimer's value"
    [| 42; 42; 42; 42 |] views

let test_copyprivate_back_to_back_singles () =
  (* epoch keying: two singles in sequence must not cross wires *)
  let first = Array.make 2 0 and second = Array.make 2 0 in
  Omp.parallel ~num_threads:2 (fun () ->
      if Kmpc.single_begin () then begin
        Kmpc.copyprivate_put 1;
        Kmpc.single_end ()
      end;
      Kmpc.barrier ();
      first.(Omp.thread_num ()) <- Kmpc.copyprivate_get ();
      if Kmpc.single_begin () then begin
        Kmpc.copyprivate_put 2;
        Kmpc.single_end ()
      end;
      Kmpc.barrier ();
      second.(Omp.thread_num ()) <- Kmpc.copyprivate_get ());
  Alcotest.(check (array int)) "first broadcast" [| 1; 1 |] first;
  Alcotest.(check (array int)) "second broadcast" [| 2; 2 |] second

let suite =
  [ Alcotest.test_case "task fib at 4 threads (with steals)" `Quick
      test_task_fib_parallel;
    Alcotest.test_case "serial teams run tasks undeferred" `Quick
      test_task_fib_serial_team;
    Alcotest.test_case "tasks outside a region are undeferred" `Quick
      test_task_outside_region_is_undeferred;
    Alcotest.test_case "tasks outside a region own their ICVs" `Quick
      test_task_outside_region_owns_its_icvs;
    Alcotest.test_case "task counters are conserved" `Quick
      test_task_counts_conserved;
    Alcotest.test_case "nested tasks run inline" `Quick
      test_nested_tasks_run_inline;
    Alcotest.test_case "generator tasks stay deferred" `Quick
      test_generator_tasks_stay_deferred;
    Alcotest.test_case "flat spawn loops in a task stay stealable" `Quick
      test_flat_spawn_loop_stays_stealable;
    Alcotest.test_case "inline task failure becomes Worker_failure" `Quick
      test_inline_task_failure_propagates;
    Alcotest.test_case "inline task ICV frames isolate" `Quick
      test_inline_task_isolates_icvs;
    Alcotest.test_case "region end drains outstanding tasks" `Quick
      test_region_end_drains_tasks;
    Alcotest.test_case "barrier is a task scheduling point" `Quick
      test_barrier_is_a_scheduling_point;
    Alcotest.test_case "taskwait waits for direct children" `Quick
      test_taskwait_waits_for_children_only;
    Alcotest.test_case "task ICV frames inherit and isolate" `Quick
      test_task_inherits_and_isolates_icvs;
    Alcotest.test_case "task failure becomes Worker_failure" `Quick
      test_task_failure_propagates_as_worker_failure;
    Alcotest.test_case "single body raise cannot hang the team" `Quick
      test_single_body_raise_does_not_strand_teammates;
    Alcotest.test_case "single nowait raise propagates" `Quick
      test_single_nowait_raise_propagates;
    Alcotest.test_case "copyprivate broadcasts to the team" `Quick
      test_copyprivate_broadcast;
    Alcotest.test_case "copyprivate epochs do not cross" `Quick
      test_copyprivate_back_to_back_singles;
  ]
