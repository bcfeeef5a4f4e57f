(* The one timing harness: a monotonic clock, a time-based warm-up, a
   deadline-driven sampler and order statistics over the samples.  Every
   duration the benchmark reports is taken here, so all rows share one
   clock and one definition of median and spread. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let since t0 = seconds_between t0 (now_ns ())

(* [time f] — result and wall seconds of one call. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* [repeat_for ~seconds ?min_runs ?stop_ok ?after f] — call [f] until
   [seconds] have passed and at least [min_runs] calls were made,
   returning each call's result paired with its duration in call order.
   [after] sees each result outside the timed interval, before the next
   call.  [stop_ok] lets a workload refuse to stop mid-way through a
   unit whose output can only be checked when it completes (an NPB run
   of [niter] iterations): sampling continues past the deadline until
   it allows stopping. *)
let repeat_for ~seconds ?(min_runs = 1) ?(stop_ok = fun () -> true)
    ?(after = ignore) f =
  let t_start = now_ns () in
  let rec go n acc =
    if n >= min_runs && since t_start >= seconds && stop_ok () then
      List.rev acc
    else
      let r, dt = time f in
      after r;
      go (n + 1) ((r, dt) :: acc)
  in
  go 0 []

type summary = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  p90 : float option;  (* only with at least ten samples beyond it *)
  samples : float array;  (* in measurement order *)
}

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let summarize samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  { n;
    median = quantile sorted 0.5;
    q1 = quantile sorted 0.25;
    q3 = quantile sorted 0.75;
    p90 = (if n >= 100 then Some (quantile sorted 0.9) else None);
    samples }

let median xs = (summarize (Array.of_list xs)).median

(* Relative spread: interquartile distance over the median. *)
let rel_iqr s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

(* The reference: a fixed piece of plain OCaml work that uses none of
   the project's code.  Timed next to every operation, it measures how
   fast the host runs at that moment; dividing by it cancels the host's
   slow phases, which on a shared machine move whole runs by 1.5x or
   more.  It has two halves of about the same length: building a
   balanced Map of 2,000 pseudo-random keys, which allocates about a
   megabyte, most of it dying young, and 2,000 lookups in a Map of 2,048
   keys built once, which allocate nothing and stay in cache.  The
   programs under test do both, and a slow phase of the host slows the
   two by different amounts (compute the most, allocation and memory
   traffic less); of the candidates tried, the two together left the
   least spread over all workloads.  See perfbench/README.md for the
   measurements. *)
module Int_map = Map.Make (Int)

let reference_keys = 2048

(* 7919 is odd, so every key below [reference_keys] is present *)
let reference_map =
  let m = ref Int_map.empty in
  for i = 0 to reference_keys - 1 do
    m := Int_map.add ((i * 7919) land (reference_keys - 1)) i !m
  done;
  !m

let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let reference_work () =
  let m = ref Int_map.empty and x = ref 12345 in
  for _ = 1 to 2_000 do
    x := next !x;
    m := Int_map.add (!x land 0xffff) !x !m
  done;
  let acc = ref (Int_map.fold (fun k v a -> a + k + v) !m 0) in
  for _ = 1 to 2_000 do
    x := next !x;
    acc := !acc + Int_map.find (!x land (reference_keys - 1)) reference_map
  done;
  ignore (Sys.opaque_identity !acc)

(* [reference ~domains] — seconds of [reference_work] run on [domains]
   domains at once, started together: the slowest one's time.  A team
   of two threads runs on both vCPUs and waits for the slower one at
   every barrier and every minor collection, and the second vCPU can be
   slow while the first is not; a reference on one domain would miss
   that.  Helpers end only after every domain has finished, because
   ending a domain stops all the others for a moment. *)
let reference ~domains =
  if domains <= 1 then snd (time reference_work)
  else begin
    let helpers = domains - 1 in
    let ready = Atomic.make 0 and finished = Atomic.make 0 in
    let go = Atomic.make false and release = Atomic.make false in
    let wait_for cond = while not (cond ()) do Domain.cpu_relax () done in
    let spawned =
      List.init helpers (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              wait_for (fun () -> Atomic.get go);
              let t = snd (time reference_work) in
              Atomic.incr finished;
              wait_for (fun () -> Atomic.get release);
              t))
    in
    wait_for (fun () -> Atomic.get ready = helpers);
    Atomic.set go true;
    let own = snd (time reference_work) in
    wait_for (fun () -> Atomic.get finished = helpers);
    Atomic.set release true;
    List.fold_left (fun acc d -> Float.max acc (Domain.join d)) own spawned
  end

(* The time of [reference_work] on one domain of the host the bounds
   were set on (a 2-vCPU Intel Xeon) when it ran quietly, its tenth
   percentile over 3,000 runs: the factor that turns a set-up time in
   reference units back into seconds at that host's nominal speed. *)
let reference_nominal_s = 5.7e-4

(* The reference taken inside the operations of a workload that runs on
   one thread.  A timer signal every [period] seconds interrupts the
   running operation at its next safepoint, and the handler times one
   [reference_work] there: on the same thread, at the same moment, with
   the operation's caches around it.  A reference timed only before and
   after an operation misses the host's changes of speed within it,
   which on a shared host come many times a second.  The handler's time
   is [spent] and the words it allocates [words], which the runner takes
   off each operation's. *)
module Sampler = struct
  let active = ref false
  let taken : (int64 * float) list ref = ref []  (* start, seconds; newest first *)
  let spent = ref 0.
  let words = ref 0.

  let sample () =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    reference_work ();
    let dt = since t0 in
    taken := (t0, dt) :: !taken;
    words := !words +. Gc.minor_words () -. w0;
    dt

  let handle _ = if !active then spent := !spent +. sample ()

  let itimer period =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

  (* The handler stays installed once set: a signal still pending when
     sampling stops then finds it inactive, not the default action.  One
     sample is taken at once, so that there is always one. *)
  let start ~period =
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle handle);
    taken := [];
    ignore (sample ());
    active := true;
    itimer period

  let stop () =
    itimer 0.;
    active := false

  (* [per_reference t r] — [t] seconds of an operation in units of the
     reference [r] sampled inside it, at the host's nominal speed.  Such
     an operation slows down more than the reference in the host's slow
     phases: its time grows as the [exponent]th power of the reference's
     (the log-log slope over run medians of the checker and the frontend
     in four sets of ten runs, 1.15-1.45), so [t / r] alone still rose
     with [r].  The excess power is taken off against the reference's
     nominal time, so that at that speed the result is [t / r]. *)
  let exponent = 1.3

  let per_reference t r = t /. r *. ((reference_nominal_s /. r) ** (exponent -. 1.))

  (* [around ~k t0 t1] — the reference over the interval [t0, t1]: the
     median of the samples started in it, or of the [k] started nearest
     to its middle when fewer were. *)
  let around ~k t0 t1 =
    let inside = List.filter (fun (t, _) -> t >= t0 && t <= t1) !taken in
    if List.length inside >= k then median (List.map snd inside)
    else
      let mid = Int64.add t0 (Int64.div (Int64.sub t1 t0) 2L) in
      let dist (t, _) = Int64.abs (Int64.sub t mid) in
      List.sort (fun a b -> compare (dist a) (dist b)) !taken
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd |> median
end
