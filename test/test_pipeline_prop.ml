(* Property tests over the whole pipeline: randomly generated pragma
   programs are preprocessed, executed on a real team, and compared
   against a sequential OCaml model.  Values are chosen so that
   floating-point results are exact regardless of combination order
   (small integers for sums, powers of two for products), making the
   comparison bit-precise. *)

module V = Interp.Value

let schedules =
  [ ""; "schedule(static)"; "schedule(static, 3)"; "schedule(static, 7)";
    "schedule(dynamic, 1)"; "schedule(dynamic, 5)"; "schedule(guided, 2)";
    "schedule(runtime)"; "schedule(auto)" ]

let sched_gen = QCheck2.Gen.oneofl schedules

(* exact-float value pools *)
let add_val_gen = QCheck2.Gen.map float_of_int (QCheck2.Gen.int_range (-8) 8)
let mul_val_gen = QCheck2.Gen.oneofl [ 0.5; 1.0; 2.0 ]

let program ~op ~sched = Printf.sprintf {|
fn reduce(n: i64, x: []f64) f64 {
    var acc: f64 = %s;
    var i: i64 = 0;
    //$omp parallel for reduction(%s: acc) shared(x) %s
    while (i < n) : (i += 1) {
        acc %s= x[i];
    }
    return acc;
}
|} (match op with `Add -> "0.0" | `Mul -> "1.0")
   (match op with `Add -> "+" | `Mul -> "*")
   sched
   (match op with `Add -> "+" | `Mul -> "*")

let run_one ~op ~sched ~threads (values : float list) =
  Omprt.Api.set_num_threads threads;
  let p = Interp.load ~name:"prop.zr" (program ~op ~sched) in
  let x = Array.of_list values in
  match
    Interp.call p "reduce" [ V.VInt (Array.length x); V.VFloatArr x ]
  with
  | V.VFloat f -> f
  | v -> failwith ("unexpected " ^ V.to_string v)

let case_gen ~op value_gen =
  QCheck2.Gen.(
    let* sched = sched_gen in
    let* threads = int_range 1 4 in
    let* values = list_size (int_range 0 40) value_gen in
    return (op, sched, threads, values))

let fold ~op values =
  match op with
  | `Add -> List.fold_left ( +. ) 0. values
  | `Mul -> List.fold_left ( *. ) 1. values

let prop_of ~name ~op value_gen =
  QCheck2.Test.make ~name ~count:40 (case_gen ~op value_gen)
    (fun (op, sched, threads, values) ->
      run_one ~op ~sched ~threads values = fold ~op values)

let prop_sum =
  prop_of ~name:"random + reduction = OCaml fold (any schedule/team)"
    ~op:`Add add_val_gen

let prop_product =
  prop_of
    ~name:"random * reduction = OCaml fold (CAS-loop path, any schedule)"
    ~op:`Mul mul_val_gen

(* clause-combination robustness: every combination of data-sharing
   clauses on a two-loop region must preprocess to parseable output *)
let clause_gen =
  QCheck2.Gen.(
    let* priv = bool in
    let* fp = bool in
    let* sh = bool in
    let* nowait1 = bool in
    let* dflt = oneofl [ ""; "default(shared)" ] in
    let* sched = sched_gen in
    return (priv, fp, sh, nowait1, dflt, sched))

let prop_clause_combinations =
  QCheck2.Test.make ~name:"random clause combinations preprocess cleanly"
    ~count:60 clause_gen
    (fun (priv, fp, sh, nowait1, dflt, sched) ->
      let clauses =
        String.concat " "
          [ (if priv then "private(t)" else "");
            (if fp then "firstprivate(n)" else "");
            (if sh then "shared(x)" else "");
            dflt ]
      in
      let src = Printf.sprintf {|
fn f(n: i64, x: []f64) f64 {
    var s: f64 = 0.0;
    //$omp parallel reduction(+: s) %s
    {
        var t = 0.0;
        var i: i64 = 0;
        //$omp for %s %s
        while (i < n) : (i += 1) {
            t = x[i];
            s += t;
        }
        var j: i64 = 0;
        //$omp for %s
        while (j < n) : (j += 1) {
            s += 1.0;
        }
    }
    return s;
}
|} clauses sched (if nowait1 then "nowait" else "") sched
      in
      let out = Preproc.Preprocess.run_parsed ~name:"rand.zr" src in
      String.length (Preproc.Synth.text out) > 0)

(* the preprocessor is a fixpoint: its output contains no executable
   pragmas (only threadprivate survives, and the loader consumes it),
   so preprocessing a second time must change nothing *)
let random_program_gen =
  QCheck2.Gen.(
    let* op = oneofl [ `Add; `Mul ] in
    let* sched = sched_gen in
    let* two_loops = bool in
    return
      (if two_loops then
         Printf.sprintf {|
fn f(n: i64, x: []f64) f64 {
    var s: f64 = 0.0;
    //$omp parallel reduction(+: s) shared(x) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp for nowait %s
        while (i < n) : (i += 1) {
            s += x[i];
        }
        //$omp barrier
        var j: i64 = 0;
        //$omp for
        while (j < n) : (j += 1) {
            s += 1.0;
        }
    }
    return s;
}
|} sched
       else program ~op ~sched))

let prop_preprocess_idempotent =
  QCheck2.Test.make ~name:"preprocessing is idempotent (fixpoint)"
    ~count:40 random_program_gen
    (fun src ->
      let once = Preproc.Preprocess.run ~name:"fix.zr" src in
      let twice = Preproc.Preprocess.run ~name:"fix.zr" once in
      String.equal once twice)

(* the offset adjustment of the paper's Listing 5: applying byte-range
   replacements must leave every untouched region byte-identical, each
   replacement text landing at its start offset shifted by the
   accumulated length delta of the replacements before it *)
let replacements_gen =
  QCheck2.Gen.(
    let* base =
      string_size ~gen:(char_range 'a' 'z') (int_range 0 120)
    in
    let n = String.length base in
    let* cuts = list_size (int_range 0 8) (int_range 0 n) in
    let cuts = List.sort_uniq compare cuts in
    (* consecutive cut points become disjoint [start, stop) ranges *)
    let rec pair = function
      | a :: b :: rest -> (a, b) :: pair rest
      | _ -> []
    in
    let* texts =
      flatten_l
        (List.map
           (fun (start, stop) ->
             let* text =
               string_size ~gen:(char_range 'A' 'Z') (int_range 0 6)
             in
             return { Preproc.Synth.start; stop; text })
           (pair cuts))
    in
    return (base, texts))

let prop_untouched_regions =
  QCheck2.Test.make
    ~name:"replacements shift offsets but never edit untouched bytes"
    ~count:100 replacements_gen
    (fun (base, rs) ->
      let out = Preproc.Synth.apply_replacements base rs in
      let delta = ref 0 in
      let cursor = ref 0 in
      let ok = ref true in
      let check_equal a_off b_off len =
        if len > 0 && String.sub base a_off len <> String.sub out b_off len
        then ok := false
      in
      List.iter
        (fun { Preproc.Synth.start; stop; text } ->
          (* untouched gap before this replacement *)
          check_equal !cursor (!cursor + !delta) (start - !cursor);
          (* the replacement text sits at the adjusted offset *)
          if String.sub out (start + !delta) (String.length text) <> text
          then ok := false;
          delta := !delta + String.length text - (stop - start);
          cursor := stop)
        rs;
      check_equal !cursor (!cursor + !delta) (String.length base - !cursor);
      !ok
      && String.length out
         = String.length base + !delta)

let suite =
  [ QCheck_alcotest.to_alcotest prop_sum;
    QCheck_alcotest.to_alcotest prop_product;
    QCheck_alcotest.to_alcotest prop_clause_combinations;
    QCheck_alcotest.to_alcotest prop_preprocess_idempotent;
    QCheck_alcotest.to_alcotest prop_untouched_regions;
  ]
