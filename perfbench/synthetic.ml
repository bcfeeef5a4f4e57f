(* A seeded synthetic Zr program, the frontend workload's large input.

   The program is [rounds] copies of eight race-free templates, one
   function each, covering the directive shapes the preprocessor and the
   analyser treat differently.  A round holds 20 pragmas, so 10 rounds
   give 200 constructs.  The seed shuffles the function order and draws
   the literals, always with the same number of digits: every seed gives
   the same number of tokens and bytes, so compile cost does not depend
   on the seed. *)

let constructs_per_round = 20

(* [template k c d] — function [f<k>] with float literal [c] and one-digit
   chunk size [d]. *)
let templates : (int -> string -> int -> string) array =
  [| (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    var s: f64 = 0.0;
    var i: i64 = 0;
    //$omp parallel for reduction(+: s) shared(a)
    while (i < n) : (i += 1) {
        s += a[i] * %s;
    }
    return s;
}
|}
         k c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a, b) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp for nowait
        while (i < n) : (i += 1) {
            a[i] = %s;
        }
        //$omp barrier
        var j: i64 = 0;
        //$omp for
        while (j < n) : (j += 1) {
            b[j] = a[j] * 2.0;
        }
    }
    return b[0];
}
|}
         k c);
     (fun k c d ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    var i: i64 = 0;
    //$omp parallel for schedule(dynamic, %d) shared(a, b)
    while (i < n) : (i += 1) {
        b[i] = a[i] + %s;
    }
    return b[0];
}
|}
         k d c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a)
    {
        //$omp single
        {
            //$omp task shared(a)
            { a[0] = %s; }
            //$omp task shared(a)
            { a[1] = %s; }
            //$omp taskwait
        }
    }
    return a[0] + a[1];
}
|}
         k c c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    var s: f64 = 0.0;
    var t: i64 = 0;
    //$omp parallel shared(s, t)
    {
        //$omp critical
        { s += %s; }
        //$omp atomic
        t += 1;
    }
    return s + float_of(t);
}
|}
         k c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    var s: f64 = 0.0;
    //$omp parallel shared(s, a)
    {
        //$omp single
        { s = a[0] * %s; }
    }
    return s;
}
|}
         k c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(b)
    {
        var i: i64 = 0;
        //$omp for collapse(2)
        while (i < 16) : (i += 1) {
            var j: i64 = 0;
            while (j < 16) : (j += 1) {
                b[i * 16 + j] = %s;
            }
        }
    }
    return b[0];
}
|}
         k c);
     (fun k c _ ->
       Printf.sprintf
         {|fn f%d(n: i64, a: []f64, b: []f64) f64 {
    //$omp parallel shared(a, b)
    {
        var i: i64 = 0;
        //$omp for tile(8, 8)
        while (i < 32) : (i += 1) {
            var j: i64 = 0;
            while (j < 32) : (j += 1) {
                b[i * 32 + j] = a[i * 32 + j] + %s;
            }
        }
    }
    return b[0];
}
|}
         k c) |]

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [program ~seed ~constructs] — [constructs] is rounded up to whole
   rounds of the eight templates. *)
let program ~seed ~constructs =
  let rng = Random.State.make [| seed |] in
  let rounds = (constructs + constructs_per_round - 1) / constructs_per_round in
  let shapes =
    List.concat (List.init rounds (fun _ -> List.init (Array.length templates) Fun.id))
  in
  shuffle rng shapes
  |> List.mapi (fun k shape ->
         let c =
           Printf.sprintf "%d.%d" (100 + Random.State.int rng 900)
             (1 + Random.State.int rng 9)
         in
         templates.(shape) k c (1 + Random.State.int rng 9))
  |> String.concat "\n"
