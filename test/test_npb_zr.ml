(* The NPB kernels with their hot code in Zr (paper section IV), run
   through the interpreter pipeline against the official NPB
   verification values, plus checker passes over the same Zr sources.

   EP and IS run class W under all three backends.  CG class W runs on
   the staged-closure backend only (the tree walker takes minutes on
   it); backend agreement — including the bytecode tier — is covered
   by an exact-parity check on a small synthetic system instead. *)

module V = Interp.Value
module Checker = Zigomp.Checker

let verified name (r : Npb.Result.t) =
  match r.Npb.Result.verification with
  | Npb.Result.Verified -> ()
  | Npb.Result.Failed msg -> Alcotest.failf "%s: %s" name msg
  | Npb.Result.Unverifiable -> Alcotest.failf "%s: unverifiable" name

(* ---- EP / IS class W, both backends ------------------------------- *)

let test_ep_w backend () =
  verified "EP[zr] class W"
    (Harness.Zr_ep.run ~backend ~cls:Npb.Classes.W ~nthreads:4 ())

let test_is_w backend () =
  verified "IS[zr] class W"
    (Harness.Zr_is.run ~backend ~cls:Npb.Classes.W ~nthreads:4 ())

(* ---- CG ----------------------------------------------------------- *)

let test_cg_w_compiled () =
  verified "CG[zr/compiled] class W"
    (Harness.Zr_cg.run ~backend:`Compiled ~cls:Npb.Classes.W ~nthreads:4 ())

(* A small SPD system solved through conj_grad under both backends must
   agree bit for bit: same preprocessed program, same runtime.  The
   tridiagonal [-1, 4, -1] system has n distinct eigenvalues, so the 25
   CG iterations never converge exactly (an exactly-solved system makes
   the next step divide 0/0). *)
let spd_args n =
  let rows = Array.init n (fun i ->
      List.filter (fun (j, _) -> j >= 0 && j < n)
        [ (i - 1, -1.0); (i, 4.0); (i + 1, -1.0) ])
  in
  let rowstr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> rowstr.(i + 1) <- rowstr.(i) + List.length r) rows;
  let nnz = rowstr.(n) in
  let colidx = Array.make nnz 0 in
  let a = Array.make nnz 0. in
  Array.iteri
    (fun i r ->
      List.iteri
        (fun k (j, v) ->
          colidx.(rowstr.(i) + k) <- j;
          a.(rowstr.(i) + k) <- v)
        r)
    rows;
  let x = Array.make n 1.0 in
  let alloc () = Array.make n 0. in
  [ V.VInt n; V.VIntArr rowstr; V.VIntArr colidx; V.VFloatArr a;
    V.VFloatArr x; V.VFloatArr (alloc ()); V.VFloatArr (alloc ());
    V.VFloatArr (alloc ()); V.VFloatArr (alloc ()) ]

let rnorm_of name = function
  | V.VFloat f -> f
  | v -> Alcotest.failf "%s: expected float, got %s" name (V.to_string v)

let test_cg_backend_parity () =
  Omprt.Api.set_num_threads 4;
  let n = 64 in
  let compiled =
    rnorm_of "compiled" (Harness.Zr_cg.load_conj_grad `Compiled (spd_args n))
  in
  let ast =
    rnorm_of "ast" (Harness.Zr_cg.load_conj_grad `Ast (spd_args n))
  in
  let bytecode =
    rnorm_of "bytecode" (Harness.Zr_cg.load_conj_grad `Bytecode (spd_args n))
  in
  Alcotest.(check (float 0.)) "bit-identical rnorm across backends"
    compiled ast;
  Alcotest.(check (float 0.)) "bit-identical rnorm under the bytecode tier"
    compiled bytecode;
  Alcotest.(check bool)
    (Printf.sprintf "near-converged, finite rnorm (%g)" compiled)
    true
    (Float.is_finite compiled && compiled < 1e-6)

(* ---- checker passes over the NPB Zr sources ----------------------- *)

let assert_clean what (r : Checker.Report.t) =
  Alcotest.(check (list string)) (what ^ ": no checker findings") []
    (List.map
       (fun (f : Checker.Report.finding) -> f.Checker.Report.line)
       r.Checker.Report.findings)

(* Small execution budgets: the cooperative vector-clocked interpreter
   traces every access, so the checked problems are small — the
   happens-before structure is identical at any size.  The DPOR corpus
   checks the kernels with a larger budget (see Corpus.kernel_sources). *)
let cfg ~max_execs =
  { Checker.nthreads = 4; lint = true;
    exploration = Checker.Dpor { max_execs; preempt_bound = 2 } }

let test_check_cg () =
  let entry prog =
    ignore (Interp.call prog "conj_grad" (spd_args 16))
  in
  assert_clean "conj_grad.zr"
    (Checker.check_run ~name:"conj_grad.zr"
       ~config:(cfg ~max_execs:2)
       ~source:Harness.Zr_cg.conj_grad_src ~entry ())

let test_check_ep () =
  Harness.Zr_ep.with_hosts (fun () ->
      let entry prog =
        let sums = Array.make 2 0. in
        let q = Array.make Npb.Ep.nq 0. in
        ignore
          (Interp.call prog "ep_main" (Harness.Zr_ep.args ~nn:4 sums q))
      in
      assert_clean "ep_main.zr"
        (Checker.check_run ~name:"ep_main.zr"
           ~config:(cfg ~max_execs:5)
           ~source:Harness.Zr_ep.src ~entry ()))

let test_check_is () =
  (* a shrunken problem: 1024 keys, 16 buckets, 2 iterations *)
  let p =
    { Npb.Classes.Is.cls = Npb.Classes.S; total_keys_log2 = 10;
      max_key_log2 = 7; num_buckets_log2 = 4; max_iterations = 2 }
  in
  Harness.Zr_is.with_hosts (fun () ->
      let entry prog =
        let d = Harness.Zr_is.make_data p ~nthreads:4 in
        ignore
          (Interp.call prog "is_rank"
             (Harness.Zr_is.rank_args d ~itlo:1
                ~ithi:p.Npb.Classes.Is.max_iterations))
      in
      assert_clean "is_rank.zr"
        (Checker.check_run ~name:"is_rank.zr"
           ~config:(cfg ~max_execs:5)
           ~source:Harness.Zr_is.src ~entry ()))

let suite =
  [ Alcotest.test_case "EP class W (compiled) verifies" `Slow
      (test_ep_w `Compiled);
    Alcotest.test_case "EP class W (ast) verifies" `Slow (test_ep_w `Ast);
    Alcotest.test_case "EP class W (bytecode) verifies" `Slow
      (test_ep_w `Bytecode);
    Alcotest.test_case "IS class W (compiled) verifies" `Quick
      (test_is_w `Compiled);
    Alcotest.test_case "IS class W (ast) verifies" `Quick (test_is_w `Ast);
    Alcotest.test_case "IS class W (bytecode) verifies" `Quick
      (test_is_w `Bytecode);
    Alcotest.test_case "CG class W (compiled) verifies" `Slow
      test_cg_w_compiled;
    Alcotest.test_case "CG backends agree bit-for-bit" `Quick
      test_cg_backend_parity;
    Alcotest.test_case "checker: conj_grad.zr is clean" `Quick
      test_check_cg;
    Alcotest.test_case "checker: ep_main.zr is clean" `Quick test_check_ep;
    Alcotest.test_case "checker: is_rank.zr is clean" `Quick test_check_is;
  ]
