(** The register bytecode for worksharing loop bodies — tier three.

    The staged-closure compiler ({!Compile}) removed AST dispatch and
    name lookup, but each iteration of a hot loop still chases OCaml
    closures and boxes every intermediate in a {!Value.t}.  This tier
    lowers the *body* of a recognised worksharing drain one step
    further: a linear array of fixed-width register instructions over
    untagged register files — an [int array] for integer/boolean
    registers, a [float array] for floats, with arrays the body indexes
    held in per-bank base tables.  One dispatch loop ({!Bcexec.run})
    executes a claimed chunk with no allocation and no tagging.

    Codegen ({!Bcgen}) only covers the shapes the preprocessor emits
    into loop bodies (scalar arithmetic, array loads/stores, nested
    sequential control flow, the math builtins); anything else — calls,
    pointer writes, strings, globals — bails out to the closure tier at
    plan or specialisation time, observable through the
    {!Omprt.Profile} [bc] counters.  Semantics, error messages and
    error *timing* are bit-exact with the closure tier by construction:
    every divergence risk is a bailout, not a best effort.

    Guard elision: subscripts of the form [iv + c] on loop-invariant
    arrays are the SIV shape {!Analyze.Depend} reasons about; per
    claimed chunk the interval such a subscript sweeps is
    [[first + c_min, last + c_max]] ({!Omp_model.Subscript}), so one
    check per (array, chunk) proves every elided access in range and
    the body runs unguarded opcodes.  If the check fails — the access
    *would* fault or the bounds are pathological — the chunk runs the
    fully guarded twin ([gcode]) instead, preserving exact fault
    timing and messages.

    Beyond the one-operation opcodes, the emitter picks from a few
    superinstructions that fold a whole statement or loop test into
    one dispatch: [addcmp.br] (counter step and bounds test on the back
    edge, the condition code in the sixth cell), [mulc.ld.fu],
    [acc.ld.fu], [accmul.ld.ld.fu]/[accmul.ld.ld.f],
    [ldst.add.fu]/[ldst.add.iu], [recover] (collapse(n) counter
    recovery), [addi.i] (int register plus an immediate) and
    [accmul.ld.ldx.f] (the CSR gather [s += a[k] * b[ix[k]]], guarded
    in the closure tier's order: [a[k]], then [ix[k]], then
    [b[ix[k]]]).

    One opcode covers a whole loop: [loop] stands in front of a body
    that is a single accumulate and carries the back edge's counter,
    step, condition and bound; {!Bcexec} runs that accumulate as a
    native loop and continues at the loop's exit, so such a loop costs
    one dispatch per entry instead of two per iteration.  When the
    loop's whole trip is known at entry and its counter-indexed
    accesses are in range over it, the native loop is counted and
    unchecked but for the gather's data-indexed [b[ix[k]]]. *)

(* ------------------------------------------------------------------ *)
(* Encoding: each instruction is [width] cells of an [int array] —
   the opcode then up to five operands.  Register operands index the
   int or float file (by opcode), [arr] operands index the per-bank
   base tables, [k] operands index the float constant pool, [imm] and
   [off] are immediates, [t] is an absolute instruction address
   (multiple of [width]).                                              *)

let width = 6

(* --- control --- *)
let op_halt = 0             (* halt                                   *)
let op_jmp = 1              (* jmp t                                  *)
let op_brz = 2              (* brz a t        — branch if ints[a]=0   *)
let op_cmpbr_ii = 3         (* cmpbr.ii cc a b t — branch if NOT cc   *)
let op_cmpbr_ff = 4         (* cmpbr.ff cc a b t — branch if NOT cc   *)
let op_addcmp_br = 5        (* addcmp.br k imm r t cc — ints[k] += imm;
                               branch if ints[k] cc ints[r]           *)
let op_loop = 6             (* loop k imm r exit cc — run the next
                               instruction as do { it; ints[k] += imm }
                               while ints[k] cc ints[r], then jump to
                               exit                                   *)

(* --- moves and constants --- *)
let op_mov_i = 7            (* mov.i d a                              *)
let op_mov_f = 8            (* mov.f d a                              *)
let op_ldc_i = 9            (* ldc.i d imm                            *)
let op_ldc_f = 10           (* ldc.f d k                              *)

(* --- integer ALU (booleans are 0/1 in the int file) --- *)
let op_add_i = 11
let op_sub_i = 12
let op_mul_i = 13
let op_div_i = 14           (* traps: integer division by zero        *)
let op_mod_i = 15           (* traps: integer modulo by zero          *)
let op_neg_i = 16
let op_not_b = 17           (* d <- 1 - a                             *)

(* --- float ALU --- *)
let op_add_f = 18
let op_sub_f = 19
let op_mul_f = 20
let op_div_f = 21
let op_mod_f = 22           (* Float.rem                              *)
let op_neg_f = 23

(* --- conversions --- *)
let op_i2f = 24
let op_f2i = 25             (* int_of_float truncation                *)

(* --- comparisons into a 0/1 register --- *)
let op_cmp_ii = 26          (* cmp.ii cc d a b                        *)
let op_cmp_ff = 27          (* cmp.ff cc d a b                        *)

(* --- array access; [off] is a subscript immediate added to ints[i].
   Guarded forms trap exactly like the closure tier; the [u] forms
   are emitted only under an elision proof. --- *)
let op_ld_f = 28            (* ld.f d arr i off                       *)
let op_ld_fu = 29           (* ld.fu d arr i off        [unguarded]   *)
let op_ld_i = 30            (* ld.i d arr i off                       *)
let op_ld_iu = 31           (* ld.iu d arr i off        [unguarded]   *)
let op_chk_f = 32           (* chk.f arr i off — bounds check only    *)
let op_chk_i = 33           (* chk.i arr i off                        *)
let op_st_f = 34            (* st.f arr i off a — unguarded store     *)
let op_st_i = 35            (* st.i arr i off a                       *)
let op_len_f = 36           (* len.f d arr                            *)
let op_len_i = 37           (* len.i d arr                            *)

(* --- math builtins --- *)
let op_sqrt = 38
let op_log = 39
let op_exp = 40
let op_fabs = 41
let op_floor = 42

(* --- fused superinstructions --- *)
let op_mulc_ld_fu = 43      (* d <- fpool[k] * arr[i+off] [unguarded] *)
let op_acc_ld_fu = 44       (* s += arr[i+off]            [unguarded] *)
let op_accmul_ld_ld_fu = 45 (* s += a1[i] * a2[j]         [unguarded] *)
let op_accmul_ld_ld_f = 46  (* s += a1[i] * a2[j], both guarded       *)
let op_ldst_add_fu = 47     (* arr[i+off] += floats[a]    [unguarded] *)
let op_ldst_add_iu = 48     (* arr[i+off] += ints[a]      [unguarded] *)
let op_recover = 49         (* a <- b + ((iv / c) % d) * imm — the
                               collapse(n) counter-recovery statement;
                               traps like div.i then mod.i            *)
let op_addi_i = 50          (* addi.i d a imm — ints[a] + imm         *)
let op_accmul_ld_ldx_f = 51 (* s += a1[i] * a2[ix[i]], all three
                               guarded: a1[i], ix[i], a2[ix[i]]       *)

let n_ops = 52

(* Comparison condition codes for cmp, cmpbr, addcmp.br and loop. *)
let cc_lt = 0
let cc_le = 1
let cc_gt = 2
let cc_ge = 3
let cc_eq = 4
let cc_ne = 5

let cc_name = function
  | 0 -> "lt" | 1 -> "le" | 2 -> "gt" | 3 -> "ge" | 4 -> "eq" | 5 -> "ne"
  | _ -> "??"

(* ------------------------------------------------------------------ *)
(* Program representation.                                             *)

(** A captured frame slot loaded into a register at drain entry and —
    when the body writes it — stored back at drain exit. *)
type cap = {
  slot : int;                 (** frame slot in the enclosing function *)
  reg : int;                  (** register in the bank given by [ckind] *)
  ckind : [ `I | `F | `B ];   (** observed value shape at specialisation *)
  written : bool;
  cname : string;
}

(** An array the body indexes: the frame slot holding it (or a pointer
    to it when [deref]), resolved into a bank entry at drain entry. *)
type base = {
  bslot : int;
  deref : bool;
  bname : string;
}

(** One per-chunk elision proof obligation: with the chunk's counter
    range [first..last], every elided access [bank[arr][iv + c]],
    [c] in [[c_min, c_max]], is in range
    ({!Omp_model.Subscript.in_range}).  All checks passing selects
    [code]; any failure selects the guarded twin [gcode]. *)
type check = {
  kbank : [ `F | `I ];
  karr : int;                 (** index into the bank's base table *)
  c_min : int;
  c_max : int;
}

type program = {
  code : int array;           (** elided variant (equals [gcode] when
                                  nothing was elided)                 *)
  gcode : int array;          (** fully guarded variant               *)
  fpool : float array;        (** float constant pool                 *)
  nints : int;                (** int/bool register file size         *)
  nfloats : int;              (** float register file size            *)
  iv_reg : int;               (** int register of the loop counter    *)
  upper_reg : int;            (** int register of the chunk's upper   *)
  tid_reg : int;              (** thread-num register, -1 if unused   *)
  ntd_reg : int;              (** num-threads register, -1 if unused  *)
  caps : cap array;
  fbases : base array;        (** float-array bank                    *)
  ibases : base array;        (** int-array bank                      *)
  hoisted : (int * [ `I | `F ] * int) array;
                              (** (slot, bank, reg): scalar pointer
                                  dereferences hoisted to entry       *)
  checks : check array;
  ivslot : int;               (** frame slot of the counter           *)
  step : int;                 (** literal loop step                   *)
  ireg_names : string array;  (** per-register names, for listings    *)
  freg_names : string array;
  lines : int array;          (** source line per instruction of
                                  [code] (preprocessed source)        *)
  glines : int array;         (** same for [gcode]                    *)
}

(* ------------------------------------------------------------------ *)
(* Disassembler.                                                       *)

let opcode_name = function
  | 0 -> "halt" | 1 -> "jmp" | 2 -> "brz"
  | 3 -> "cmpbr.ii" | 4 -> "cmpbr.ff"
  | 5 -> "addcmp.br" | 6 -> "loop"
  | 7 -> "mov.i" | 8 -> "mov.f" | 9 -> "ldc.i" | 10 -> "ldc.f"
  | 11 -> "add.i" | 12 -> "sub.i" | 13 -> "mul.i" | 14 -> "div.i"
  | 15 -> "mod.i" | 16 -> "neg.i" | 17 -> "not.b"
  | 18 -> "add.f" | 19 -> "sub.f" | 20 -> "mul.f" | 21 -> "div.f"
  | 22 -> "mod.f" | 23 -> "neg.f"
  | 24 -> "i2f" | 25 -> "f2i"
  | 26 -> "cmp.ii" | 27 -> "cmp.ff"
  | 28 -> "ld.f" | 29 -> "ld.fu" | 30 -> "ld.i" | 31 -> "ld.iu"
  | 32 -> "chk.f" | 33 -> "chk.i" | 34 -> "st.f" | 35 -> "st.i"
  | 36 -> "len.f" | 37 -> "len.i"
  | 38 -> "sqrt" | 39 -> "log" | 40 -> "exp" | 41 -> "fabs" | 42 -> "floor"
  | 43 -> "mulc.ld.fu" | 44 -> "acc.ld.fu"
  | 45 -> "accmul.ld.ld.fu" | 46 -> "accmul.ld.ld.f"
  | 47 -> "ldst.add.fu" | 48 -> "ldst.add.iu"
  | 49 -> "recover" | 50 -> "addi.i" | 51 -> "accmul.ld.ldx.f"
  | _ -> "???"

let unguarded_op op =
  op = op_ld_fu || op = op_ld_iu || op = op_st_f || op = op_st_i
  || op = op_mulc_ld_fu || op = op_acc_ld_fu || op = op_accmul_ld_ld_fu
  || op = op_ldst_add_fu || op = op_ldst_add_iu

let reg_name names bank r =
  if r >= 0 && r < Array.length names && names.(r) <> "" then
    Printf.sprintf "%s%d{%s}" bank r names.(r)
  else Printf.sprintf "%s%d" bank r

(** Render one instruction at [pc] (a multiple of {!width}). *)
let disasm_instr (p : program) code lines pc =
  let op = code.(pc) in
  let a = code.(pc + 1) and b = code.(pc + 2) and c = code.(pc + 3)
  and d = code.(pc + 4) in
  let ir = reg_name p.ireg_names "i" in
  let fr = reg_name p.freg_names "f" in
  let farr k = p.fbases.(k).bname and iarr k = p.ibases.(k).bname in
  let off k = if k = 0 then "" else Printf.sprintf "%+d" k in
  let body =
    match op with
    | 0 -> "halt"
    | 1 -> Printf.sprintf "jmp @%d" a
    | 2 -> Printf.sprintf "brz %s, @%d" (ir a) b
    | 3 -> Printf.sprintf "cmpbr.ii !%s %s, %s, @%d" (cc_name a) (ir b)
             (ir c) d
    | 4 -> Printf.sprintf "cmpbr.ff !%s %s, %s, @%d" (cc_name a) (fr b)
             (fr c) d
    | 5 | 6 ->
        Printf.sprintf "%s %s += %d, %s %s, @%d" (opcode_name op) (ir a) b
          (cc_name code.(pc + 5)) (ir c) d
    | 7 -> Printf.sprintf "mov.i %s, %s" (ir a) (ir b)
    | 8 -> Printf.sprintf "mov.f %s, %s" (fr a) (fr b)
    | 9 -> Printf.sprintf "ldc.i %s, %d" (ir a) b
    | 10 -> Printf.sprintf "ldc.f %s, %.17g" (fr a) p.fpool.(b)
    | 11 | 12 | 13 | 14 | 15 ->
        Printf.sprintf "%s %s, %s, %s" (opcode_name op) (ir a) (ir b) (ir c)
    | 16 | 17 -> Printf.sprintf "%s %s, %s" (opcode_name op) (ir a) (ir b)
    | 18 | 19 | 20 | 21 | 22 ->
        Printf.sprintf "%s %s, %s, %s" (opcode_name op) (fr a) (fr b) (fr c)
    | 23 -> Printf.sprintf "neg.f %s, %s" (fr a) (fr b)
    | 24 -> Printf.sprintf "i2f %s, %s" (fr a) (ir b)
    | 25 -> Printf.sprintf "f2i %s, %s" (ir a) (fr b)
    | 26 -> Printf.sprintf "cmp.ii.%s %s, %s, %s" (cc_name a) (ir b) (ir c)
              (ir d)
    | 27 -> Printf.sprintf "cmp.ff.%s %s, %s, %s" (cc_name a) (ir b) (fr c)
              (fr d)
    | 28 | 29 ->
        Printf.sprintf "%s %s, %s[%s%s]" (opcode_name op) (fr a) (farr b)
          (ir c) (off d)
    | 30 | 31 ->
        Printf.sprintf "%s %s, %s[%s%s]" (opcode_name op) (ir a) (iarr b)
          (ir c) (off d)
    | 32 -> Printf.sprintf "chk.f %s[%s%s]" (farr a) (ir b) (off c)
    | 33 -> Printf.sprintf "chk.i %s[%s%s]" (iarr a) (ir b) (off c)
    | 34 -> Printf.sprintf "st.f %s[%s%s], %s" (farr a) (ir b) (off c) (fr d)
    | 35 -> Printf.sprintf "st.i %s[%s%s], %s" (iarr a) (ir b) (off c) (ir d)
    | 36 -> Printf.sprintf "len.f %s, %s" (ir a) (farr b)
    | 37 -> Printf.sprintf "len.i %s, %s" (ir a) (iarr b)
    | 38 | 39 | 40 | 41 | 42 ->
        Printf.sprintf "%s %s, %s" (opcode_name op) (fr a) (fr b)
    | 43 ->
        Printf.sprintf "mulc.ld.fu %s, %.17g * %s[%s%s]" (fr a) p.fpool.(d)
          (farr b) (ir c) (off code.(pc + 5))
    | 44 ->
        Printf.sprintf "acc.ld.fu %s += %s[%s%s]" (fr a) (farr b) (ir c)
          (off d)
    | 45 | 46 ->
        Printf.sprintf "%s %s += %s[%s] * %s[%s]" (opcode_name op) (fr a)
          (farr b) (ir c) (farr d) (ir code.(pc + 5))
    | 47 ->
        Printf.sprintf "ldst.add.fu %s[%s%s] += %s" (farr a) (ir b) (off c)
          (fr d)
    | 48 ->
        Printf.sprintf "ldst.add.iu %s[%s%s] += %s" (iarr a) (ir b) (off c)
          (ir d)
    | 49 ->
        Printf.sprintf "recover %s, %s + ((%s / %s) %% %s) * %d" (ir a)
          (ir b) (ir p.iv_reg) (ir c) (ir d) code.(pc + 5)
    | 50 -> Printf.sprintf "addi.i %s, %s, %d" (ir a) (ir b) c
    | 51 ->
        Printf.sprintf "accmul.ld.ldx.f %s += %s[%s] * %s[%s[%s]]" (fr a)
          (farr b) (ir c) (farr code.(pc + 5)) (iarr d) (ir c)
    | _ -> "???"
  in
  Printf.sprintf "  @%-4d L%-4d %s%s" pc lines.(pc / width) body
    (if unguarded_op op then "   [unguarded]" else "")

let disasm_code p code lines =
  let b = Buffer.create 512 in
  let n = Array.length code / width in
  for k = 0 to n - 1 do
    Buffer.add_string b (disasm_instr p code lines (k * width));
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(** The full listing: register plan, entry loads, per-chunk elision
    checks, then the elided and (when different) guarded code. *)
let disasm (p : program) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "registers: %d int (iv=i%d, upper=i%d), %d float\n" p.nints p.iv_reg
    p.upper_reg p.nfloats;
  Array.iter
    (fun (c : cap) ->
      add "  cap  %s%d <- slot %d '%s'%s\n"
        (match c.ckind with `F -> "f" | `I | `B -> "i")
        c.reg c.slot c.cname
        (if c.written then "  [written back]" else ""))
    p.caps;
  Array.iter
    (fun (h : (int * [ `I | `F ] * int)) ->
      let slot, bank, reg = h in
      add "  deref %s%d <- slot %d (hoisted: loop-invariant)\n"
        (match bank with `F -> "f" | `I -> "i") reg slot)
    p.hoisted;
  Array.iteri
    (fun k (bs : base) ->
      add "  farr %d <- slot %d '%s'%s\n" k bs.bslot bs.bname
        (if bs.deref then " (deref)" else ""))
    p.fbases;
  Array.iteri
    (fun k (bs : base) ->
      add "  iarr %d <- slot %d '%s'%s\n" k bs.bslot bs.bname
        (if bs.deref then " (deref)" else ""))
    p.ibases;
  if p.tid_reg >= 0 then add "  tid  i%d <- omp.get_thread_num()\n" p.tid_reg;
  if p.ntd_reg >= 0 then
    add "  ntd  i%d <- omp.get_num_threads()\n" p.ntd_reg;
  if Array.length p.checks = 0 then
    add "chunk check: none (no elision)\n"
  else begin
    add "chunk check (all pass => elided code, else guarded):\n";
    Array.iter
      (fun (c : check) ->
        let name =
          match c.kbank with
          | `F -> p.fbases.(c.karr).bname
          | `I -> p.ibases.(c.karr).bname
        in
        add "  %s[iv%+d .. iv%+d] in range over the chunk\n" name c.c_min
          c.c_max)
      p.checks
  end;
  add "code (elided):\n";
  Buffer.add_string b (disasm_code p p.code p.lines);
  if p.code != p.gcode then begin
    add "code (guarded twin):\n";
    Buffer.add_string b (disasm_code p p.gcode p.glines)
  end;
  Buffer.contents b
