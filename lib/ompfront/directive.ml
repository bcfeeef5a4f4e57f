(** Directive kinds and the decoded clause view.

    The parser stores clauses in the AST's [extra_data] array (list
    clauses as index slices, scalar clauses as the packed words of
    {!Packed}); this module defines the fixed layout of that clause
    block and a decoded, preprocessor-friendly view of it.

    Clause block layout in [extra_data], all 32-bit words:
    {v
      +0  packed flags            (Packed.flags)
      +1  packed schedule         (Packed.encode_schedule)
      +2  num_threads expr node   (0 = no clause)
      +3  private slice begin     -- slices index identifier nodes
      +4  private slice end          stored contiguously in extra_data
      +5  firstprivate slice begin
      +6  firstprivate slice end
      +7  shared slice begin
      +8  shared slice end
      +9  reduction slice begin   -- entries are (op code, ident node)
      +10 reduction slice end        pairs, so end-begin is even
      +11 critical name token     (0 = unnamed)
      +12 packed transform        (Packed.encode_transform)
      +13 tile slice begin        -- entries are literal tile sizes,
      +14 tile slice end             not node indices
      +15 grainsize literal       (0 = no clause; taskloop)
      +16 copyprivate slice begin -- identifier nodes, like private
      +17 copyprivate slice end
    v} *)

type kind =
  | Parallel
  | For             (** worksharing loop, applied to a [while] *)
  | Parallel_for    (** combined construct *)
  | Barrier
  | Critical
  | Master
  | Single
  | Atomic
  | Threadprivate  (** top-level: named globals become per-thread *)
  | Task           (** deferred explicit task over the governed stmt *)
  | Taskwait       (** standalone: wait for the current task's children *)
  | Taskloop       (** loop whose chunks become deferred tasks *)
  | Sections       (** worksharing over the [section] blocks inside *)
  | Section        (** one unit of a [sections] construct *)

let kind_to_string = function
  | Parallel -> "parallel"
  | For -> "for"
  | Parallel_for -> "parallel for"
  | Barrier -> "barrier"
  | Critical -> "critical"
  | Master -> "master"
  | Single -> "single"
  | Atomic -> "atomic"
  | Threadprivate -> "threadprivate"
  | Task -> "task"
  | Taskwait -> "taskwait"
  | Taskloop -> "taskloop"
  | Sections -> "sections"
  | Section -> "section"

(** Reduction operators accepted in [reduction(op: list)] clauses. *)
type red_op = Radd | Rsub | Rmul | Rmin | Rmax

let red_op_code = function
  | Radd -> 1 | Rsub -> 2 | Rmul -> 3 | Rmin -> 4 | Rmax -> 5

let red_op_of_code = function
  | 1 -> Some Radd | 2 -> Some Rsub | 3 -> Some Rmul
  | 4 -> Some Rmin | 5 -> Some Rmax | _ -> None

let red_op_to_string = function
  | Radd -> "+" | Rsub -> "-" | Rmul -> "*" | Rmin -> "min" | Rmax -> "max"

(** Source text of a reduction's thread-local accumulator initialiser
    (OpenMP requires the operator's identity; the paper's III-B1):
    [__omp_red_identity(of_, code)], the identity in the type of [of_]
    at run time — an [i64] one for an integer reduction cell, variable
    or pointer target, else an [f64] one.  [of_] is an expression the
    thread can evaluate without reading shared memory. *)
let red_op_identity op of_ =
  String.concat ""
    [ "__omp_red_identity("; of_; ", "; string_of_int (red_op_code op); ")" ]

let clause_block_size = 18

(** Identity of a clause occurrence on a directive, used to attach
    source spans to individual clauses (diagnostics point at the
    offending clause, not the whole pragma line). *)
type clause_id =
  | Cprivate
  | Cfirstprivate
  | Cshared
  | Creduction
  | Cschedule
  | Cnum_threads
  | Cdefault
  | Cnowait
  | Ccollapse
  | Ctile
  | Cunroll
  | Cinterchange
  | Cname          (** the [(name)] of a critical directive *)
  | Cgrainsize
  | Ccopyprivate

let clause_id_to_string = function
  | Cprivate -> "private"
  | Cfirstprivate -> "firstprivate"
  | Cshared -> "shared"
  | Creduction -> "reduction"
  | Cschedule -> "schedule"
  | Cnum_threads -> "num_threads"
  | Cdefault -> "default"
  | Cnowait -> "nowait"
  | Ccollapse -> "collapse"
  | Ctile -> "tile"
  | Cunroll -> "unroll"
  | Cinterchange -> "interchange"
  | Cname -> "name"
  | Cgrainsize -> "grainsize"
  | Ccopyprivate -> "copyprivate"

(** Source extent of one clause occurrence as recorded by the parser:
    the token range from the clause keyword to its closing parenthesis
    (or the keyword itself for bare clauses like [nowait]). *)
type clause_span = {
  cid : clause_id;
  ctok_first : int;  (** token index of the clause keyword *)
  ctok_last : int;   (** token index of the last token of the clause *)
}

(** Decoded clause view.  List clauses carry AST node indices of the
    identifiers named in the clause. *)
type clauses = {
  flags : Packed.flags;
  schedule : Omp_model.Sched.t option;
  num_threads : int;        (** expr node index, 0 if absent *)
  private_ : int list;
  firstprivate : int list;
  shared : int list;
  reductions : (red_op * int) list;
  critical_name : int;      (** token index, 0 if unnamed *)
  transform : Packed.transform;
  tile : int list;          (** literal tile sizes, outermost first *)
  grainsize : int;          (** literal chunk size, 0 if absent *)
  copyprivate : int list;   (** identifier nodes to broadcast from single *)
}

let empty_clauses = {
  flags = Packed.no_flags;
  schedule = None;
  num_threads = 0;
  private_ = [];
  firstprivate = [];
  shared = [];
  reductions = [];
  critical_name = 0;
  transform = Packed.no_transform;
  tile = [];
  grainsize = 0;
  copyprivate = [];
}

(** [decode extra base] — read a clause block at index [base] of the
    [extra_data] array. *)
let decode (extra : int array) base : clauses =
  let slice b e = Array.to_list (Array.sub extra b (e - b)) in
  let flags = Packed.decode_flags extra.(base) in
  let schedule = Packed.schedule_to_sched extra.(base + 1) in
  let reductions =
    let b = extra.(base + 9) and e = extra.(base + 10) in
    let rec pairs i acc =
      if i >= e then List.rev acc
      else
        match red_op_of_code extra.(i) with
        | Some op -> pairs (i + 2) ((op, extra.(i + 1)) :: acc)
        | None -> invalid_arg "Directive.decode: bad reduction op code"
    in
    pairs b []
  in
  { flags;
    schedule;
    num_threads = extra.(base + 2);
    private_ = slice extra.(base + 3) extra.(base + 4);
    firstprivate = slice extra.(base + 5) extra.(base + 6);
    shared = slice extra.(base + 7) extra.(base + 8);
    reductions;
    critical_name = extra.(base + 11);
    transform = Packed.decode_transform extra.(base + 12);
    tile = slice extra.(base + 13) extra.(base + 14);
    grainsize = extra.(base + 15);
    copyprivate = slice extra.(base + 16) extra.(base + 17);
  }
