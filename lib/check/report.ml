(** Checker findings and the machine-readable report.

    Every finding renders to exactly one stable line; the report is the
    deduplicated, sorted list of those lines under a one-line summary.
    Golden tests and the CI determinism check compare reports textually,
    so rendering must not depend on which execution surfaced a finding
    first.

    The type is shared by the dynamic checker ([zrc check]) and the
    static analyser ([zrc analyze]).  Findings carry a stable
    content-derived [id] (the same race proved statically and observed
    dynamically gets the same id, which is what lets {!merge} suppress
    the double report), an optional source [span] rendered as a caret
    under the offending clause or expression, and an optional
    {!verdict} for static findings. *)

type kind = Race | Dep | Scope | Lint | Divergence | Error

(** Static confidence: [Proven] findings are certain (and must be
    dynamically observable); [May] findings are conservative
    over-approximations. *)
type verdict = Proven | May

type finding = {
  kind : kind;
  id : string;    (** stable content-derived identity, e.g. ["race|s"] *)
  line : string;  (** rendered, single line, stable across runs *)
  span : (int * int) option;
      (** byte range in the analysed source, for caret rendering *)
  verdict : verdict option;  (** set by the static analyser only *)
}

(** How the dynamic interleaving space was explored.
    [Complete] means DPOR drained the reduced interleaving space —
    clean is a proof (relative to the happens-before model, DESIGN.md).
    [Bounded] means the execution budget was hit after the
    lowest-preemption prefixes were preferred; [within_bound_left]
    records whether schedules within the preemption bound were still
    pending when the budget ran out. *)
type exploration =
  | Complete of { executions : int }
  | Bounded of {
      executions : int;
      preempt_bound : int;
      within_bound_left : bool;
    }

type t = {
  name : string;       (** program name, as reported in the summary *)
  backend : string;    (** ["check"] (dynamic) or ["analyze"] (static) *)
  findings : finding list;  (** deduplicated, sorted by rendered line *)
  source : Zr.Source.t option;
      (** the analysed source, when spans should render with carets *)
  exploration : exploration option;
      (** dynamic checker only; [None] for the static analyser *)
}

let verdict_to_string = function Proven -> "PROVEN" | May -> "MAY"

let kind_to_string = function
  | Race -> "race"
  | Dep -> "dep"
  | Scope -> "scope"
  | Lint -> "lint"
  | Divergence -> "divergence"
  | Error -> "error"

(* Shared captures reach outlined functions through a synthesised
   [<name>__ptr] parameter; ids must use the user's name so the static
   and dynamic spellings of the same race coincide. *)
let clean_var v =
  if String.length v > 5 && Filename.check_suffix v "__ptr" then
    String.sub v 0 (String.length v - 5)
  else v

(** Races (and statically proven loop-carried dependences, which are
    races) on the same variable share one id: the id names the
    equivalence class the cross-backend dedup works on. *)
let race_id var = "race|" ^ clean_var var

let race ?span ?verdict ~var line =
  { kind = Race; id = race_id var; line; span; verdict }

let dep ?span ?verdict ~var line =
  { kind = Dep; id = race_id var; line; span; verdict }

let scope ?span ?verdict ~id line = { kind = Scope; id; line; span; verdict }

let lint ?span ?id ~rule ~detail () =
  let line = Printf.sprintf "lint %s :: %s" rule detail in
  let id = match id with Some i -> i | None -> "lint|" ^ rule ^ "|" ^ detail in
  { kind = Lint; id; line; span; verdict = None }

let divergence ~detail =
  { kind = Divergence; id = "divergence|" ^ detail;
    line = "divergence :: " ^ detail; span = None; verdict = None }

let error ~detail =
  { kind = Error; id = "error|" ^ detail; line = "error :: " ^ detail;
    span = None; verdict = None }

let exploration_verdict = function
  | Complete _ -> "COMPLETE"
  | Bounded _ -> "BOUNDED"

(** Dynamic executions explored; 0 when no dynamic pass ran. *)
let executions t =
  match t.exploration with
  | Some (Complete { executions } | Bounded { executions; _ }) -> executions
  | None -> 0

(** Assemble a report: drop exact-duplicate lines (the same race found
    in several executions), then sort for output stability. *)
let make ?(backend = "check") ?source ?exploration ~name findings =
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun f ->
        if Hashtbl.mem seen f.line then false
        else begin
          Hashtbl.add seen f.line ();
          true
        end)
      findings
  in
  { name; backend; findings = List.sort compare uniq; source; exploration }

(** Cross-backend dedup: keep every static finding, and only the
    dynamic findings whose id the static pass did not already prove.
    The result renders under the dynamic report's name/exploration but
    keeps the static report's source for caret rendering. *)
let merge ~(static : t) ~(dynamic : t) : t =
  let proved = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace proved f.id ()) static.findings;
  let kept =
    List.filter (fun f -> not (Hashtbl.mem proved f.id)) dynamic.findings
  in
  { name = dynamic.name;
    backend = dynamic.backend;
    findings = List.sort compare (static.findings @ kept);
    source = static.source;
    exploration = dynamic.exploration }

let races t = List.filter (fun f -> f.kind = Race || f.kind = Dep) t.findings
let lints t = List.filter (fun f -> f.kind = Lint) t.findings
let errors t = List.filter (fun f -> f.kind = Error) t.findings

let clean t = t.findings = []

(** Exit code discipline shared by [zrc analyze] and [zrc check]:
    0 clean with a complete exploration (or none), 2 findings, and 1
    for a clean report whose DPOR exploration was budget-bounded — a
    truncated search must not read as a proof, so CI can tell 0
    ("proven clean") from 1 ("no finding yet, search incomplete"). *)
let exit_code t =
  if not (clean t) then 2
  else
    match t.exploration with
    | Some (Bounded _) -> 1
    | Some (Complete _) | None -> 0

let summary t =
  Printf.sprintf "%s: %s: %d finding(s)%s" t.backend t.name
    (List.length t.findings)
    (match t.exploration with
     | Some (Complete { executions }) ->
         Printf.sprintf ", %d execution(s) explored [COMPLETE]" executions
     | Some (Bounded { executions; preempt_bound; within_bound_left }) ->
         Printf.sprintf
           ", %d execution(s) explored [BOUNDED preempt<=%d%s]" executions
           preempt_bound
           (if within_bound_left then ", truncated" else "")
     | None -> if t.backend = "check" then ", 0 schedule(s) explored" else "")

(* Caret rendering: the source line under the finding with ^^^ under
   the span.  Only findings that carry a span (static ones) get it. *)
let render_caret src (b, e) =
  let text = src.Zr.Source.text in
  let n = String.length text in
  let b = max 0 (min b (max 0 (n - 1))) in
  let ls = ref b in
  while !ls > 0 && text.[!ls - 1] <> '\n' do decr ls done;
  let le = ref b in
  while !le < n && text.[!le] <> '\n' do incr le done;
  let line_text = String.sub text !ls (!le - !ls) in
  let lineno, col = Zr.Source.position src b in
  let width = max 1 (min e !le - b) in
  let gutter = Printf.sprintf "  %4d | " lineno in
  let pad = String.make (String.length gutter - 2) ' ' ^ "| " in
  Printf.sprintf "%s%s\n%s%s%s" gutter line_text pad
    (String.make (col - 1) ' ')
    (String.make width '^')

let render_finding t f =
  match f.span, t.source with
  | Some span, Some src -> f.line ^ "\n" ^ render_caret src span
  | _ -> f.line

let to_string t =
  String.concat "\n" (summary t :: List.map (render_finding t) t.findings)

(* ------------------------------ JSON ------------------------------ *)

(* The project deliberately has no JSON dependency; the schema is flat
   enough to print by hand.  Shared by `zrc analyze --json` and
   `zrc check --json`. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json t f =
  let pos =
    match f.span, t.source with
    | Some (b, _), Some src ->
        let line, col = Zr.Source.position src b in
        Printf.sprintf ", \"position\": {\"line\": %d, \"col\": %d}" line col
    | _ -> ""
  in
  let verdict =
    match f.verdict with
    | Some v -> Printf.sprintf ", \"verdict\": \"%s\"" (verdict_to_string v)
    | None -> ""
  in
  Printf.sprintf "{\"kind\": \"%s\", \"id\": \"%s\"%s%s, \"line\": \"%s\"}"
    (kind_to_string f.kind) (json_escape f.id) verdict pos
    (json_escape f.line)

(** [to_json ?may t] — the shared report schema.  [may] carries the
    static analyser's advisory (non-verdict-affecting) findings; the
    dynamic checker has none. *)
let exploration_to_json = function
  | Complete { executions } ->
      Printf.sprintf "{\"verdict\": \"COMPLETE\", \"executions\": %d}"
        executions
  | Bounded { executions; preempt_bound; within_bound_left } ->
      Printf.sprintf
        "{\"verdict\": \"BOUNDED\", \"executions\": %d, \
         \"preempt_bound\": %d, \"within_bound_left\": %b}"
        executions preempt_bound within_bound_left

let to_json ?(may = []) t =
  let arr fs =
    "[" ^ String.concat ", " (List.map (finding_to_json t) fs) ^ "]"
  in
  String.concat ""
    [ "{\"schema\": \"zigomp-report/1\"";
      Printf.sprintf ", \"backend\": \"%s\"" (json_escape t.backend);
      Printf.sprintf ", \"name\": \"%s\"" (json_escape t.name);
      Printf.sprintf ", \"clean\": %b" (clean t);
      Printf.sprintf ", \"exit\": %d" (exit_code t);
      Printf.sprintf ", \"schedules\": %d" (executions t);
      (match t.exploration with
       | None -> ""
       | Some e ->
           Printf.sprintf ", \"exploration\": %s" (exploration_to_json e));
      ", \"findings\": "; arr t.findings;
      ", \"may\": "; arr may;
      "}" ]
