(** The vector-clock race detector proper, and the checker's only
    per-location state.

    Per traced location the detector keeps the last write and the most
    recent read per thread since it (a read "vector", FastTrack-style).
    An access races with a recorded prior access when the prior belongs
    to a different thread and the current thread's vector clock does
    not cover the prior's epoch — i.e. no fork/join/barrier/lock edge
    ordered them.

    Every event is stamped with the DPOR decision index that resumed
    its thread, so each racing prior is also handed to the engine as a
    backtrack candidate ({!Dpor.backtrack}): a racing pair is exactly
    a dependent, reorderable one, and the engine keeps no
    data-location table of its own.

    Locations are identified physically: variable cells by the [ref]
    they live in, array elements by the array object and index.  That is
    exactly the identity the interpreter's tracer hands us, so aliasing
    through pointers and captures is resolved for free.  A traced array
    gets a dense shadow, one slot per element, allocated when the
    execution first traces that array. *)

module Rt = Interp.Rt

type evt = {
  tid : int;
  clk : int;
  step : int;              (* DPOR decision index *)
  off : int;               (* byte offset in the preprocessed source *)
  op : string option;      (* compound-assignment operator, writes only *)
  rw : [ `R | `W ];
}

(* A location's shadow, one slot per element (a single one for a cell):
   the last write, [none] before the first, and the latest read per
   thread since that write. *)
type shadow = { w : evt array; reads : evt list array }

type t = {
  src : Zr.Source.t;  (* preprocessed source, for positions/snippets *)
  dpor : Dpor.exec;   (* the controlling DPOR execution *)
  mutable cells : (Interp.Value.t ref * shadow) list;
  mutable fa : (float array * shadow) list;
  mutable ia : (int array * shadow) list;
  dedup : (string, unit) Hashtbl.t;
  mutable findings : Report.finding list;
}

let create ~src ~dpor =
  { src; dpor; cells = []; fa = []; ia = [];
    dedup = Hashtbl.create 16; findings = [] }

(* Clock 0 of thread 0 is covered by every vector clock, so [none]
   never races. *)
let none = { tid = 0; clk = 0; step = -1; off = 0; op = None; rw = `W }

let fresh n = { w = Array.make n none; reads = Array.make n [] }

(* The shadow of the accessed location, found by physical identity; a
   location met for the first time gets a fresh one. *)
let shadow_of t (acc : Rt.access) =
  match acc with
  | Rt.Acell r -> (
      match List.assq r t.cells with
      | s -> s
      | exception Not_found ->
          let s = fresh 1 in
          t.cells <- (r, s) :: t.cells;
          s)
  | Rt.Afelem (a, _) -> (
      match List.assq a t.fa with
      | s -> s
      | exception Not_found ->
          let s = fresh (Array.length a) in
          t.fa <- (a, s) :: t.fa;
          s)
  | Rt.Aielem (a, _) -> (
      match List.assq a t.ia with
      | s -> s
      | exception Not_found ->
          let s = fresh (Array.length a) in
          t.ia <- (a, s) :: t.ia;
          s)

(* ---------------------------- rendering --------------------------- *)

let pos t off =
  let line, col = Zr.Source.position t.src off in
  Printf.sprintf "%d:%d" line col

let rw_s = function `R -> "read" | `W -> "write"

let render_evt t e =
  Printf.sprintf "%s@%s%s" (rw_s e.rw) (pos t e.off)
    (match e.op with Some o -> "[" ^ o ^ "]" | None -> "")

(* The source line of an offset, whitespace-trimmed. *)
let snippet t off =
  let text = t.src.Zr.Source.text in
  let n = String.length text in
  let b = ref off and e = ref off in
  while !b > 0 && text.[!b - 1] <> '\n' do decr b done;
  while !e < n && text.[!e] <> '\n' do incr e done;
  String.trim (String.sub text !b (!e - !b))

let suggestion ~var a b =
  let var = if var = "" then "<expr>" else var in
  match a.op, b.op with
  | (Some o, _ | _, Some o) when a.off = b.off && a.rw = `W && b.rw = `W ->
      Printf.sprintf "reduction(%s: %s)" o var
  | _ ->
      Printf.sprintf
        "atomic/critical around the conflicting accesses, or private(%s)" var

let report t ~var ~(prior : evt) ~(cur : evt) =
  (* Normalise the pair so the rendered line does not depend on which
     schedule surfaced the race first. *)
  let a, b =
    if (prior.off, prior.rw) <= (cur.off, cur.rw) then (prior, cur)
    else (cur, prior)
  in
  let var = Report.clean_var var in
  let key =
    Printf.sprintf "%s|%s%d|%s%d" var (rw_s a.rw) a.off (rw_s b.rw) b.off
  in
  if not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.add t.dedup key ();
    let line =
      Printf.sprintf "race %s: %s vs %s :: `%s` :: suggest %s"
        (if var = "" then "<expr>" else var)
        (render_evt t a) (render_evt t b) (snippet t b.off)
        (suggestion ~var a b)
    in
    t.findings <- Report.race ~var line :: t.findings
  end

(* --------------------------- the check ---------------------------- *)

(* [prior] races with [cur], an access by [gid] at clock [vc], unless
   they share a thread or a happens-before edge orders them: report the
   pair and reorder it at [prior]'s decision. *)
let check t ~hint ~gid ~vc ~cur (prior : evt) =
  if prior.tid <> gid && not (Vc.covers vc ~tid:prior.tid ~clk:prior.clk)
  then begin
    report t ~var:hint ~prior ~cur;
    Dpor.backtrack t.dpor ~step:prior.step ~gid
  end

let rec check_all t ~hint ~gid ~vc ~cur = function
  | [] -> ()
  | r :: rest ->
      check t ~hint ~gid ~vc ~cur r;
      check_all t ~hint ~gid ~vc ~cur rest

(* [reads] without [gid]'s read (there is at most one). *)
let rec drop_tid gid = function
  | [] -> []
  | r :: rest -> if r.tid = gid then rest else r :: drop_tid gid rest

let access t ~rw (acc : Rt.access) ~off ~hint ~gid ~(vc : Vc.t)
    ~(op : string option) =
  let s = shadow_of t acc in
  let i =
    match acc with Rt.Acell _ -> 0 | Rt.Afelem (_, i) | Rt.Aielem (_, i) -> i
  in
  let step = Dpor.data_step t.dpor ~gid ~vc ~rw in
  let cur =
    { tid = gid; clk = Vc.get vc gid; step; off;
      op = (if rw = `W then op else None); rw }
  in
  check t ~hint ~gid ~vc ~cur s.w.(i);
  match rw with
  | `R -> s.reads.(i) <- cur :: drop_tid gid s.reads.(i)
  | `W ->
      check_all t ~hint ~gid ~vc ~cur s.reads.(i);
      s.w.(i) <- cur;
      s.reads.(i) <- []

let findings t = t.findings
