(* Spans around the benchmark's calls into each layer.  Recording is off
   unless a traced run turns it on; spans are kept in memory and written
   once, at exit, in Chrome trace-event format (loadable in Perfetto).
   Only the benchmark's own thread opens spans, so no locking is needed. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (* -1 for a root span *)
  t0 : int64;
  mutable t1 : int64;
}

let enabled = ref false
let recorded : span list ref = ref []  (* most recent first *)
let open_spans : int list ref = ref []
let next_id = ref 0
let origin = Timing.now_ns ()

let span ~layer name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let s = { id; name; layer; parent; t0 = Timing.now_ns (); t1 = 0L } in
    open_spans := id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Timing.now_ns ();
        open_spans := List.tl !open_spans;
        recorded := s :: !recorded)
      f
  end

(* [with_tracing on f] — run [f] with recording switched to [on]. *)
let with_tracing on f =
  let saved = !enabled in
  enabled := on;
  Fun.protect ~finally:(fun () -> enabled := saved) f

(* Spans recorded so far, in completion order; a mark is a count. *)
let mark () = List.length !recorded

let since m =
  let fresh = mark () - m in
  List.filteri (fun i _ -> i < fresh) !recorded

let duration s = Timing.seconds_between s.t0 s.t1

(* Self time per layer over a set of spans: each span's duration minus
   the part its recorded children cover. *)
let self_by_layer spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self =
        duration s
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
      in
      Hashtbl.replace by_layer s.layer
        (self
        +. Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer)))
    spans;
  by_layer

let us t = Int64.to_float (Int64.sub t origin) /. 1e3

let to_json () =
  let event s =
    Json.Obj
      [ ("name", Json.Str s.name); ("cat", Json.Str s.layer);
        ("ph", Json.Str "X"); ("ts", Json.Num (us s.t0));
        ("dur", Json.Num (us s.t1 -. us s.t0)); ("pid", Json.Num 1.);
        ("tid", Json.Num 1.);
        ("args",
         Json.Obj [ ("id", Json.Num (float_of_int s.id));
                    ("parent", Json.Num (float_of_int s.parent)) ]) ]
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.rev_map event !recorded));
      ("displayTimeUnit", Json.Str "ms") ]

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ())))
