(** Affine-subscript interval reasoning shared by the static analyser's
    SIV dependence tests ({!Analyze.Depend}) and the bytecode tier's
    guard elision ({!Interp.Bc}).  See subscript.ml for the soundness
    argument tying the two together. *)

(** Every element touched by [iv + c], [c] in [[c_min, c_max]], [iv]
    between [first] and [last] inclusive (either order), is a valid
    index of an array of length [len] — the guard-elision side
    condition, overflow-safe and allocation-free. *)
val in_range : first:int -> last:int -> len:int -> int -> int -> bool

(** Whole-loop interval for [counter + c]: first iteration [lb],
    [trips] iterations of stride [step]; [None] when empty. *)
val affine_interval : lb:int -> step:int -> trips:int -> int -> (int * int) option

(** Whether constant element [k] is ever touched by [counter + c]. *)
val affine_hits : lb:int -> step:int -> trips:int -> int -> int -> bool option
