(** Affine-subscript interval reasoning, shared between the static
    analyser and the bytecode codegen.

    The analyser's dependence pass ({!Analyze.Depend}) restricts
    subscript reasoning to the [counter + c] shapes its dataflow pass
    produces — the classical SIV battery.  The register-bytecode tier
    ({!Interp.Bc}) applies the *same* reasoning to elide bounds checks:
    an access [a[iv + c]] inside a worksharing loop is in range for a
    whole claimed chunk iff the interval the subscript sweeps over the
    chunk's counter range lies inside [0, len).  Keeping the interval
    arithmetic here — below both clients in the library graph — is what
    makes "the analyser's PROVEN verdicts and the codegen's elisions
    agree" a property of one function rather than two copies. *)

(** [in_range ~first ~last ~len c_min c_max] — every element touched by
    [iv + c], [c] in [[c_min, c_max]], [iv] between [first] and [last]
    inclusive (in either order; a negative-step loop hands the bounds
    reversed), is a valid index of an array of length [len].  This is
    the guard-elision side condition: when it holds for a chunk, the
    unguarded opcodes cannot fault.  Written so that arithmetic
    overflow on pathological bounds fails safe (the guarded code path
    runs instead), and so that it allocates nothing: the bytecode tier
    also asks it once per native-loop entry. *)
let in_range ~first ~last ~len c_min c_max =
  let lo = Int.min first last + c_min and hi = Int.max first last + c_max in
  lo >= 0 && hi >= lo && hi < len

(** [affine_interval ~lb ~step ~trips c] — the element interval touched
    by [counter + c] over a whole counted loop: first iteration at
    [lb], [trips] iterations of stride [step].  [None] for an empty
    loop.  This is {!Analyze.Depend}'s whole-loop query; the bytecode
    tier asks the same question per chunk via {!in_range}. *)
let affine_interval ~lb ~step ~trips c =
  if trips <= 0 then None
  else
    let last = lb + ((trips - 1) * step) in
    Some (Int.min lb last + c, Int.max lb last + c)

(** [affine_hits ~lb ~step ~trips c k] — whether constant element [k]
    is ever touched by [counter + c]: inside the swept interval and
    reachable by the stride. *)
let affine_hits ~lb ~step ~trips c k =
  if trips <= 0 || step = 0 then None
  else
    let lo = lb + c and hi = lb + ((trips - 1) * step) + c in
    if k < Int.min lo hi || k > Int.max lo hi then Some false
    else Some ((k - lo) mod step = 0)
