(* a top-level literal of a record type with no mutable field is no
   cell, though one of its labels shares its name with a mutable field
   of another type and its values mention that field *)

type gauge = { mutable depth : int; cap : int }
type limits = { depth : int; label : string }

let defaults : limits = { depth = 8; label = "depth" }

let bump (g : gauge) = g.depth <- g.depth + 1
let limit () = defaults.depth
