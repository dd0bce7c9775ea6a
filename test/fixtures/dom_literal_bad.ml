(* the twin of dom_literal_ok: this literal's own type has the mutable
   field, so it is a top-level cell, and the unlocked write makes it
   shared state *)

type gauge = { mutable depth : int; cap : int }
type limits = { depth : int; label : string }

let shared : gauge = { depth = 0; cap = 8 }

let bump () = shared.depth <- shared.depth + 1
let limit () = shared.cap
