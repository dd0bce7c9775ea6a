(* fixture: deployment constants for arity_use.ml — only a
   whole-project pass resolves these from the consuming module *)
let replicas = [ "a"; "b"; "c" ]
let needed = 5
