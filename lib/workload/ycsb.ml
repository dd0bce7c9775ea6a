type t = { record_count : int; read_proportion : float }

(* 1 KiB values and YCSB's default zipfian constant *)
let value_size = 1024
let zipf_theta = 0.99

let update_heavy = { record_count = 500_000; read_proportion = 0.0 }

let scaled ?records t =
  { t with record_count = Option.value ~default:t.record_count records }

type op = Update of { key : string; value : string } | Read of { key : string }

let key_of_rank _ rank = "user" ^ string_of_int rank

type gen = { wl : t; rng : Sim.Rng.t; zipf : Sim.Rng.t -> int; value_pool : string array }

(* The zipfian constants cost O(record_count) to compute; a memo shares
   them across the hundreds of client generators of one run. The memo is
   caller-scoped (one per driver run) rather than a module-level table:
   a shared global here would be cross-domain mutable state — exactly
   what the depfast-domains pass flags as unsafe-shared. *)
type memo = (int, Sim.Rng.t -> int) Hashtbl.t

let make_memo () : memo = Hashtbl.create 8

let make_gen ?memo wl rng =
  let key = wl.record_count in
  let fresh () = Sim.Dist.make_zipfian ~n:wl.record_count ~theta:zipf_theta in
  let zipf =
    match memo with
    | None -> fresh ()
    | Some m -> (
      match Hashtbl.find_opt m key with
      | Some z -> z
      | None ->
        let z = fresh () in
        Hashtbl.replace m key z;
        z)
  in
  (* a small pool of pre-built values: contents are irrelevant to the
     simulation, size drives the cost model *)
  let value_pool =
    Array.init 8 (fun i -> String.make value_size (Char.chr (Char.code 'a' + i)))
  in
  { wl; rng; zipf; value_pool }

let next_op g =
  let rank = g.zipf g.rng in
  let key = key_of_rank g.wl rank in
  (* the uniform in [0, 1) is scaled here: a float returned from another
     module would be boxed *)
  if float_of_int (Sim.Rng.bits53 g.rng) *. (1.0 /. 9007199254740992.0) < g.wl.read_proportion
  then Read { key }
  else Update { key; value = g.value_pool.(Sim.Rng.int g.rng (Array.length g.value_pool)) }
