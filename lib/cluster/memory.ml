let gib = 1024 * 1024 * 1024

type t = {
  mutable used : int;
  mutable soft : int;
  mutable hard : int;
  mutable oom_handlers : (unit -> unit) list;
  mutable oom_fired : bool;
}

let create ?(soft_cap = 16 * gib) ?(hard_cap = 16 * gib) () =
  { used = 0; soft = soft_cap; hard = hard_cap; oom_handlers = []; oom_fired = false }

let used t = t.used
let soft_cap t = t.soft

let set_caps t ~soft_cap ~hard_cap =
  t.soft <- soft_cap;
  t.hard <- hard_cap

let fire_oom t =
  if not t.oom_fired then begin
    t.oom_fired <- true;
    List.iter (fun f -> f ()) (List.rev t.oom_handlers)
  end

let alloc t bytes =
  t.used <- t.used + bytes;
  if t.used > t.hard then fire_oom t

let free t bytes = t.used <- max 0 (t.used - bytes)
let pressure t = float_of_int t.used /. float_of_int t.soft

let penalty t =
  let p = pressure t in
  if p <= 1.0 then 1.0 else 1.0 +. (4.0 *. (p -. 1.0))

let on_oom t f = t.oom_handlers <- f :: t.oom_handlers
