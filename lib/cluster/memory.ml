let gib = 1024 * 1024 * 1024

type load = { mutable penalty : float }  (* all-float, so unboxed *)

type t = {
  soft0 : int;  (* the caps [create] was given, which [reset] restores *)
  hard0 : int;
  mutable used : int;
  mutable soft : int;
  mutable hard : int;
  load : load;  (* the penalty of [used] against [soft], kept current *)
  mutable oom_handlers : (unit -> unit) list;
  mutable oom_fired : bool;
}

let[@inline] pressure t = float_of_int t.used /. float_of_int t.soft

(* called on every change to [used] or [soft] *)
let update t =
  let p = pressure t in
  t.load.penalty <- (if p <= 1.0 then 1.0 else 1.0 +. (4.0 *. (p -. 1.0)))

(* nothing used, the created caps; the OOM handlers are wiring and stay *)
let reset t =
  t.used <- 0;
  t.soft <- t.soft0;
  t.hard <- t.hard0;
  t.oom_fired <- false;
  update t

let create ?(soft_cap = 16 * gib) ?(hard_cap = 16 * gib) () =
  let t =
    { soft0 = soft_cap; hard0 = hard_cap; used = 0; soft = soft_cap; hard = hard_cap;
      load = { penalty = 1.0 }; oom_handlers = []; oom_fired = false }
  in
  reset t;
  t

let used t = t.used
let soft_cap t = t.soft
let hard_cap t = t.hard
let load t = t.load

let set_caps t ~soft_cap ~hard_cap =
  t.soft <- soft_cap;
  t.hard <- hard_cap;
  update t

let fire_oom t =
  if not t.oom_fired then begin
    t.oom_fired <- true;
    List.iter (fun f -> f ()) (List.rev t.oom_handlers)
  end

let alloc t bytes =
  t.used <- t.used + bytes;
  update t;
  if t.used > t.hard then fire_oom t

let free t bytes =
  t.used <- max 0 (t.used - bytes);
  update t

let penalty t = t.load.penalty

let on_oom t f = t.oom_handlers <- f :: t.oom_handlers
