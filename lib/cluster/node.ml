type t = {
  id : int;
  name : string;
  sched : Depfast.Sched.t;
  cpu : Station.t;
  disk : Disk.t;
  memory : Memory.t;
  mutable nic_delay : Sim.Time.span;
  mutable alive : bool;
}

let crash t = t.alive <- false

(* the paper's Standard_D4s_v3 shape *)
let cpu_cores = 4

(* the process's steady-state working set; memory faults cap against it *)
let resident_bytes = 200 * 1024 * 1024

(* alive, no NIC delay, the working set charged, every resource reset *)
let reset t =
  t.nic_delay <- 0;
  t.alive <- true;
  Memory.reset t.memory;
  Memory.alloc t.memory resident_bytes;
  Station.reset t.cpu;
  Disk.reset t.disk

let create sched ~id ~name ?mem_soft_cap ?mem_hard_cap () =
  let memory = Memory.create ?soft_cap:mem_soft_cap ?hard_cap:mem_hard_cap () in
  let cpu = Station.create sched ~servers:cpu_cores ~name:(Printf.sprintf "cpu%d" id) () in
  let disk = Disk.create sched ~node_id:id () in
  Station.set_memory cpu memory;
  Station.set_memory (Disk.station disk) memory;
  let t =
    { id; name; sched; cpu; disk; memory; nic_delay = 0; alive = true }
  in
  Memory.on_oom memory (fun () -> crash t);
  reset t;
  t

let id t = t.id
let sched t = t.sched
let cpu t = t.cpu
let disk t = t.disk
let memory t = t.memory
let nic_delay t = t.nic_delay
let set_nic_delay t d = t.nic_delay <- d
let alive t = t.alive

let cpu_work t work =
  if t.alive then Station.run t.cpu ~work
  else
    (* depfast-lint: allow red-exposure — this IS the declared cost-model
       wait: every cpu-slow exposure in the tree is seeded here *)
    Depfast.Sched.wait t.sched (Depfast.Event.signal ~label:"dead" ())
let cpu_charge t work = Station.charge t.cpu ~work
let spawn t ?name f = Depfast.Sched.spawn_on t.sched ~node:t.id ?name f
