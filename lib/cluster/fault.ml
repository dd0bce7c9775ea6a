open Sim

type kind =
  | Cpu_slow
  | Cpu_contention
  | Disk_slow
  | Disk_contention
  | Mem_contention
  | Net_slow

let all = [ Cpu_slow; Cpu_contention; Disk_slow; Disk_contention; Mem_contention; Net_slow ]

let key = function
  | Cpu_slow -> "cpu-slow"
  | Cpu_contention -> "cpu-contention"
  | Disk_slow -> "disk-slow"
  | Disk_contention -> "disk-contention"
  | Mem_contention -> "mem-contention"
  | Net_slow -> "net-slow"

let of_key s = List.find_opt (fun k -> key k = s) all

let name = function
  | Cpu_slow -> "CPU (slow)"
  | Cpu_contention -> "CPU (contention)"
  | Disk_slow -> "Disk (slow)"
  | Disk_contention -> "Disk (contention)"
  | Mem_contention -> "Memory (contention)"
  | Net_slow -> "Network (slow)"

let paper_injection = function
  | Cpu_slow -> "Use cgroup to limit each RSM process to utilize only 5% CPU"
  | Cpu_contention ->
    "Run a contending program (assigned with 16x higher CPU share than the process)"
  | Disk_slow -> "Use cgroup to limit disk I/O bandwidth available for the RSM process"
  | Disk_contention -> "Run a contending program that writes heavily on the shared disk"
  | Mem_contention ->
    "Use cgroup to set the maximum amount of user memory for the RSM process"
  | Net_slow -> "Add a delay of 400 milliseconds to the network interface using tc"

let sim_injection = function
  | Cpu_slow -> "CPU station speed factor x20 (5% share)"
  | Cpu_contention -> "16 closed-loop contender jobs (1ms each) through the CPU station"
  | Disk_slow -> "disk bandwidth token rate x0.05"
  | Disk_contention -> "4 closed-loop contender writers (256KB each) through the disk station"
  | Mem_contention -> "memory caps at 0.5x resident set: pressure penalty on CPU/disk"
  | Net_slow -> "+400ms one-way delay on the node's NIC"

type active = {
  node : Node.t;
  undo : unit -> unit;
  mutable stopped : bool;  (* read by contender loops *)
}

let mib = 1024 * 1024

let start_cpu_contender active =
  let node = active.node in
  for _ = 1 to 16 do
    Node.spawn node ~name:"cpu-contender" (fun () ->
        let rec loop () =
          if (not active.stopped) && Node.alive node then begin
            Station.run (Node.cpu node) ~work:(Time.ms 1);
            loop ()
          end
        in
        loop ())
  done

let start_disk_contender active =
  let node = active.node in
  let sched = Node.sched node in
  for _ = 1 to 4 do
    Node.spawn node ~name:"disk-contender" (fun () ->
        let rec loop () =
          if (not active.stopped) && Node.alive node then begin
            (* depfast-lint: allow red-exposure — the contender exists to
               occupy the slow disk; stalling on it is the injection *)
            Depfast.Sched.wait sched (Disk.write (Node.disk node) ~bytes:(256 * 1024));
            loop ()
          end
        in
        loop ())
  done

let inject node kind =
  let cpu = Node.cpu node and disk = Node.disk node and memory = Node.memory node in
  match kind with
  | Cpu_slow ->
    (* undone by its own factor: a hiccup in force at inject or clear stays *)
    Station.set_speed cpu (Station.speed cpu *. 20.0);
    { node; undo = (fun () -> Station.set_speed cpu (Station.speed cpu /. 20.0)); stopped = false }
  | Cpu_contention ->
    let active = { node; undo = (fun () -> ()); stopped = false } in
    start_cpu_contender active;
    active
  | Disk_slow ->
    Disk.set_bandwidth_factor disk 0.05;
    { node; undo = (fun () -> Disk.set_bandwidth_factor disk 1.0); stopped = false }
  | Disk_contention ->
    let active = { node; undo = (fun () -> ()); stopped = false } in
    start_disk_contender active;
    active
  | Mem_contention ->
    let soft_cap = Memory.soft_cap memory and hard_cap = Memory.hard_cap memory in
    let used = Memory.used memory in
    Memory.set_caps memory ~soft_cap:(used / 2) ~hard_cap:(max (2 * used) (512 * mib));
    { node; undo = (fun () -> Memory.set_caps memory ~soft_cap ~hard_cap); stopped = false }
  | Net_slow ->
    let prev = Node.nic_delay node in
    Node.set_nic_delay node (Time.ms 400);
    { node; undo = (fun () -> Node.set_nic_delay node prev); stopped = false }

let clear active =
  active.stopped <- true;
  active.undo ()

(* transient hiccups (GC pauses, noisy neighbours); spans in us *)
let hiccup_interval = Dist.Exponential 400_000.0
let hiccup_duration = Dist.Shifted (500.0, Dist.Pareto (500.0, 1.8))
let hiccup_factor = 4.0

let hiccups node rng =
  let sched = Node.sched node and cpu = Node.cpu node in
  let rec loop () =
    if Node.alive node then begin
      Depfast.Sched.sleep sched (Dist.sample_span rng hiccup_interval);
      let duration = min (Time.ms 10) (Dist.sample_span rng hiccup_duration) in
      Station.set_speed cpu (Station.speed cpu *. hiccup_factor);
      Depfast.Sched.sleep sched duration;
      Station.set_speed cpu (Station.speed cpu /. hiccup_factor);
      loop ()
    end
  in
  Node.spawn node ~name:"hiccup" loop
