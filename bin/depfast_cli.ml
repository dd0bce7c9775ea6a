(* depfast-cli: drive the simulated DepFastRaft cluster from the command
   line — run workloads under injected fail-slow faults, dump slowness
   propagation graphs, and list the fault catalog.

     dune exec bin/depfast_cli.exe -- run --nodes 3 --clients 64 \
         --fault cpu-slow --seconds 5
     dune exec bin/depfast_cli.exe -- spg [--dot]
     dune exec bin/depfast_cli.exe -- faults
*)

open Cmdliner

let fault_conv =
  let parse = function
    | "cpu-slow" -> Ok (Some Cluster.Fault.Cpu_slow)
    | "cpu-contention" -> Ok (Some Cluster.Fault.Cpu_contention)
    | "disk-slow" -> Ok (Some Cluster.Fault.Disk_slow)
    | "disk-contention" -> Ok (Some Cluster.Fault.Disk_contention)
    | "mem-contention" -> Ok (Some Cluster.Fault.Mem_contention)
    | "net-slow" -> Ok (Some Cluster.Fault.Net_slow)
    | "none" -> Ok None
    | s -> Error (`Msg (Printf.sprintf "unknown fault %S" s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with None -> "none" | Some k -> Cluster.Fault.name k)
  in
  Arg.conv (parse, print)

(* ---- run ---- *)

let run_cmd =
  let nodes =
    Arg.(value & opt int 3 & info [ "nodes"; "n" ] ~doc:"Cluster size (odd).")
  in
  let clients = Arg.(value & opt int 64 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.") in
  let seconds = Arg.(value & opt int 5 & info [ "seconds"; "t" ] ~doc:"Measured duration.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Simulation seed.") in
  let fault =
    Arg.(
      value
      & opt fault_conv None
      & info [ "fault"; "f" ]
          ~doc:
            "Fail-slow fault for a minority of followers: cpu-slow, \
             cpu-contention, disk-slow, disk-contention, mem-contention, \
             net-slow, or none.")
  in
  let action nodes clients seconds seed fault =
    let params =
      {
        Harness.Params.quick with
        seed = Int64.of_int seed;
        clients;
        duration = Sim.Time.sec seconds;
      }
    in
    let slow_count = ((nodes + 1) / 2) - 1 in
    let cell =
      Harness.Runner.run_cell ~params ~system:Harness.Runner.Depfast_raft ~n:nodes
        ~slow_count ~fault ()
    in
    Format.printf "DepFastRaft, %d nodes, fault = %s on %d follower(s):@." nodes
      (Harness.Runner.fault_name fault)
      (match fault with None -> 0 | Some _ -> slow_count);
    Format.printf "  %a@." Workload.Metrics.pp cell.Harness.Runner.metrics
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a YCSB-style write workload against DepFastRaft.")
    Term.(const action $ nodes $ clients $ seconds $ seed $ fault)

(* ---- spg ---- *)

let spg_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz only.") in
  let action dot =
    let r = Harness.Fig2.run () in
    if dot then print_string r.Harness.Fig2.dot
    else begin
      Depfast.Spg.pp ~node_name:r.Harness.Fig2.names Format.std_formatter r.Harness.Fig2.spg;
      Format.printf "audit: %s@."
        (if r.Harness.Fig2.intra_group_tolerant then "fail-slow tolerant" else "VIOLATIONS")
    end
  in
  Cmd.v
    (Cmd.info "spg" ~doc:"Record a trace and print the slowness propagation graph.")
    Term.(const action $ dot)

(* ---- faults ---- *)

let faults_cmd =
  let action () = Harness.Table1.print () in
  Cmd.v (Cmd.info "faults" ~doc:"List the Table-1 fault injection catalog.")
    Term.(const action $ const ())

let () =
  let doc = "fail-slow fault-tolerance sandbox (DepFast reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "depfast-cli" ~doc) [ run_cmd; spg_cmd; faults_cmd ]))
