let check_interval = Sim.Time.ms 200
let baseline_samples = 10
let threshold = 4.0
let confirmations = 2

type t = {
  server : Server.t;
  mutable samples : float list;  (* baseline collection, newest first *)
  mutable baseline : float;
  mutable strikes : int;
  mutable mitigations : int;
}

let mitigations t = t.mitigations
let baseline t = t.baseline

let check t =
  let lat = Server.commit_latency_ewma t.server in
  if Server.is_leader t.server && lat >= 0.0 then begin
    if t.baseline = 0.0 then begin
      t.samples <- lat :: t.samples;
      if List.length t.samples >= baseline_samples then
        t.baseline <-
          List.fold_left ( +. ) 0.0 t.samples /. float_of_int (List.length t.samples)
    end
    else if lat > threshold *. t.baseline then begin
      t.strikes <- t.strikes + 1;
      if t.strikes >= confirmations then begin
        match Server.best_follower t.server with
        | Some target ->
          t.mitigations <- t.mitigations + 1;
          t.strikes <- 0;
          Server.transfer_leadership t.server ~target
        | None -> ()
      end
    end
    else t.strikes <- 0
  end
  else begin
    (* not leading: reset the episode (a new leadership learns afresh) *)
    t.strikes <- 0;
    t.samples <- [];
    t.baseline <- 0.0
  end

let attach server =
  let t =
    {
      server;
      samples = [];
      baseline = 0.0;
      strikes = 0;
      mitigations = 0;
    }
  in
  let node = Server.node server in
  let sched = Cluster.Node.sched node in
  Cluster.Node.spawn node ~name:"fail-slow-detector" (fun () ->
      let rec loop () =
        if Cluster.Node.alive node then begin
          Depfast.Sched.sleep sched check_interval;
          check t;
          loop ()
        end
      in
      loop ());
  t
