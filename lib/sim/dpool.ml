(* Domain-pool plumbing for the parallel explorer: job sizing, a
   scatter/join helper, and a blocking gate for idle workers (spinning
   wastes whole timeslices on small boxes). Everything here is instance
   state owned by the caller; the module keeps no top-level mutable
   cells. *)

let default_cap = 8

let recommended_jobs ?(cap = default_cap) () =
  let hw = Domain.recommended_domain_count () in
  let n =
    match Sys.getenv_opt "DEPFAST_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> hw)
    | None -> hw
  in
  max 1 (min cap n)

let scatter ~jobs f =
  let jobs = max 1 jobs in
  if jobs = 1 then [| f 0 |]
  else begin
    let spawned =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> f (i + 1)))
    in
    (* run slice 0 inline so a 1-job scatter never pays a spawn, and the
       calling domain contributes instead of idling in join *)
    let first = try Ok (f 0) with e -> Error e in
    let rest =
      Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned
    in
    let all = Array.append [| first |] rest in
    Array.iter (function Error e -> raise e | Ok _ -> ()) all;
    Array.map (function Ok v -> v | Error _ -> assert false) all
  end

module Gate = struct
  (* Epoch-counted wakeup: a worker that finds no work records the epoch,
     re-scans once, then sleeps until the epoch moves. Producers bump the
     epoch after publishing work, so a wakeup between the scan and the
     sleep is never lost — the sleeper sees the moved epoch and returns
     immediately. *)
  type t = { m : Mutex.t; c : Condition.t; mutable epoch : int }

  let create () = { m = Mutex.create (); c = Condition.create (); epoch = 0 }

  let epoch g =
    Mutex.lock g.m;
    let e = g.epoch in
    Mutex.unlock g.m;
    e

  let wake_all g =
    Mutex.lock g.m;
    g.epoch <- g.epoch + 1;
    Condition.broadcast g.c;
    Mutex.unlock g.m

  let await g ~seen =
    Mutex.lock g.m;
    while g.epoch = seen do
      Condition.wait g.c g.m
    done;
    Mutex.unlock g.m
end
