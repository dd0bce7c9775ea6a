(* The depfast-spg pass: classify every wait site's static slowness
   exposure — which fail-slow resource kinds can delay it, in which
   role — and its color in the {!Spg.color} sense (quorum-k green vs
   fate-sharing red). Taint comes from {!Propagation}; wait shapes and
   timeout escapes come from {!Growth.scan}, the scan {!Bounds} judges
   too, so the two passes agree on what "covered" means. Every wait yields a certificate; every
   (wait x exposure) pair yields a propagation certificate carrying the
   least-(fn, line) witness path. *)

module SL = Source_lint

type color = Red | Green

let color_name = function Red -> "red" | Green -> "green"

type exposure = {
  x_fault : Propagation.fault;
  x_role : string;  (** ["self" | "peer"] *)
  x_taint : Propagation.taint;
}

type wait = {
  w_file : string;
  w_line : int;
  w_fn : string;  (** enclosing function, qualified *)
  w_site : string;  (** the waited event: binding name or head *)
  w_color : color;
  w_covered : bool;  (** wait_timeout, or_-escape, or timer child *)
  w_rpc : bool;  (** the event is an rpc completion: flagged as an error *)
  w_exposures : exposure list;
}

(* Does an event come from an rpc completion — built by one directly,
   or returned by a project function (its last line, or component [part]
   of the literal tuple it returns), followed through at most [hops]
   such functions? A red wait on one is the paper's §3.1 hazard
   outright. *)
let rec rpc_origin p ~mdl ~hops h part =
  (part = None && List.mem (SL.last2 h) Propagation.rpc_completions)
  || hops > 0
     &&
     match Growth.resolve p ~mdl h with
     | None -> false
     | Some q -> (
       let mdl = String.sub q 0 (String.rindex q '.') in
       match (Growth.returns p q, part) with
       | [ Some h' ], _ -> rpc_origin p ~mdl ~hops:(hops - 1) h' part
       | rets, Some k -> (
         match List.nth_opt rets k with
         | Some (Some h') -> rpc_origin p ~mdl ~hops:(hops - 1) h' None
         | _ -> false)
       | _ -> false)

let role_of fault (t : Propagation.taint) ~file =
  match fault with
  | Propagation.Net_slow -> "peer"
  | _ -> if t.Propagation.t_source.s_file = file then "self" else "peer"

let path_string (t : Propagation.taint) =
  String.concat " -> " (List.rev t.Propagation.t_path)

let exposure_string x =
  Printf.sprintf "%s x %s" (Propagation.fault_name x.x_fault) x.x_role

(* ---- per-function wait colouring ----------------------------------- *)

(* Colours the waits of {!Growth.scan}: quorum and or_ bindings are
   green, everything else red. A call handing its argument to a callee
   that waits on it ([?via]) is coloured by what the caller passes. *)
let scan_fn p taint (fc : Growth.file_ctx) (f : Growth.fn) ws ~wait =
  let exposures =
    List.map
      (fun (k, t) -> { x_fault = k; x_role = role_of k t ~file:fc.Growth.fc_path; x_taint = t })
      (Propagation.taints taint f.Growth.g_qname)
  in
  let classify_head h =
    match SL.last2 h with
    | "Event.quorum" | "Event.or_" -> Green
    | _ -> Red
  in
  List.iter
    (fun (w : Growth.wait) ->
      let line = w.Growth.w_line in
      let via = not (List.mem w.Growth.w_head Growth.wait_heads) in
      let emit site color covered =
        wait
          {
            w_file = fc.Growth.fc_path;
            w_line = line;
            w_fn = f.Growth.g_qname;
            w_site = (if via then Printf.sprintf "%s (waited on in %s)" site w.Growth.w_head else site);
            w_color = color;
            w_covered = covered;
            w_rpc =
              (match w.Growth.w_from with
              | Some h -> rpc_origin p ~mdl:fc.Growth.fc_mdl ~hops:3 h w.Growth.w_part
              | None -> false);
            w_exposures = exposures;
          }
      in
      let covered =
        w.Growth.w_head = "Sched.wait_timeout" || w.Growth.w_head = "Condvar.wait_timeout"
      in
      match (w.Growth.w_head, w.Growth.w_event, w.Growth.w_binding) with
      (* a condvar handoff fate-shares with its (single) signaller *)
      | ("Condvar.wait" | "Condvar.wait_timeout"), ev, _ ->
        emit (match ev with SL.AName c -> "condvar " ^ c | _ -> "condvar") Red covered
      | _, SL.AName q, Some (Growth.Quorum _) ->
        emit ("quorum " ^ q) Green (covered || w.Growth.w_timered)
      | _, SL.AName q, Some Growth.Or_ -> emit ("or_ " ^ q) Green true
      | _, SL.AName q, Some Growth.And_ -> emit ("and_ " ^ q) Red covered
      | _, SL.AName q, None -> emit q Red covered
      | _, SL.AParen (Some h), _ -> emit (SL.last2 h) (classify_head h) covered
      | _, (SL.AParen None | SL.AOther), _ -> emit "<expr>" Red covered)
    ws

(* ---- quorum arity ---------------------------------------------------- *)

(* quorum-arity-mismatch over the [Event.quorum] bindings of
   {!Growth.scan}, at the binding: a constant [Count] above the children
   that flow in, when none can be added elsewhere (it can never fire, an
   error), or a [Count] bound to a call that is tainted by a slow
   resource (the mitigation's k is itself slow-controlled, a warning). *)
let check_arity p taint (fc : Growth.file_ctx) (q : Growth.quorum) ~emit =
  let report severity message =
    emit
      (Finding.v ~rule:Finding.quorum_arity_mismatch ~severity
         ~loc:(Finding.File { file = fc.Growth.fc_path; line = q.Growth.q_line })
         message)
  in
  match (q.Growth.q_count, q.Growth.q_adds) with
  | Some (Growth.Const k), Some adds
    when (not q.Growth.q_escapes) && adds > 0 && k > adds ->
    report Finding.Error
      (Printf.sprintf
         "quorum requires Count %d but only %d child event(s) statically flow into it: it \
          can never fire (constants resolved across modules)"
         k adds)
  | Some (Growth.Local (v, h)), _ -> (
    let callee = Growth.resolve p ~mdl:fc.Growth.fc_mdl h in
    match Option.map (fun c -> (c, Propagation.taints taint c)) callee with
    | Some (callee, (fault, t) :: _) ->
      report Finding.Warning
        (Printf.sprintf
           "quorum %S claims green but its Count arity %S comes from %s, which is \
            %s-tainted (seed %s at %s:%d): the mitigation's k is itself controlled by the \
            slow resource"
           q.Growth.q_name v callee (Propagation.fault_name fault)
           t.Propagation.t_source.Propagation.s_head t.Propagation.t_source.Propagation.s_file
           t.Propagation.t_source.Propagation.s_line)
    | _ -> ())
  | _ -> ()

(* The position of the parameter an unexposed function waits on,
   untimed, as it was passed: such a wait is red but its slowness
   arrives with the argument, so each caller is judged instead. *)
let param_wait taint (f : Growth.fn) ws =
  match f.Growth.g_shape with
  | Growth.Fun params when Propagation.taints taint f.Growth.g_qname = [] ->
    List.find_map
      (fun (w : Growth.wait) ->
        match w with
        | { Growth.w_head = "Sched.wait"; w_event = SL.AName q; w_binding = None; w_from = None; _ }
          ->
          List.find_index (String.equal q) params
        | _ -> None)
      ws
  | _ -> None

(* ---- driver ---------------------------------------------------------- *)

let analyze p =
  let taint = Propagation.analyze p in
  let findings = ref [] in
  let certs = ref [] in
  let waits = ref [] in
  let emit f = findings := f :: !findings in
  let param_waits = Hashtbl.create 8 in
  List.iter
    (fun fc ->
      List.iter
        (fun f ->
          let ws, qs = Growth.scan p fc f in
          Option.iter (Hashtbl.replace param_waits f.Growth.g_qname) (param_wait taint f ws);
          scan_fn p taint fc f ws ~wait:(fun w -> waits := w :: !waits);
          List.iter (check_arity p taint fc ~emit) qs)
        fc.Growth.fc_fns)
    (Growth.files p);
  (* the callers of those functions, at the calls that hand them an event *)
  if Hashtbl.length param_waits > 0 then
    List.iter
      (fun fc ->
        let via name =
          Option.bind (Growth.resolve p ~mdl:fc.Growth.fc_mdl name) (Hashtbl.find_opt param_waits)
        in
        List.iter
          (fun (f : Growth.fn) ->
            if List.exists (Hashtbl.mem param_waits) (Growth.callees p f.Growth.g_qname) then
              scan_fn p taint fc f
                (List.filter
                   (fun w -> not (List.mem w.Growth.w_head Growth.wait_heads))
                   (fst (Growth.scan ~via p fc f)))
                ~wait:(fun w -> waits := w :: !waits))
          fc.Growth.fc_fns)
      (Growth.files p);
  (* certificates + red-exposure findings per wait *)
  List.iter
    (fun w ->
      let exposed = w.w_exposures <> [] in
      let flagged = w.w_color = Red && exposed && not w.w_covered in
      let verdict = if flagged then Growth.Flagged else Growth.Bounded in
      let exp_str =
        if not exposed then "no slow-resource exposure reaches this wait"
        else
          Printf.sprintf "exposed to %s%s"
            (String.concat ", " (List.map exposure_string w.w_exposures))
            (if w.w_color = Green then "; quorum-k green"
             else if w.w_covered then "; deadline-covered"
             else "; fate-sharing and uncovered")
      in
      certs :=
        {
          Growth.c_rule = Finding.red_exposure;
          c_kind = "wait";
          c_file = w.w_file;
          c_line = w.w_line;
          c_site = w.w_site;
          c_verdict = verdict;
          c_evidence = Printf.sprintf "%s wait in %s: %s" (color_name w.w_color) w.w_fn exp_str;
        }
        :: !certs;
      List.iter
        (fun x ->
          let s = x.x_taint.Propagation.t_source in
          certs :=
            {
              Growth.c_rule = Finding.red_exposure;
              c_kind = "propagation";
              c_file = w.w_file;
              c_line = w.w_line;
              c_site = Printf.sprintf "%s->%s" (Propagation.fault_name x.x_fault) w.w_site;
              c_verdict = verdict;
              c_evidence =
                Printf.sprintf "role=%s color=%s path %s; seed %s at %s:%d" x.x_role
                  (color_name w.w_color) (path_string x.x_taint) s.Propagation.s_head
                  s.Propagation.s_file s.Propagation.s_line;
            }
            :: !certs)
        w.w_exposures;
      if flagged then
        emit
          (Finding.v ~rule:Finding.red_exposure
             ~severity:(if w.w_rpc then Finding.Error else Finding.Warning)
             ~loc:(Finding.File { file = w.w_file; line = w.w_line })
             (Printf.sprintf
                "fate-sharing wait on %s is exposed to %s (via %s) with no timeout \
                 escape: one slow resource delays this coroutine without bound"
                w.w_site
                (String.concat ", " (List.map exposure_string w.w_exposures))
                (path_string (List.hd w.w_exposures).x_taint))))
    !waits;
  let exposures =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun w ->
        List.iter
          (fun x ->
            let prev = try Hashtbl.find tbl w.w_file with Not_found -> [] in
            Hashtbl.replace tbl w.w_file
              ((Propagation.fault_name x.x_fault, color_name w.w_color) :: prev))
          w.w_exposures)
      !waits;
    Hashtbl.fold (fun file l acc -> (file, List.sort_uniq compare l) :: acc) tbl []
    |> List.sort compare
  in
  ( List.sort_uniq Finding.by_location (Growth.allow p !findings),
    List.sort_uniq Growth.by_site !certs,
    exposures )

let analyze_files paths = analyze (Growth.load_files paths)
