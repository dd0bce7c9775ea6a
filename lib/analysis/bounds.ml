module SL = Source_lint

(* ---- timeout coverage ------------------------------------------------ *)

(* Waits on a quorum bound by [Event.quorum] in this function, judged by
   how each is waited on. red-exposure already covers fate-sharing
   waits on bare completions; quorum waits are green to it, so the
   untimed ones are exactly the uncovered gap this rule closes. *)
let scan_waits p (fc : Growth.file_ctx) (f : Growth.fn) ~emit ~cert =
  List.iter
    (fun (w : Growth.wait) ->
      match (w.Growth.w_head, w.Growth.w_binding, w.Growth.w_event) with
      | ("Sched.wait" | "Sched.wait_timeout"), Some (Growth.Quorum "Event.quorum"), SL.AName q ->
        let cert verdict evidence =
          cert
            {
              Growth.c_rule = Finding.missing_deadline;
              c_kind = "quorum-wait";
              c_file = fc.Growth.fc_path;
              c_line = w.Growth.w_line;
              c_site = q;
              c_verdict = verdict;
              c_evidence = evidence;
            }
        in
        if w.Growth.w_head = "Sched.wait_timeout" then
          cert Growth.Bounded "deadline via Sched.wait_timeout"
        else if w.Growth.w_timered then cert Growth.Bounded "timer escape wired into the quorum"
        else if Growth.remote_reachable p f.Growth.g_qname then begin
          emit ~line:w.Growth.w_line
            (Printf.sprintf
               "untimed wait on quorum %S with no timer/or_ escape: green to the \
                wait-structure rules, but a fail-slow minority still delays it \
                without bound — use Sched.wait_timeout or add a Sched.timer child"
               q);
          cert Growth.Flagged "no deadline or timer escape on any path"
        end
      | _ -> ())
    (fst (Growth.scan p fc f))

(* ---- retry coverage -------------------------------------------------- *)

(* A retry loop: a recursion marker ([let rec] inside the item, or a
   [while]) plus a remote call and a [Timed_out] arm in the same item.
   It is bounded when the body backs off ([Sched.sleep]) or guards on an
   attempt bound (a </> comparison against an int literal or a local
   int constant). *)
let scan_retries (fc : Growth.file_ctx) (f : Growth.fn) ~emit ~cert =
  let a = fc.Growth.fc_toks in
  let n = f.Growth.g_e in
  let has_rec = ref false in
  let has_call = ref false in
  let has_timeout_arm = ref false in
  let has_sleep = ref false in
  let has_guard = ref false in
  let int_names = Hashtbl.create 4 in
  let is_int_tok k =
    k >= f.Growth.g_b && k < n
    &&
    let t = a.(k).Lexer.text in
    (t <> "" && t.[0] >= '0' && t.[0] <= '9') || Hashtbl.mem int_names t
  in
  (* first sweep: local int constants [let name = 8] *)
  let i = ref f.Growth.g_b in
  while !i < n do
    let t = a.(!i).Lexer.text in
    if
      t = "let"
      && !i + 3 < n
      && Lexer.is_ident a.(!i + 1).Lexer.text
      && a.(!i + 2).Lexer.text = "="
      && (let v = a.(!i + 3).Lexer.text in v <> "" && v.[0] >= '0' && v.[0] <= '9')
    then Hashtbl.replace int_names a.(!i + 1).Lexer.text ();
    incr i
  done;
  let lastseg name =
    match String.rindex_opt name '.' with
    | Some j -> String.sub name (j + 1) (String.length name - j - 1)
    | None -> name
  in
  let i = ref f.Growth.g_b in
  while !i < n do
    let t = a.(!i).Lexer.text in
    if t = "rec" || t = "while" then has_rec := true;
    if Lexer.is_ident t then begin
      let name = a.(!i).Lexer.dotted and ni = SL.after a !i in
      (* the constructor is usually spelled qualified
         ([Depfast.Sched.Timed_out]), so match its last segment *)
      if lastseg name = "Timed_out" then has_timeout_arm := true;
      (match SL.last2 name with
      | "Rpc.call" -> has_call := true
      | "Sched.sleep" -> has_sleep := true
      | _ -> ());
      i := ni
    end
    else begin
      (match t with
      | "<" when !i + 1 < n && a.(!i + 1).Lexer.text = "-" -> ()
      | "<" | ">" ->
        let after = if !i + 1 < n && a.(!i + 1).Lexer.text = "=" then !i + 2 else !i + 1 in
        if is_int_tok after || is_int_tok (!i - 1) then has_guard := true
      | _ -> ());
      incr i
    end
  done;
  if !has_rec && !has_call && !has_timeout_arm then
    if !has_sleep || !has_guard then
      cert
        {
          Growth.c_rule = Finding.unbounded_retry;
          c_kind = "retry";
          c_file = fc.Growth.fc_path;
          c_line = f.Growth.g_line;
          c_site = f.Growth.g_qname;
          c_verdict = Growth.Bounded;
          c_evidence =
            (if !has_sleep && !has_guard then "attempt bound and backoff sleep"
             else if !has_sleep then "backoff sleep between attempts"
             else "attempt bound guards the recursion");
        }
    else begin
      emit ~line:f.Growth.g_line
        (Printf.sprintf
           "%s retries a remote call on Timed_out with no attempt bound and no \
            backoff: a fail-slow peer turns this into a tight unbounded resend loop"
           f.Growth.g_qname);
      cert
        {
          Growth.c_rule = Finding.unbounded_retry;
          c_kind = "retry";
          c_file = fc.Growth.fc_path;
          c_line = f.Growth.g_line;
          c_site = f.Growth.g_qname;
          c_verdict = Growth.Flagged;
          c_evidence = "no attempt bound or backoff sleep in the retry body";
        }
    end

(* ---- driver ---------------------------------------------------------- *)

let analyze p =
  let growth_findings, growth_certs = Growth.analyze p in
  let findings = ref [] in
  let certs = ref growth_certs in
  let cert c = certs := c :: !certs in
  List.iter
    (fun fc ->
      List.iter
        (fun f ->
          let emit_rule rule ~line msg =
            findings :=
              Finding.v ~rule ~severity:Finding.Warning
                ~loc:(Finding.File { file = fc.Growth.fc_path; line })
                msg
              :: !findings
          in
          scan_waits p fc f ~emit:(emit_rule Finding.missing_deadline) ~cert;
          scan_retries fc f ~emit:(emit_rule Finding.unbounded_retry) ~cert)
        fc.Growth.fc_fns)
    (Growth.files p);
  ( List.sort_uniq Finding.by_location (Growth.allow p (growth_findings @ !findings)),
    List.sort_uniq Growth.by_site !certs )

let analyze_files paths = analyze (Growth.load_files paths)
