(* Static wait-structure certificates: which source files did the static
   passes certify as free of fail-slow wait hazards? The schedule explorer cross-checks
   these against its dynamic evidence: a dynamic violation inside a
   certified-clean module means one of the two analyses is wrong — either
   the static pass missed a flow or the runtime broke an assumption — and
   is reported as [certificate-mismatch]. *)

(* the static rules that speak about wait structure *)
let wait_rules = Analysis.Finding.[ red_exposure; quorum_arity_mismatch ]

type t = {
  files : (string, unit) Hashtbl.t;  (* every file covered by the certificate *)
  flagged : (string, unit) Hashtbl.t;  (* files with an unallowed wait finding *)
  growth_flagged : (string, unit) Hashtbl.t;
      (* files with any unbounded-growth finding, allowed or not: a
         pragma acknowledges the defect, it does not bound the site, so
         the boundedness certificate must not vouch for the file *)
  unsafe_shared : (string, unit) Hashtbl.t;
      (* files with any unsafe-shared-state finding, allowed or not: a
         pragma acknowledges the race, it does not make the cell
         domain-safe, so the parallel explorer must not run such a
         file's scenarios concurrently *)
  exposure : (string, (string * string) list) Hashtbl.t;
      (* per-file static SPG exposure from the depfast-spg pass:
         (fault-kind name, wait color) pairs — the blast radius the
         dynamic cross-check compares observed edges against *)
}

let of_findings ?(exposures = []) ~files findings =
  let t =
    {
      files = Hashtbl.create 64;
      flagged = Hashtbl.create 16;
      growth_flagged = Hashtbl.create 16;
      unsafe_shared = Hashtbl.create 16;
      exposure = Hashtbl.create 16;
    }
  in
  List.iter (fun f -> Hashtbl.replace t.files f ()) files;
  List.iter (fun (path, xs) -> Hashtbl.replace t.exposure path xs) exposures;
  List.iter
    (fun (f : Analysis.Finding.t) ->
      match f.Analysis.Finding.loc with
      | Analysis.Finding.Node _ -> ()
      | Analysis.Finding.File { file; _ } ->
        if (not f.Analysis.Finding.allowed) && List.mem f.Analysis.Finding.rule wait_rules
        then Hashtbl.replace t.flagged file ();
        if f.Analysis.Finding.rule = Analysis.Finding.unbounded_growth then
          Hashtbl.replace t.growth_flagged file ();
        if f.Analysis.Finding.rule = Analysis.Finding.unsafe_shared_state then
          Hashtbl.replace t.unsafe_shared file ())
    findings;
  t

let build ~roots () =
  let files = Analysis.Source_lint.ml_files roots in
  let r = Analysis.Passes.run (Analysis.Growth.load_files files) in
  of_findings ~exposures:r.Analysis.Passes.exposures ~files (Analysis.Passes.findings r)

(* Paths from different origins (repo-relative, test-sandbox-relative,
   absolute) are matched on their suffix: "lib/check/fixtures.ml" matches
   "../lib/check/fixtures.ml". *)
let suffix_matches ~path ~suffix =
  path = suffix
  || (let lp = String.length path and ls = String.length suffix in
      lp > ls
      && String.sub path (lp - ls) ls = suffix
      && path.[lp - ls - 1] = '/')

let mem_by_suffix tbl file =
  Hashtbl.fold
    (fun path () acc ->
      acc || suffix_matches ~path ~suffix:file || suffix_matches ~path:file ~suffix:path)
    tbl false

let covered t file = mem_by_suffix t.files file

(* [Cluster.Fault.kind] -> the depfast-spg fault-name it maps onto.
   Contention variants propagate through the same resource as their
   slow siblings, so they share an exposure key. *)
let fault_key = function
  | Cluster.Fault.Cpu_slow | Cluster.Fault.Cpu_contention -> "cpu-slow"
  | Cluster.Fault.Disk_slow | Cluster.Fault.Disk_contention -> "disk-slow"
  | Cluster.Fault.Mem_contention -> "memory"
  | Cluster.Fault.Net_slow -> "net-slow"

let exposure_by_suffix t file =
  Hashtbl.fold
    (fun path xs acc ->
      if suffix_matches ~path ~suffix:file || suffix_matches ~path:file ~suffix:path then
        xs @ acc
      else acc)
    t.exposure []

let exposed t ~file ~kind =
  let key = fault_key kind in
  List.exists (fun (k, _color) -> k = key) (exposure_by_suffix t file)

let red_exposed t ~file ~kind =
  let key = fault_key kind in
  List.exists (fun (k, color) -> k = key && color = "red") (exposure_by_suffix t file)

let exposure_count t =
  Hashtbl.fold (fun _ xs acc -> acc + List.length xs) t.exposure 0
let clean t file = covered t file && not (mem_by_suffix t.flagged file)
let bounded_clean t file = covered t file && not (mem_by_suffix t.growth_flagged file)
let domain_clean t file = not (mem_by_suffix t.unsafe_shared file)

let flagged_files t =
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) t.flagged [])

let growth_flagged_files t =
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) t.growth_flagged [])

let covered_count t = Hashtbl.length t.files
