(** The paper-figure regenerator: Table 1, Figures 1-3, the ablations and
    the §5 mitigation experiment. The machine benchmark (wall time and
    allocation per op, per-layer costs) is [perfbench/], not this.

    Usage:
      bench/main.exe                  run everything (full parameters)
      bench/main.exe --quick          run everything with small parameters
      bench/main.exe fig1 [--quick]   one experiment (table1 | fig1 | fig2 |
                                      fig3 | ablation | mitigation) *)

let params quick = if quick then Harness.Params.quick else Harness.Params.full

let run_experiment quick = function
  | "table1" -> Harness.Table1.print ()
  | "fig1" -> Harness.Fig1.print ~params:(params quick) ()
  | "fig2" -> Harness.Fig2.print ()
  | "fig3" -> Harness.Fig3.print ~params:(params quick) ()
  | "ablation" -> Harness.Ablation.print ~params:(params quick) ()
  | "mitigation" -> Harness.Mitigation.print ~params:(params quick) ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (expected table1|fig1|fig2|fig3|ablation|mitigation)\n" other;
    exit 2

let all = [ "table1"; "fig1"; "fig2"; "fig3"; "ablation"; "mitigation" ]

let () =
  let quick = ref false in
  let names = ref [] in
  let spec = [ ("--quick", Arg.Set quick, " use small parameters (CI-friendly)") ] in
  Arg.parse spec (fun a -> names := a :: !names) "bench/main.exe [--quick] [experiment...]";
  let names = if !names = [] then all else List.rev !names in
  List.iter (run_experiment !quick) names
