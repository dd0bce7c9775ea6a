(* Every static pass over one project: pragma hygiene, then the
   interprocedural, boundedness, domain-safety and slowness-propagation
   passes. *)

type t = {
  tagged : (string * Finding.t) list;
  bounds : Growth.cert list;
  domains : Growth.cert list;
  spg : Growth.cert list;
  exposures : (string * (string * string) list) list;
}

let run p =
  let bfs, bounds = Bounds.analyze p in
  let dfs, domains, _ = Domains.analyze p in
  let sfs, spg, exposures = Spg_static.analyze p in
  let tagged =
    List.concat_map
      (fun (pass, fs) -> List.map (fun f -> (pass, f)) fs)
      [ ("source-lint", Growth.lint p); ("interproc", Interproc.analyze p); ("bounds", bfs);
        ("domains", dfs); ("spg", sfs) ]
    |> List.stable_sort (fun (_, a) (_, b) -> Finding.by_location a b)
  in
  let rec dedup = function
    | (p1, f1) :: (_, f2) :: rest when Finding.by_location f1 f2 = 0 -> dedup ((p1, f1) :: rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  { tagged = dedup tagged; bounds; domains; spg; exposures }

let findings t = List.map snd t.tagged
