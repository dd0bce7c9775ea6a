(** Every static pass over one {!Growth.project}, run the one way
    [depfast_lint], the schedule checker's certificate and the tests all
    run them. *)

type t = {
  tagged : (string * Finding.t) list;
      (** every finding, pragmas applied, sorted by location and tagged
          with its pass ([source-lint | interproc | bounds | domains |
          spg]); a finding two passes report is kept once, first pass
          wins *)
  bounds : Growth.cert list;  (** {!Bounds}' certificates *)
  domains : Growth.cert list;  (** {!Domains}' cell inventory *)
  spg : Growth.cert list;  (** {!Spg_static}'s wait and propagation certificates *)
  exposures : (string * (string * string) list) list;  (** see {!Spg_static.analyze} *)
}

val run : Growth.project -> t

val findings : t -> Finding.t list
(** The findings of {!t.tagged}, without their pass. *)
