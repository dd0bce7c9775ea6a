(** Front end 5: depfast-domains — domain-safety verdicts over the
    mutable-state inventory.

    Built on {!Effects}: every top-level mutable cell gets an ownership
    verdict and a machine-readable certificate (same shape as the
    boundedness certificates, under the [unsafe-shared-state] rule):

    - {b immutable-after-init}: never written anywhere in the tree —
      safe to share across domains by construction;
    - {b engine-owned}: a [mutable] field written only through threaded
      record values ([t.f <- ...]) — domain-local as long as the owner
      record is;
    - {b guarded}: every write lexically under a canonical
      [Depfast.Mutex] region, or the cell is an [Atomic];
    - {b unsafe-shared} ([Flagged] + an [Error] finding at the cell's
      definition): written outside any Mutex region or owner record —
      a data race once the tree runs on OCaml 5 domains.

    The pass also returns per-file {e effect footprints} (the union of
    the file's closed read/write sets). *)

type footprint = string * (string list * string list)
(** [(path, (cells read, cells written))] — whole-file effect union,
    restricted to schedule-relevant cells: [.field] effects (engine-owned,
    judged at their top-level base cells) and atomic cells (linearizable
    counters like [Event.next_id]) are excluded. No consumer in [lib/]
    reads footprints; they go with the benchmark's lint-workload change
    (ROADMAP: retire the multicore layer). *)

(** Verdict class names, as they appear in certificate evidence. *)

val class_immutable : string
val class_engine : string
val class_guarded : string
val class_unsafe : string

val analyze : Growth.project -> Finding.t list * Growth.cert list * footprint list
(** Findings are pragma-applied and sorted by location; certificates
    sorted by site, one per inventory cell, their evidence
    ["<class>: <witness>"]; footprints in project file order. *)

val analyze_files : string list -> Finding.t list * Growth.cert list * footprint list
(** {!analyze} over the project loaded from these files. *)
