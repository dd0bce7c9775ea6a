(** Static wait-structure certificates for the dynamic cross-check.

    Built by running the whole-project passes over a set of sources and
    recording, per file, whether any {e unallowed} wait-structure finding
    ([red-exposure], [quorum-arity-mismatch]) was reported. A file with
    none is {e certified clean}: statically, none of its waits is both
    fate-sharing and exposed to a slow resource without a deadline, and
    none of its quorums has an arity it cannot meet. The schedule explorer
    treats a dynamic violation inside a certified-clean file as a
    [certificate-mismatch] — evidence that one of the two analyses is
    wrong, and a reportable bug either way. *)

type t

val build : roots:string list -> unit -> t
(** Walk the given directories for [.ml] sources
    ({!Analysis.Source_lint.ml_files}), load them once as one
    {!Analysis.Growth.project}, run the whole-project passes over it, and
    record per-file verdicts. *)

val of_findings :
  ?exposures:(string * (string * string) list) list ->
  files:string list ->
  Analysis.Finding.t list ->
  t
(** Assemble a certificate from already-computed findings (for tests).
    [exposures] is the per-file static SPG exposure map in
    {!Analysis.Spg_static.analyze} shape: [(path, (fault-name,
    color) pairs)]. *)

val covered : t -> string -> bool
(** Was this file part of the certified set? Paths are compared by suffix,
    so repo-relative names match sandbox-relative walks. *)

val clean : t -> string -> bool
(** Covered and free of unallowed wait-structure findings. *)

val bounded_clean : t -> string -> bool
(** Covered and free of {e any} [unbounded-growth] finding — allowed or
    not: a pragma acknowledges a defect without bounding the site, so
    the boundedness certificate never vouches for a pragma'd file. The
    explorer's queue-depth gauges cross-check against this verdict. *)

val domain_clean : t -> string -> bool
(** Free of {e any} [unsafe-shared-state] finding — allowed or not: a
    pragma acknowledges a data race without removing the cell, so the
    parallel explorer refuses to run a scenario's runs concurrently
    while any of its modules carries one. This is the gate that lets
    the static domains pass certify the parallelism safe. *)

val fault_key : Cluster.Fault.kind -> string
(** The depfast-spg fault-name an injectable fault maps onto
    (contention variants share their slow sibling's key):
    ["cpu-slow" | "disk-slow" | "memory" | "net-slow"]. *)

val exposed : t -> file:string -> kind:Cluster.Fault.kind -> bool
(** Does the static SPG exposure map give this file {e any} wait
    exposed to this fault kind? The dynamic cross-check escalates to
    [certificate-mismatch] when an observed propagation edge lands in a
    covered file with no such exposure. Paths compared by suffix. *)

val red_exposed : t -> file:string -> kind:Cluster.Fault.kind -> bool
(** Like {!exposed}, but only counting fate-sharing (red) waits — the
    staleness check reports static red exposures never observed red. *)

val exposure_count : t -> int
(** Total (file, fault, color) exposure entries recorded. *)

val flagged_files : t -> string list
(** Certified-set files carrying at least one unallowed wait finding,
    sorted. *)

val growth_flagged_files : t -> string list
(** Certified-set files carrying at least one unbounded-growth finding
    (allowed or not), sorted. *)

val covered_count : t -> int
