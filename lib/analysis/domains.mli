(** Front end 5: depfast-domains — domain-safety verdicts over the
    mutable-state inventory.

    The {e inventory} finds every top-level mutable cell in the tree —
    [ref]s, top-level [Queue]/[Hashtbl]/[Buffer]/[Rlog]/[Atomic]
    values (through optional [: ty] annotations and [lazy] wrappers),
    top-level records of a type with a [mutable] label, and every
    [mutable] field declaration — each under a stable canonical name:
    [Module.x] for module-level bindings, [.field] for record fields
    (same-named fields merge across types, the growth pass's accepted
    over-approximation).

    The {e write scan} then walks each body once for the writes to
    those cells: the container argument of a mutating operation
    ([Queue.add], [Hashtbl.replace], [Atomic.set], [incr], ...) and the
    left-hand side of [x := e] and [t.f <- e]. A write lexically inside
    a [Mutex.with_lock] body or a [Mutex.lock]..[unlock] span is
    guarded; the lock fact does {e not} flow through calls, and a write
    counts only in the body that makes it (a helper that writes under a
    caller's lock still reads as unguarded — keep the write in the
    lock's lexical region). Writes through an alias are a static blind
    spot.

    Every cell gets an ownership verdict and a machine-readable
    certificate (same shape as the boundedness certificates, under the
    [unsafe-shared-state] rule):

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

    Like the other front ends this is token-level and neither sound
    nor complete. *)

(** Verdict class names, as they appear in certificate evidence. *)

val class_immutable : string
val class_engine : string
val class_guarded : string
val class_unsafe : string

val analyze : Growth.project -> Finding.t list * Growth.cert list * unit
(** Findings are pragma-applied and sorted by location; certificates
    sorted by site, one per inventory cell, their evidence
    ["<class>: <witness>"]. The [unit] keeps the benchmark's triple
    until ROADMAP direction 17. *)

val analyze_files : string list -> Finding.t list * Growth.cert list * unit
(** {!analyze} over the project loaded from these files. *)
