(** Per-function summaries for the interprocedural pass ({!Interproc}).

    A summary holds the facts that flow across call boundaries, refined
    to a fixpoint over the whole project:

    - [suspends]: the function (transitively) suspends on an event
      ([Sched.wait]/[wait_timeout], [Condvar.wait]/[wait_timeout]) —
      bounded local pauses ([sleep], [yield]) deliberately excluded;
    - [acquires]: canonical mutex names the function may acquire,
      including through its callees;
    - [reads]/[writes]: canonical mutable cells ({!Effects}) the
      function may read or write, including through its callees — the
      effect footprint behind the depfast-domains pass. *)

type t = {
  qname : string;  (** [Module.fn], module from the file basename *)
  file : string;
  line : int;
  mutable suspends : bool;
  mutable acquires : string list;  (** sorted canonical lock names *)
  mutable reads : string list;  (** sorted canonical cells read *)
  mutable writes : string list;  (** sorted canonical cells written *)
}

val create : qname:string -> file:string -> line:int -> t
val union : 'a list -> 'a list -> 'a list
(** Sorted-set union; the first list itself when the second adds nothing. *)

val add_acquire : t -> string -> unit
val add_read : t -> string -> unit
val add_write : t -> string -> unit
