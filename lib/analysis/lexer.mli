(** A deliberately small OCaml tokenizer: enough structure for call-site
    scanning (identifiers, punctuation, line/column positions) without a
    real parser. Comments, strings and char literals are consumed, and
    [(* depfast-lint: allow rule-id ... *)] pragmas are collected. *)

type token = {
  line : int;  (** 1-based line of the token's first character *)
  col : int;  (** 0-based column — [col = 0] marks top-level items *)
  text : string;
  dotted : string;
      (** the dotted name starting at this token: for an identifier
          followed by [. ident] (across blanks and newlines), the joined
          segments, [Depfast.Sched.wait] at [Depfast]; otherwise [text]
          itself. A name stops at a [.] not followed by an identifier,
          so [M.(x)] names [M]. *)
}

type pragma = {
  p_line : int;  (** line the pragma comment starts on *)
  p_rules : string list;
      (** the rule ids following "allow": blank-separated [a-z0-9-] words,
          up to the first other separator (the "—" before prose) *)
}

type result = { tokens : token array; pragmas : pragma list }

val scan : string -> result

val pragmas : string -> pragma list
(** [(scan src).pragmas] without building the tokens. *)

val is_ident : string -> bool
(** True for identifier-shaped tokens (starts with a letter or [_]). *)

val allows : pragma list -> string -> int -> bool
(** [allows pragmas rule line]: does a pragma starting on [line] or on
    one of the three lines above it allow [rule]? Every pass exempts
    findings through this one rule. *)
