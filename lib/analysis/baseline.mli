(** Committed-baseline support: audit-then-gate.

    The baseline file is canonical JSON (sorted entries, stable
    formatting) so [--update-baseline] on an unchanged tree is
    byte-identical.  Matching is by (rule, file, {!Finding.stable_key}):
    symbolic keys survive line drift; the ["L<line>"] fallback pins
    purely positional findings.  Fresh findings and stale entries both
    fail the gate — the baseline can only shrink by being regenerated,
    never rot silently. *)

type entry = { b_rule : string; b_file : string; b_key : string }

val compare_entry : entry -> entry -> int

val of_finding : Finding.t -> entry

val of_findings : Finding.t list -> entry list
(** Sorted, deduplicated. *)

val save : path:string -> entry list -> unit
(** Write canonical JSON ([{"version": 1, "findings": [...]}]). *)

val load : path:string -> (entry list, string) result
(** Parse a baseline file.  Malformed or unreadable input is an
    [Error], never an exception. *)

type diff = {
  fresh : Finding.t list;  (** not in the baseline: fail the gate *)
  matched : (Finding.t * entry) list;  (** audited, carried *)
  gone : entry list;  (** no longer produced: fail, regenerate *)
}

val apply : entry list -> Finding.t list -> diff
