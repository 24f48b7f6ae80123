(** Minimal JSON tree with a renderer and a strict parser.

    Every artefact the telemetry layer emits (metrics snapshots, Chrome
    trace files, JSONL run logs, [BENCH_kernels.json]) goes through
    {!render}; {!parse} exists so tests and the benchcheck CI gate can
    verify well-formedness without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val render : t -> string
(** Compact (single-line) rendering. Non-finite floats become [null]
    since JSON has no NaN/Infinity tokens. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document: rejects trailing content,
    unterminated strings and malformed numbers. Numbers without [.] or an
    exponent parse as {!Int}, everything else as {!Float}. *)

val member : string -> t -> t option
(** Field lookup on an {!Obj}; [None] on any other constructor. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_int : t -> int option

val to_float : t -> float option
(** Also accepts {!Int}, widening to float. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv json] is [conv] applied to [json]'s [name] member.
    [Error "missing or ill-typed field \"name\""] when the member is
    absent, [conv] rejects it, or [json] is not an {!Obj} — the one
    field-extraction policy shared by every consumer of a parsed
    tree. *)
