(** Markdown rendering of report tables — used to paste experiment output
    into EXPERIMENTS.md and similar documents without reformatting. *)

val of_table : Table.t -> string
(** GitHub-flavoured markdown table with the title as an H3 heading; pipe
    characters in cells are escaped. *)

val code_block : ?language:string -> string -> string
(** Wrap preformatted text (e.g. an ASCII figure) in a fenced code block. *)
