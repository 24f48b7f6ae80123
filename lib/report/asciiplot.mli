(** Terminal scatter/line plots for the reproduced figures. *)

type series

val series : label:string -> (float * float) array -> series

val render : ?width:int -> ?height:int -> title:string -> series list -> string
(** Plot all series on a shared frame with per-series markers and a legend.
    Raises [Invalid_argument] on empty input. *)

val render_log_y :
  ?width:int -> ?height:int -> title:string -> series list -> string
(** As {!render} but y values are log10-transformed (non-positive points
    dropped) — for PFD curves spanning orders of magnitude. *)
