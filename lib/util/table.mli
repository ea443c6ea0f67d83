(** Plain-text rendering of tables and simple charts.

    The benchmark harness regenerates every table and figure of the
    paper as text; this module provides the shared rendering.  Output
    is plain ASCII so that it diffs cleanly and reads in any
    terminal. *)

type align = Left | Right | Center

val render :
  ?title:string ->
  headers:string list ->
  ?aligns:align list ->
  string list list ->
  string
(** [render ~headers rows] lays the rows out in a boxed grid.  Missing
    cells render empty; [aligns] defaults to left for the first column
    and right for the rest. *)

val bar_chart :
  ?title:string ->
  ?width:int ->
  ?unit:string ->
  (string * float) list ->
  string
(** Horizontal bar chart scaled so the longest bar fills [width]
    (default 50) characters.  Values must be non-negative. *)

val scatter :
  ?title:string ->
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  (string * float * float) list ->
  string
(** [scatter points] draws labelled points in a character grid; each
    point is plotted with the first character of its label, and a
    legend maps characters back to full labels.  Used for the
    performance/area trade-off figures. *)

val series_chart :
  ?title:string ->
  ?width:int ->
  ?height:int ->
  series:(string * (float * float) list) list ->
  unit ->
  string
(** Multi-series line-ish chart: each series plots its points with a
    distinct character.  Axes are scaled to the union of all points. *)
