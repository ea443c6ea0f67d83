(** Semiconductor Industry Association 1994 roadmap data (paper,
    Table 1): feature size and chip area for the five process
    generations the study projects onto. *)

type generation = {
  year : int;
  lambda_um : float;  (** feature size in micrometres *)
  chip_mm2 : float;  (** manufacturable die area *)
  lambda2_per_chip : float;  (** total chip capacity in lambda^2 *)
  lambda2_per_mm2 : float;
}

val generations : generation list
(** 1998, 2001, 2004, 2007, 2010 — in order. *)

val by_year : int -> generation option

val label : generation -> string
(** E.g. ["0.25um (1998)"]. *)
