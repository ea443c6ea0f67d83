(** List helpers the standard library lacks. *)

val split_at : int -> 'a list -> 'a list * 'a list
(** [split_at k l] is the first [k] elements of [l] (all of them if
    [l] is shorter) and the rest. *)
