(** Affine memory references.

    Every memory operation accesses [array\[stride * i + offset\]] in
    64-bit words, where [i] is the normalized loop counter.  Strides
    and offsets are what the widening analysis consumes: a group of
    accesses to the same array whose offsets form a consecutive run at
    stride 1 can be compacted into one wide access (paper, Section 2).
    The same descriptors drive the conservative cross-iteration memory
    dependence analysis in {!Ddg}. *)

type t = {
  array_id : int;  (** which array object is accessed *)
  stride : int;  (** words advanced per loop iteration; may be 0 or negative *)
  offset : int;  (** constant word offset *)
}

val make : array_id:int -> stride:int -> offset:int -> t

val address_at : t -> iteration:int -> int
(** Word address touched at a given iteration. *)

type conflict =
  | No_conflict  (** the two references can never touch the same word *)
  | At_distance of int
      (** [At_distance d] (with [d >= 0]): the word touched by the
          first reference at iteration [i] is touched by the second at
          iteration [i + d], for all [i]. *)
  | Unknown  (** possibly conflicting, but not at a constant distance *)

val conflict : t -> t -> conflict
(** Directional conflict test; callers interested in both directions
    must also query [conflict b a]. *)

val consecutive : t -> t -> bool
(** [consecutive a b] holds when [b] accesses exactly the next word
    after [a] within the same iteration — the condition for packing the
    two accesses into one wide access. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
