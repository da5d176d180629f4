(** Process identifiers.

    Processes of a system of size [n] are identified by the integers
    [0 .. n-1].  The type is kept abstract enough (a private alias would
    prevent arithmetic that some algorithms legitimately use, e.g. rotating
    coordinators), so it is a plain [int] with a disciplined constructor. *)

type t = int

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [all n] is the list of the [n] process identifiers [0 .. n-1]. *)
val all : int -> t list

(** [valid ~n p] holds iff [p] names a process of a system of size [n]. *)
val valid : n:int -> t -> bool
