(** Write tags for multi-writer atomic registers: a sequence number broken
    by writer id.  Tags are totally ordered; a writer picks a tag strictly
    greater than every tag it has seen, so concurrent writes by different
    writers are ordered deterministically. *)

type t = { seq : int; writer : Sim.Pid.t }

(** The tag of the initial (unwritten) register value; smaller than any tag
    produced by [next]. *)
val initial : t

val compare : t -> t -> int
val equal : t -> t -> bool

(** [next t writer] is the smallest tag greater than [t] owned by
    [writer]. *)
val next : t -> Sim.Pid.t -> t

(** [max a b] by [compare]. *)
val max : t -> t -> t
