(** Shared vocabulary of the commit problems. *)

(** NBAC votes. *)
type vote = Yes | No

(** NBAC outcomes. *)
type outcome = Commit | Abort

(** QC decisions over proposals of type ['v]: a proposed value, or the
    special "quit" value Q (allowed only if a failure occurred). *)
type 'v qc_decision = Value of 'v | Quit

val equal_vote : vote -> vote -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val pp_qc_decision :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v qc_decision -> unit
