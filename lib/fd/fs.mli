(** The failure signal detector FS.

    Outputs [Green] or [Red] at each process.  [Red] may be output only if a
    failure has already occurred; if a failure occurs, then eventually every
    correct process outputs [Red] permanently. *)

type output = Green | Red

val equal_output : output -> output -> bool

(** Standard oracle: [Green] everywhere before the first crash; after the
    first crash each process switches to [Red] at its own time (with random
    lag), and stays [Red]. *)
val oracle : output Oracle.t

(** [oracle_lazy ~lag] switches to [Red] exactly [lag] ticks after the first
    crash, at every process simultaneously — for targeted tests. *)
val oracle_lazy : lag:int -> output Oracle.t

(** [check fp ~horizon h] verifies the FS specification on a finite prefix:
    accuracy ([Red] at [t] implies a crash at or before [t]) at every
    sampled point; and if the pattern has a faulty process, every correct
    process must be [Red] at the horizon with a stable red suffix. *)
val check :
  Sim.Failure_pattern.t -> horizon:int -> output Oracle.history ->
  (unit, string) result
