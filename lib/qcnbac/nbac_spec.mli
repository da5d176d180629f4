(** The non-blocking atomic commit specification (Section 7.1): each
    process votes Yes or No and decides Commit or Abort.

    Integrity, uniform agreement and termination are {!Cons.Spec}'s shared
    clauses; this module holds only validity: Commit requires that all
    processes previously voted Yes; Abort requires that some process
    previously voted No or that a failure previously occurred.  Runs are
    judged with [Cons.Spec.check (problem ~votes)]; the model checker's
    invariant is the adapter [Mc.Invariant.decision] over the same
    problem, whose termination clause is what convicts 2PC's blocking
    run. *)

val problem :
  votes:(Sim.Pid.t * Types.vote) list -> Types.outcome Cons.Spec.problem
