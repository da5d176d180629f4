(** The quittable consensus specification (Section 5): consensus whose
    processes may also decide Q, the special "quit" value.

    Integrity, uniform agreement and termination are {!Cons.Spec}'s shared
    clauses; this module holds only validity: a decision is a proposed
    value, or Q if a failure previously occurred.  The Q-timing clause is
    checked against the decision's emission time: deciding Q at time [t]
    requires a crash at some time [< t].  Runs are judged with
    [Cons.Spec.check (problem ~pp ~proposals)]; the model checker's
    invariant is the adapter [Mc.Invariant.decision] over the same
    problem. *)

val problem :
  pp:(Format.formatter -> 'v -> unit) ->
  proposals:(Sim.Pid.t * 'v) list ->
  'v Types.qc_decision Cons.Spec.problem
