(** The decision problems' specification as one checkable predicate over a
    run's output events, each output being a decision.

    Consensus (Section 4.1), quittable consensus (Section 5, in
    {!Qcnbac.Qc_spec}) and NBAC (Section 7.1, in {!Qcnbac.Nbac_spec}) share
    every clause but validity, and this module holds the shared ones:

    - Integrity: a process decides at most once.
    - Uniform agreement: no two processes (correct or faulty) decide
      differently.
    - Validity: every decision passes the problem's own clause; consensus's
      is "the value was proposed".
    - Termination: if every correct process has an input, every correct
      process decides.

    The model checker's decision invariants ([Mc.Invariant.decision]) are
    adapters over {!safety} and {!check}, so the simulator and the
    checker judge runs with the same functions and the same wording.

    Every clause reads the events as a set: a verdict does not depend on
    their order, so callers may pass them oldest or newest first. *)

type 'v problem = {
  name : string;
  inputs : Sim.Pid.t list;  (** the processes that have an input *)
  pp : Format.formatter -> 'v -> unit;  (** renders a decision *)
  validity : Sim.Failure_pattern.t -> 'v Sim.Trace.event -> string option;
      (** [Some why] if the decision breaks the problem's validity clause;
          [why] says what its process did, e.g. "quit without a prior
          failure". *)
}

(** Consensus: a decision must be some process's proposal. *)
val consensus :
  pp:(Format.formatter -> 'v -> unit) ->
  proposals:(Sim.Pid.t * 'v) list ->
  'v problem

(** Integrity, uniform agreement and validity: the clauses a prefix of a
    run can already break. *)
val safety :
  'v problem ->
  Sim.Failure_pattern.t ->
  'v Sim.Trace.event list ->
  (unit, string) result

(** [safety], then termination: the whole specification of a finished
    run.  Termination is judged on a run that has ended, and holds
    vacuously unless every correct process has an input. *)
val check :
  'v problem ->
  Sim.Failure_pattern.t ->
  'v Sim.Trace.event list ->
  (unit, string) result
