(** Trace invariants: the paper's problem specifications as predicates over
    the outputs of a (possibly unfinished) run.

    [on_output] is called online, after every emitted output, with all
    outputs so far — it must only state *safety* properties, so a [Error]
    stops the search with a genuine counterexample.  [final] is called once
    the run has ended; with [must_terminate = true] (the run quiesced, or
    the caller treats the step budget as a liveness deadline) it must also
    check the termination clause of the spec — this is how 2PC's blocking
    run becomes a reportable violation.

    Both harnesses, {!Harness.run} and {!Net_harness.run}, follow one
    order: [on_output] gets the events newest first (the engine's order,
    as a target's [stop] sees them), and [final] gets them oldest first.
    The decision invariants read events as a set, so the order does not
    move their verdicts; an invariant that reads order (say, a log's)
    reverses what [on_output] gets. *)

type 'out t = {
  name : string;
  on_output :
    Sim.Failure_pattern.t ->
    'out Sim.Trace.event list ->
    (unit, string) result;
  final :
    Sim.Failure_pattern.t ->
    must_terminate:bool ->
    'out Sim.Trace.event list ->
    (unit, string) result;
}

(** A decision problem's specification ({!Cons.Spec}): [on_output] is
    {!Cons.Spec.safety}, and [final] is {!Cons.Spec.check} when
    [must_terminate] is set, {!Cons.Spec.safety} otherwise.  Consensus,
    quittable consensus ({!Qcnbac.Qc_spec}) and NBAC ({!Qcnbac.Nbac_spec})
    all come through here. *)
val decision : 'v Cons.Spec.problem -> 'v t

(** Atomic registers: linearizability of the invocation/response history
    (reusing {!Regs.Linearizability}), plus completion of every operation
    invoked by a correct process. *)
val linearizable : unit -> 'v Regs.Abd.output t

(** Eventual consistency, the convergence clause only: once the run has
    drained ([must_terminate]), the last {!Ec.Replica.Fp} fingerprint of
    every correct replica must agree.  Divergence before quiescence is
    legal, so there is no online clause. *)
val ec_convergence : unit -> Ec.Replica.output t
