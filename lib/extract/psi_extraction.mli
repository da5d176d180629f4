(** Extracting Ψ from a QC algorithm and its failure detector — Figure 3 /
    Theorem 6, executable end to end.

    The transformation follows the paper's three stages:

    + {b Simulate}: each process builds the forest of simulated runs of the
      QC algorithm A (here {!Qcnbac.Qc_psi}) over the DAG of detector
      samples, with the [n + 1] initial proposal configurations, and waits
      until it decides in some run of every tree (task 2, line 8).
    + {b Agree}: processes *actually execute* A once, proposing 0 if they
      saw a simulated Q decision and 1 otherwise (lines 9–15; we encode the
      (I, I', S, S') tuple implicitly — all processes derive identical
      schedule pairs from the common sample sequence, see {!Dag}).  The
      common decision selects the mode: red (FS) or extract (Ω, Σ).
    + {b Extract}: in (Ω, Σ) mode, every round enlarges the sample horizon;
      Ω comes from the critical-index / decision-gadget analysis
      ({!Cht.extract_leader}), Σ from deciding extensions of the agreed
      prefix configurations using only fresh samples
      ({!Cht.sigma_quorum}).

    The result is an output stream, judged by {!Fd.Psi.check} through
    {!Fd.Oracle.of_outputs} with [init] [Bot] at [horizon]. *)

type result = {
  mode : [ `Red | `Cons ];  (** what the real execution of A agreed on *)
  outputs : Fd.Psi.output Sim.Trace.event list;
      (** round [r]'s outputs ([r = 1 .. rounds]), one at each process
          alive at the round's horizon [r * chunk] and stamped there,
          oldest round first; before round 1 a process outputs ⊥, the
          [init] the stream is read with *)
  horizon : int;  (** the last round's horizon, [rounds * chunk] *)
  real_decision : int Qcnbac.Types.qc_decision;
      (** the decision of the real execution of A *)
}

(** [run ~fp ~seed ~rounds ~chunk] extracts Ψ from (A = Qc-from-Ψ, D = a Ψ
    oracle history) under failure pattern [fp].  Each round adds [chunk]
    sample times.  Deterministic given [seed]. *)
val run :
  ?sink:Sim.Event.sink ->
  fp:Sim.Failure_pattern.t ->
  seed:int ->
  rounds:int ->
  chunk:int ->
  unit ->
  result
