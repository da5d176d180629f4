(** Ready-made systems under test for the explorers and the [mc] CLI.

    Each constructor fixes a protocol, its detector oracle (sampled once
    per failure pattern — time-invariant variants where possible, so the
    exhaustive explorer's digest pruning applies), the workload and the
    invariant; the explorers supply schedules and failure patterns. *)

(** Consensus from (Ω, Σ): single-decree Paxos with Σ quorums, instant Ω.
    Checked against the uniform consensus spec. *)
val quorum_paxos :
  n:int ->
  ( int Cons.Quorum_paxos.state,
    int Cons.Quorum_paxos.msg,
    Fd.Omega.output * Fd.Sigma.output,
    int,
    int )
  Harness.target

(** [quorum_paxos] with a planted bug: process 0 outputs an unproposed
    value.  Every schedule violates validity — used to check that the
    explorers actually detect violations and that counterexamples replay. *)
val broken_validity :
  n:int ->
  ( int Cons.Quorum_paxos.state,
    int Cons.Quorum_paxos.msg,
    Fd.Omega.output * Fd.Sigma.output,
    int,
    int )
  Harness.target

(** ABD atomic registers from Σ: one register, every process writes its own
    value then reads.  Checked for linearizability and operation
    completion. *)
val abd :
  n:int ->
  ( int Regs.Abd.state,
    int Regs.Abd.msg,
    Fd.Sigma.output,
    int Regs.Abd.input,
    int Regs.Abd.output )
  Harness.target

(** Classical two-phase commit (no failure detector), all-Yes votes,
    checked against the NBAC spec.  Blocks when the coordinator crashes —
    the violation the crash adversary ({!Parallel.search}) is expected to
    find. *)
val two_phase_commit :
  n:int ->
  ( Qcnbac.Two_phase_commit.state,
    Qcnbac.Two_phase_commit.msg,
    unit,
    Qcnbac.Types.vote,
    Qcnbac.Types.outcome )
  Harness.target

(** Quittable consensus from Ψ, checked against the QC spec ([Quit] only
    after a failure).  Ψ's ⊥ period means runs never quiesce early, so this
    target relies on its step bound as the liveness deadline. *)
val qc_psi :
  n:int ->
  ( int Qcnbac.Qc_psi.state,
    int Qcnbac.Qc_psi.msg,
    Fd.Psi.output,
    int,
    int Qcnbac.Types.qc_decision )
  Harness.target

(** The eventually-consistent store replica ({!Ec.Replica}): every process
    writes the same key concurrently, the run drains to anti-entropy
    quiescence, and every correct replica's final store fingerprint must
    agree ({!Invariant.ec_convergence}) — LWW conflict resolution must pick
    the same winner on every delivery schedule and failure pattern.  The
    detector is the instant-Ω oracle with a constant epoch (the Ω-EC
    emulation's dynamics are exercised in [test/test_fd.ml] and the chaos
    harness; here the leader only steers digest fan-out). *)
val ec_store :
  n:int ->
  ( Ec.Replica.state,
    Ec.Replica.msg,
    Sim.Pid.t * int,
    Ec.Replica.input,
    Ec.Replica.output )
  Harness.target

(** The chain-ordered ◇S ring detector ({!Fd.Emulated.Omega_ring}) checked
    as an implementation, not an oracle: the detector's own emulated layer
    runs as the protocol under test (period 1, unit detector input), with
    its leader estimate emitted as an output on every change.  Eventual
    leader agreement is the invariant: a run stops — vacuously clean — the
    moment every correct process's last estimate is the smallest {e
    correct} id (so pre-crash agreement on a process that is due to crash
    does not end the run), and a run that exhausts the step budget without
    reaching that agreement is reported as a violation
    ([require_termination]).  Exhausts clean at [n = 3] under the default
    crash adversary (docs/DETECTORS.md). *)
val fd_ring :
  n:int ->
  ( Fd.Emulated.Omega_ring.state * Sim.Pid.t option,
    Fd.Emulated.Omega_ring.msg,
    unit,
    unit,
    Sim.Pid.t )
  Harness.target

(** Existentially packed target, for name-indexed lookup from the CLI. *)
type packed = Packed : ('st, 'msg, 'fd, 'inp, 'out) Harness.target -> packed

(** Renderer for ABD outputs (shared with the net-stack targets of
    {!Net_targets}). *)
val pp_abd_out : Format.formatter -> int Regs.Abd.output -> unit

(** Renderer for EC fingerprint outputs (shared with {!Net_targets}). *)
val pp_fp_out : Format.formatter -> Ec.Replica.output -> unit

val all : n:int -> (string * packed) list

val find : string -> n:int -> packed option

(** The registry's target names. *)
val names : string list
