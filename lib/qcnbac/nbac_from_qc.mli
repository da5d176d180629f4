(** NBAC from QC and FS — Figure 4 / Theorem 8(a).

    Each process broadcasts its vote and waits until it has everybody's
    vote or its FS module turns red.  It then proposes 1 (all voted Yes) or
    0 (a No vote or a failure) to quittable consensus, and maps the QC
    decision: 1 becomes Commit, 0 or Q becomes Abort.

    The QC box is {!Qc_psi}, so the composite uses the failure detector
    (Ψ, FS) — which Corollary 10 proves is the weakest to solve NBAC. *)

type state
type msg

(** Failure detector input: (Ψ, FS).  Inputs: votes.  Outputs: the
    outcome, once per process. *)
val protocol :
  (state, msg, Fd.Psi.output * Fd.Fs.output, Types.vote, Types.outcome)
  Sim.Protocol.t
