(** The failure detector Ψ — the weakest to solve quittable consensus.

    For an initial period the output is [Bot].  Eventually it behaves either
    like (Ω, Σ) at all processes, or — only if a failure previously
    occurred — like FS at all processes.  The switch need not be
    simultaneous, but all processes make the same choice. *)

type output =
  | Bot  (** the initial ⊥ period *)
  | Fs_mode of Fs.output
  | Cons_mode of Omega.output * Sigma.output

(** Which branch a Ψ history eventually takes. *)
type mode = Consensus_mode | Failure_mode

(** Standard oracle: failure-free patterns always take [Consensus_mode];
    patterns with failures flip a fair coin.  Switch times are random; in
    [Failure_mode] they are strictly after the first crash, per the spec. *)
val oracle : output Oracle.t

(** [oracle_forced mode] forces the eventual mode.  Generation fails
    ([invalid_arg]) when [Failure_mode] is requested for a failure-free
    pattern. *)
val oracle_forced : mode -> output Oracle.t

(** [check fp ~horizon h] verifies the Ψ specification on a finite prefix:
    per-process ⊥-prefix shape, a common mode across processes, switch after
    the first crash in [Failure_mode], and the sub-specifications of FS
    resp. (Ω, Σ) on the post-switch samples. *)
val check :
  Sim.Failure_pattern.t -> horizon:int -> output Oracle.history ->
  (unit, string) result
