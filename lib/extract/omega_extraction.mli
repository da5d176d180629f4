(** Extracting Ω from any consensus algorithm — the Chandra–Hadzilacos–
    Toueg result [3] that the paper's Corollary 3 builds on ("any failure
    detector that can be used to solve consensus can be transformed to Ω",
    valid in all environments).

    This is the Figure 3 machinery restricted to consensus: decisions range
    over {0, 1} only, so a critical index always exists (tree 0 is 0-valent
    at the root, tree n is 1-valent), and the extraction never needs the
    red branch.  The algorithm-under-test is the (Ω, Σ) quorum Paxos, the
    detector-under-test its (Ω, Σ) oracle — extraction then recovers a
    leader stream that must satisfy the Ω specification, closing the loop:
    the consensus algorithm really carries the full strength of Ω. *)

type result = {
  outputs : Sim.Pid.t Sim.Trace.event list;
      (** round [r]'s extracted leader ([r = 1 .. rounds]) at every
          process alive at the round's horizon [r * chunk], stamped there,
          oldest round first *)
  horizon : int;  (** the last round's horizon, [rounds * chunk] *)
}

(** [run ~fp ~seed ~rounds ~chunk] builds the sample DAG of the (Ω, Σ)
    oracle, simulates the consensus forest, and extracts a leader per
    round.  The stream is judged by {!Fd.Omega.check} through
    {!Fd.Oracle.of_outputs} at [horizon]. *)
val run :
  fp:Sim.Failure_pattern.t -> seed:int -> rounds:int -> chunk:int -> result
