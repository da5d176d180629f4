(** Two-phase commit — the classical *blocking* baseline (Gray [10]).

    Process 0 is always the coordinator: participants send it their votes; it
    decides Commit iff all [n] votes are Yes and broadcasts the outcome.
    A participant that votes No aborts unilaterally.  No failure detector
    is used: if the coordinator crashes before broadcasting, every waiting
    participant blocks forever — the exact gap NBAC (and its (Ψ, FS)
    detector) closes, shown in experiment E10. *)

type state
type msg

val protocol : (state, msg, unit, Types.vote, Types.outcome) Sim.Protocol.t
