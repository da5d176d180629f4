(** The Chandra–Toueg ◇S rotating-coordinator consensus [4] — the classical
    *majority-correct* baseline the paper generalises away from.

    Round [r] is coordinated by process [r mod n]: participants send their
    timestamped estimates to the coordinator, which picks the most recent
    one and proposes it; participants either adopt-and-ack or, if their ◇S
    module suspects the coordinator, nack and move on.  A coordinator that
    gathers a majority of acks decides and reliably broadcasts the decision.

    Safe and live when a majority of processes is correct; with half or
    more faulty, coordinators can never gather a majority and the algorithm
    *blocks* — exactly the gap (Ω, Σ) closes (experiment E10). *)

type 'v state
type 'v msg

(** Failure detector input: a ◇S suspect set.  Inputs: proposals.
    Outputs: decisions, once per process. *)
val protocol : ('v state, 'v msg, Sim.Pidset.t, 'v, 'v) Sim.Protocol.t
