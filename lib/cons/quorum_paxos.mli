(** Native message-passing consensus from (Ω, Σ) — Corollary 2, implemented
    directly as a single-decree Paxos whose "majority" is replaced by Σ
    quorums.

    The process Ω designates runs ballots: a prepare round, then an accept
    round; each round completes when the set of responders includes one
    quorum sampled from Σ in the current step.  Quorum intersection gives
    uniform agreement in any environment; Ω's eventual single correct
    leader plus Σ's eventual all-correct quorums give termination.

    A deciding process sends [Decide] only to processes that may still
    be undecided: the leader to the [n - 1] others, and a process that
    learns the value from [q]'s [Decide] to the [n - 2] that are neither
    [q] nor itself.  That relay is what carries a decision to every
    correct process when the leader crashes mid-broadcast.

    Compare with {!Disk_paxos} transported by {!Regs.Emulate}: same failure
    detector, same guarantees, but this version talks to the network
    directly and needs ~4 message delays per ballot instead of ~4 register
    operations (each itself two quorum round-trips). *)

type 'v state

(** The message vocabulary is public so hosts can give it a binary wire
    representation (see [Net.Codecs]); treat it as read-only — construct
    and interpret these only inside this module. *)
type 'v msg =
  | Prepare of int
  | Promise of int * (int * 'v) option
  | Propose of int * 'v
  | Accept of int
  | Nack of int
  | Decide of 'v

(** Failure detector input: (Ω leader, Σ quorum).  Inputs: proposals.
    Outputs: each process's decision, exactly once. *)
val protocol :
  ('v state, 'v msg, Sim.Pid.t * Sim.Pidset.t, 'v, 'v) Sim.Protocol.t

(** Highest ballot a process ever started — exposed for benches. *)
val ballots_started : 'v state -> int
