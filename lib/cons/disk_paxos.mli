(** Consensus from registers + Ω in any environment — the shared-memory
    substrate the paper invokes from Lo–Hadzilacos [19].

    The algorithm is single-decree Disk Paxos (Gafni–Lamport) specialised to
    one reliable "disk" made of [n + 1] atomic registers: register [p]
    ([0 <= p < n]) is process [p]'s block, register [n] holds the decision.
    A process that trusts itself per Ω runs ballots; everybody else polls
    the decision register.  Safety holds under any failure pattern and any
    scheduling; termination follows once Ω stabilises on one correct
    leader.

    Run it directly on {!Regs.Shm}, or transport it to message passing with
    {!Regs.Emulate} to obtain the paper's Corollary 2: consensus from
    (Ω, Σ) in any environment. *)

(** Register contents. *)
type 'v reg =
  | Block of { mbal : int; bal : int; inp : 'v option }
  | Decision of 'v

type 'v state

(** [registers ~n] is the number of registers the algorithm needs. *)
val registers : n:int -> int

(** The shared-memory protocol.  Failure detector input: Ω (a leader id).
    Inputs are proposals; each process outputs its decision exactly once. *)
val proto : ('v state, 'v reg, Sim.Pid.t, 'v, 'v) Regs.Shm.proto
