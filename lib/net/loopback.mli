(** The in-process transport backend: a hub of per-destination FIFO queues.

    Deterministic — delivery order is exactly send order per destination —
    which is what lets tests and benchmarks drive a whole cluster
    cooperatively (round-robin {!Node.step} calls) and get reproducible
    runs, the loopback half of the sim-vs-net fidelity story (docs/NET.md).

    The hub doubles as the fault injector of the real-transport semantics:
    {!crash} silences a node (its frames, in both directions, vanish — a
    crashed process), {!block}/{!unblock} delay a node's outbound frames
    (an asynchronous period: frames are buffered, not lost, and flushed in
    order on unblock — how the detector tests provoke false suspicion).

    Not thread-safe: one domain drives a hub. *)

type hub

val create : n:int -> hub

(** [endpoint hub p] is [p]'s transport.  One per pid. *)
val endpoint : hub -> Sim.Pid.t -> Transport.t

(** [crash hub p]: drop every frame from or to [p] from now on. *)
val crash : hub -> Sim.Pid.t -> unit

val crashed : hub -> Sim.Pid.t -> bool

(** [block hub p]: buffer [p]'s outbound frames instead of delivering. *)
val block : hub -> Sim.Pid.t -> unit

(** [unblock hub p]: flush the buffer, in order, and deliver normally. *)
val unblock : hub -> Sim.Pid.t -> unit

(** Total frames ever delivered through the hub. *)
val delivered : hub -> int

(** Total frames ever handed to the hub by senders.  Exceeds
    {!delivered} by the frames still queued (each node receives at most
    one frame per step, so an all-to-all sender population can outrun
    the receivers) plus the frames dropped at crashed endpoints —
    benches that want the {e offered} wire cost rather than the drained
    one read this side. *)
val sent : hub -> int
