(** The in-process transport backend: a hub of per-destination queues,
    the one in-memory link of the clusters, the chaos harnesses, the
    benchmark and the model checker.

    Deterministic.  Without a scheduler a poll takes the head of the
    queue, so delivery order is exactly send order per destination —
    which is what lets tests and benchmarks drive a whole cluster
    cooperatively (round-robin {!Node.step} calls) and get reproducible
    runs, the loopback half of the sim-vs-net fidelity story
    (docs/NET.md).  With a scheduler ([Mc.Net_harness]) every poll with
    more than one candidate frame is a [Sim.Scheduler.Deliver_pick]
    choice point instead, so an explorer can enumerate the delivery
    interleavings of real {!Node}/{!Rel} code:

    - default ([reorder = false]): one candidate per sending peer, its
      oldest undelivered frame — per-link FIFO order is preserved, the
      only nondeterminism is cross-sender interleaving (the reliable
      in-order links the paper assumes);
    - [reorder = true]: one candidate per pending {e frame} (a sender
      appears once per frame, queue order), so the scheduler can also
      deliver a link's frames out of order — the lossy regime {!Rel}
      exists to repair.

    A poll with one candidate consumes no choice (schedules stay
    compact).  Under {!Sim.Scheduler.first} every pick is the head of
    the queue, so that hub delivers exactly what the FIFO hub delivers.

    The hub doubles as the fault injector, applied between steps by
    whatever drives it: {!crash} silences a node (a crashed process),
    {!block}/{!unblock} delay a node's outbound frames (an asynchronous
    period: frames are held, not lost, and released in order on unblock
    — a resend racing its late original, or how the detector tests
    provoke false suspicion), {!dup_next} duplicates and {!drop_next}
    loses a node's next outbound frame (the faults {!Rel} repairs).

    Not thread-safe: one domain drives a hub. *)

type hub

(** [create ?sched ?reorder ~n ()] builds the hub.  [sched] resolves
    delivery picks (default: none, every poll takes the head);
    [reorder] (default [false]) offers every pending frame to it. *)
val create : ?sched:Sim.Scheduler.t -> ?reorder:bool -> n:int -> unit -> hub

(** [endpoint hub p] is [p]'s transport.  One per pid. *)
val endpoint : hub -> Sim.Pid.t -> Transport.t

(** [crash hub p]: [p] stops.  Its polls return nothing, and frames it
    sends from now on, or that are sent to it, are dropped.  Frames [p]
    sent before the crash still arrive, as a crashed process's messages
    already on the wire do. *)
val crash : hub -> Sim.Pid.t -> unit

val crashed : hub -> Sim.Pid.t -> bool

(** [block hub p]: hold [p]'s outbound frames instead of delivering. *)
val block : hub -> Sim.Pid.t -> unit

(** [unblock hub p]: release the held frames, in send order, and
    deliver normally. *)
val unblock : hub -> Sim.Pid.t -> unit

(** Duplicate the next frame [p] sends to a peer (both copies
    enqueue).  Self-sends never arm or consume the flag: faults model
    the network, which a self-delivery does not cross. *)
val dup_next : hub -> Sim.Pid.t -> unit

(** Drop the next frame [p] sends to a peer — a one-shot lossy link.
    Self-sends are exempt, as for {!dup_next}. *)
val drop_next : hub -> Sim.Pid.t -> unit

(** Frames a live node can still receive: queued for a live node, or
    held by a live sender for one.  A crash cannot hold off quiescence. *)
val in_flight : hub -> int

(** Total frames ever delivered through the hub. *)
val delivered : hub -> int

(** Total frames ever handed to the hub by senders.  Exceeds
    {!delivered} by the frames still queued (each node receives at most
    one frame per step, so an all-to-all sender population can outrun
    the receivers) plus the frames dropped at crashed endpoints —
    benches that want the {e offered} wire cost rather than the drained
    one read this side. *)
val sent : hub -> int

(** Deep digest of the hub state for visited-state pruning: queued and
    held frames in send order, then the blocked, crashed, duplicate and
    drop flags. *)
val digest : hub -> int
