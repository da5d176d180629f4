(** The transport abstraction of the [net] runtime: asynchronous, reliable
    point-to-point byte channels between the [n] nodes of one cluster —
    the paper's links, implemented twice.

    {!Tcp} runs over real sockets (TCP or Unix-domain) with a
    [poll(2)] event loop, per-peer outbound queues, reconnection with
    exponential backoff and liveness accounting.  {!Loopback} is a
    deterministic in-process hub for tests and benchmarks.  The node main
    loop ({!Node}) is written against this record only. *)

type stats = {
  sent : int;  (** frames handed to the transport *)
  delivered : int;  (** frames handed to the node *)
  reconnects : int;  (** outbound connections re-established *)
  dropped : int;  (** frames dropped (outbound queue cap, dead peers) *)
  down : Sim.Pidset.t;
      (** peers currently unreachable at the transport level (connection
          refused / reset and not yet re-established).  Advisory: the
          protocol-level failure detectors are driven by heartbeats, not by
          this set. *)
}

type t = {
  self : Sim.Pid.t;
  n : int;
  send : Sim.Pid.t -> bytes -> unit;
      (** enqueue one frame to a peer (asynchronous, never blocks; frames
          to [self] are delivered locally) *)
  poll : timeout_ms:int -> (Sim.Pid.t * bytes) option;
      (** next inbound frame, waiting at most [timeout_ms] (0 = don't
          wait).  Progresses connection management as a side effect. *)
  stats : unit -> stats;  (** current accounting snapshot *)
  close : unit -> unit;
      (** release sockets / queues; the transport is unusable afterwards *)
}
