(** The real-socket transport backend: length-prefixed frames over TCP or
    Unix-domain stream sockets, driven by a [poll(2)] event loop
    ({!Poll.wait}) that lives inside {!Transport.t}[.poll].

    Topology: every node listens on its own address and opens one outbound
    connection to each peer, so each ordered pair of nodes has a dedicated
    unidirectional byte stream (no duplex identification problems; a
    connection's direction is its meaning).  An outbound connection opens
    with a {!Wire.hello} frame naming the sender, written whole at
    connect (a connection whose socket will not take it goes down and
    backs off); the acceptor answers with a single {!Wire.hello_ack} —
    the only bytes ever written on an accepted connection — and only
    that completed exchange counts as established: it resets the
    reconnect backoff and clears the peer from [stats.down].

    Outbound frames sit in one {!Wire.Writer} per peer, which lives
    across reconnects and holds at most 4 MiB (a frame past that is
    dropped and counted in [stats.dropped]).  A frame leaves the writer
    only once fully written to the kernel, and a lost connection
    rewinds it ({!Wire.Writer.rewind}), so a connection lost mid-frame
    retransmits that frame from its first byte on the next connection
    (the receiver discards the dead connection's partial decode state
    with the connection).  Reconnection backs off exponentially
    ([0.05s .. 2s]); a peer with a failed connection is reported in
    {!Transport.stats}[.down].  Delivery is therefore reliable in order
    while the destination process lives — the paper's link — and frames
    to a crashed destination are eventually dropped at the cap. *)

(** [create ~self ~addrs ()] binds [addrs.(self)] and returns the
    transport.  [addrs] must all be [ADDR_UNIX] or all [ADDR_INET].
    @raise Unix.Unix_error if the listen address cannot be bound. *)
val create :
  self:Sim.Pid.t ->
  addrs:Unix.sockaddr array ->
  unit ->
  Transport.t
