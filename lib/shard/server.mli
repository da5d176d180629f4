(** TCP deployment of one shard replica: {!Replica.protocol} hosted by
    [Net.Smr_node.serve]'s event loop, peers on {!Replica.codec}, with
    the shard's framed binary client protocol.

    [Submit] requests enter the shard's replicated log — the
    client receives the standard [(seq, slot)] frame when its entry is
    decided.  [Read] is answered immediately from local state with the
    replica's {!Router.view}.  The client side is {!ops}: the TCP client
    ([bin/cluster.exe shard --transport tcp], one OS process per replica
    per shard) reads with {!Router.read} over it — the quorum read
    (phase 1 sample, phase 2 write-back wait) the in-process {!Cluster}
    runs, with one [Read] round trip per sample. *)

type request = Submit of Replica.payload | Read of { key : string }

(** The binary client frames: a tag byte, then the fields (docs/NET.md).
    A [Submit] is its payload's binary form ({!Replica.write_payload},
    tags 0 and 1); [Read] is tag 2, then the key.  Decoding raises
    [Net.Wire.Decode_error] on any malformed frame, so a bad request
    closes only that client's connection. *)
val request_codec : request Net.Wire.codec

(** A [Read]'s reply: varint epoch, varint applied, then the optional
    [(varint slot, value)] of the last write. *)
val read_reply_codec : Router.view Net.Wire.codec

(** The hosting contract for [Net.Smr_node.serve]. *)
val impl :
  ?detector:Fd.Emulated.Omega.kind ->
  period:int ->
  members:Sim.Pidset.t ->
  unit ->
  (Replica.state, Replica.payload) Net.Smr_node.impl

(** Run one shard replica until SIGTERM ([cfg.period] paces Ω;
    [cfg.detector] picks the Ω backend). *)
val serve : members:Sim.Pidset.t -> Net.Smr_node.config -> unit

(** The client's {!Router.ops} for one shard over [roundtrip p frame],
    which sends an encoded {!request} to replica [p] and returns its
    reply frame.  A sample is one [Read] round trip, and [None] if the
    round trip raises [Unix.Unix_error] or [End_of_file]: over sockets
    that is how a dead replica answers, and [Router.read] needs only a
    member majority.  [submit] sends to the lowest member of [config ()]
    and returns once the entry is decided.  Whatever else [roundtrip] or
    a decoder raises propagates. *)
val ops :
  config:(unit -> Epoch.config) ->
  roundtrip:(Sim.Pid.t -> bytes -> bytes) ->
  Router.ops
