(** TCP deployment of one shard replica: {!Replica.protocol} hosted by
    [Net.Smr_node.serve]'s event loop, peers on {!Replica.codec}, with
    the shard's framed binary client protocol.

    [Submit] requests enter the shard's replicated log — the
    client receives the standard [(seq, slot)] frame when its entry is
    decided.  [Read] is answered immediately from local state with the
    [(epoch, applied, last write)] sample, so a client-side router can
    run the quorum-read (phase 1 sample + phase 2 write-back wait)
    against a member majority — the same algorithm {!Router} runs
    in-process.  [bin/cluster.exe shard --transport tcp] is the driver:
    one OS process per replica per shard. *)

type request = Submit of Replica.payload | Read of { key : string }

(** The sample behind {!Router.view}. *)
type read_reply = {
  rr_epoch : int;
  rr_applied : int;
  rr_value : (int * string) option;
}

(** The binary client frames: a tag byte, then the fields (docs/NET.md).
    A [Submit] is its payload's binary form ({!Replica.write_payload},
    tags 0 and 1); [Read] is tag 2, then the key.  Decoding raises
    [Net.Wire.Decode_error] on any malformed frame, so a bad request
    closes only that client's connection. *)
val request_codec : request Net.Wire.codec

val read_reply_codec : read_reply Net.Wire.codec

(** The hosting contract for [Net.Smr_node.serve]. *)
val impl :
  ?snap_every:int ->
  ?lag_gap:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  period:int ->
  members:Sim.Pidset.t ->
  unit ->
  (Replica.state, Replica.payload) Net.Smr_node.impl

(** Run one shard replica until SIGTERM ([cfg.period] paces Ω;
    [cfg.detector] picks the Ω backend). *)
val serve :
  ?snap_every:int ->
  ?lag_gap:int ->
  members:Sim.Pidset.t ->
  Net.Smr_node.config ->
  unit
