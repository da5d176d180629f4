(** Binary wire codecs for the EC stack, in the {!Net.Codecs} idiom
    (u8 tags, varints, length-prefixed nested values).

    Layouts: an {e entry} is [value (nested), lamport (varint), origin
    (varint), vc (varint list)]; anti-entropy traffic is tagged
    0 = [Digest], 1 = [Delta], 2 = [Push]; the layered replica message is
    0 = Ω-EC heartbeat, 1 = anti-entropy; the {!mixed} node message is
    0 = SMR tower (nested {!Net.Codecs.pmsg}), 1 = EC tower. *)

val entry : Entry.t Net.Wire.codec

(** Anti-entropy traffic of {!Replica}. *)
val msg : Replica.msg Net.Wire.codec

(** The full mixed-consistency node message of {!Mixed.protocol}:
    the whole SMR tower and the whole EC tower under one tag. *)
val mixed :
  'c Net.Wire.codec ->
  ( ( (Fd.Emulated.Omega.msg, Fd.Emulated.Sigma_majority.msg)
      Sim.Layered.wire,
      'c Cons.Smr.msg )
    Sim.Layered.wire,
    (Fd.Emulated.Omega_ec.msg, Replica.msg) Sim.Layered.wire )
  Sim.Layered.wire
  Net.Wire.codec
