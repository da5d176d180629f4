(** The mixed-consistency node: the full (Ω, Σ) SMR stack and the
    detector-layered EC replica composed side by side with
    {!Sim.Layered.product} into one unchanged-over-the-wire protocol —
    one [Node], one transport, two consistency levels.

    Clients pick per request: {!Lin} enters the replicated log and blocks
    on consensus (needs a live majority); {!Eput}/{!Eget} are served from
    the local {!Store} immediately, in {e any} partition.  The eventual
    put is applied through {!Net.Node.apply_input} before its reply is
    computed, so a session pinned to one node gets read-your-writes. *)

type ec_state = Fd.Emulated.Omega_ec.state * Replica.state
type ec_msg = (Fd.Emulated.Omega_ec.msg, Replica.msg) Sim.Layered.wire

type state = string Net.Smr_node.pstate * ec_state
type msg = (string Net.Smr_node.pmsg, ec_msg) Sim.Layered.wire

(** [Detector] = SMR client command, [Main] = EC store operation
    ({!Sim.Layered.product}'s side tags). *)
type input = (string, Replica.input) Sim.Layered.wire

type output = (int * string Cons.Smr.cmd, Replica.output) Sim.Layered.wire

(** The SMR side batches up to {!Cons.Smr.make}'s default; the EC side
    emits no fingerprints. *)
val protocol :
  ?window:int ->
  ?sync_every:int ->
  period:int ->
  unit ->
  (state, msg, unit, input, output) Sim.Protocol.t

(** Views into the layers, for harnesses and status lines. *)
val smr_state : state -> string Cons.Smr.state

val ec_detector : state -> Fd.Emulated.Omega_ec.state
val store : state -> Store.t

(** Client request frames: first byte is the consistency level —
    0 linearizable, 1 eventual put, 2 eventual get. *)
type request =
  | Lin of string
  | Eput of { key : string; value : string }
  | Eget of { key : string }

(** Decoding raises [Net.Wire.Decode_error] on a malformed frame. *)
val request_codec : request Net.Wire.codec

(** Eventual-path replies ([Lin] replies ride the standard
    {!Net.Smr_node.decode_reply} format when the command decides). *)
type ereply =
  | Put_ack of { lamport : int; origin : Sim.Pid.t }
  | Get_hit of { value : string; lamport : int; origin : Sim.Pid.t }
  | Get_miss

(** Decoding raises [Net.Wire.Decode_error] on a malformed frame. *)
val ereply_codec : ereply Net.Wire.codec

(** The deployable mixed node for {!Net.Smr_node.serve}, on the
    {!Codecs.mixed} binary tower. *)
val impl :
  ?window:int ->
  ?sync_every:int ->
  period:int ->
  unit ->
  (state, string) Net.Smr_node.impl
