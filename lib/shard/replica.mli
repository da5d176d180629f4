(** The reconfigurable shard replica: SMR under (Ω, Σ) with epoch-based
    membership change and snapshot catch-up — one ordinary
    [Sim.Protocol.t], so it runs unchanged over {!Net.Local},
    {!Net.Tcp} (via [Server]) or in the simulator.

    It is [Sim.Layered.with_detector ~feedback] over the pair (Ω,
    epoch-aware Σ), with Ω's leader restricted to current members.  The
    main layer is [Cons.Smr] plus snapshot catch-up and the key-value
    view; [feedback] installs each applied {!payload.Reconfig} into Σ
    ([Sigma_epoch.set_config]).  Membership change thus rides the shard's
    own decided log: every replica hands its Σ quorum over at the same
    slot (docs/SHARDING.md spells out the safety argument).

    Catch-up: a replica that notices peers deciding slots far ahead of
    its applied prefix ([lag_gap]) broadcasts [Snap_req]; any replica
    holding the decided run answers with [Snap], installed idempotently
    via [Cons.Smr.install].  This is how a freshly installed member joins
    without re-running every consensus instance. *)

type payload =
  | App of { key : string; value : string }  (** a keyed write *)
  | Reconfig of { epoch : int; members : Sim.Pid.t list }
      (** install configuration [epoch] (must be current + 1; anything
          else is a deterministic no-op on every replica) *)

type cmd = payload Cons.Smr.cmd
type entry = int * cmd

(** The main layer's messages. *)
type main_msg =
  | Smr of payload Cons.Smr.msg
  | Snap_req of { since : int }
      (** send me decided batches from instance [since] *)
  | Snap of (int * cmd list) list
      (** a gapless decided run of instance batches *)

(** Detector traffic (Ω, Σ) and main-layer traffic. *)
type msg =
  ( (Fd.Emulated.Omega.msg, Fd.Emulated.Sigma_epoch.msg) Sim.Layered.wire,
    main_msg )
  Sim.Layered.wire

type state

(** Inputs are client payloads; outputs are decided [(slot, cmd)] entries
    in slot order.  [period] is Ω's heartbeat period (local steps);
    [detector] picks the Ω backend (default [Heartbeat] — the ring
    backend drops shard detector traffic to one frame per replica per
    period, docs/DETECTORS.md); [members] the epoch-0 member set;
    [snap_every] throttles snapshot requests; [lag_gap] is how far
    behind the wire's highest seen slot a replica must be before asking
    (default 24). *)
val protocol :
  ?snap_every:int ->
  ?lag_gap:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  period:int ->
  members:Sim.Pidset.t ->
  unit ->
  (state, msg, unit, payload, entry) Sim.Protocol.t

(** {2 Views} (tests, router sampling, status lines) *)

val smr_state : state -> payload Cons.Smr.state
val sigma_state : state -> Fd.Emulated.Sigma_epoch.state
val config : state -> Epoch.config
val epoch : state -> int

(** Applied log length — the per-key read path's write-back tag. *)
val applied : state -> int

(** [kv_find st key] is the last applied write to [key] as
    [(slot, value)] — the ABD-style tagged read sample. *)
val kv_find : state -> string -> (int * string) option

val snaps_served : state -> int
val snaps_installed : state -> int

val payload_to_string : payload -> string

(** {2 Wire} (layouts in docs/NET.md)

    The binary peer codec; decoding raises [Net.Wire.Decode_error] on any
    malformed frame. *)
val codec : msg Net.Wire.codec

(** A payload's binary form, also the shard client's request frame: u8
    tag 0 [App] or 1 [Reconfig], then the fields.  [read_payload tag r]
    reads the fields after the tag byte [tag]. *)
val write_payload : Buffer.t -> payload -> unit

val read_payload : int -> Net.Wire.R.t -> payload
