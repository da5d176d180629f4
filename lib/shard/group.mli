(** One shard's replica group: [universe] copies of {!Replica.protocol}
    over a private loopback hub ([Net.Local]'s generic core) that
    carries {!Replica.codec} frames, as the TCP deployment does, of which
    the epoch-0 [members] form the initial configuration — the rest are
    spares a [Reconfig] can install later.  Not thread-safe: one domain
    drives a group. *)

type t

val create :
  ?period:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  ?snap_every:int ->
  ?lag_gap:int ->
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Net.Transport.t -> Net.Transport.t) ->
  id:int ->
  universe:int ->
  members:Sim.Pidset.t ->
  unit ->
  t

val id : t -> int
val universe : t -> int

(** One round: every live replica takes one step. *)
val step : t -> unit

val step_one : t -> Sim.Pid.t -> unit
val run : t -> rounds:int -> unit

(** Inject payload [c] at replica [p]. *)
val submit : t -> Sim.Pid.t -> Replica.payload -> unit

val crash : t -> Sim.Pid.t -> unit
val crashed : t -> Sim.Pid.t -> bool
val live : t -> Sim.Pid.t list

(** Decided entries applied by [p] so far, in slot order. *)
val applied_log : t -> Sim.Pid.t -> Replica.entry list

val state : t -> Sim.Pid.t -> Replica.state
val now : t -> Sim.Pid.t -> int

(** The highest-epoch configuration any live replica has installed. *)
val config : t -> Epoch.config

(** Replica [p]'s quorum-read sample for [key]; [None] if crashed. *)
val sample : t -> Sim.Pid.t -> key:string -> Router.view option

(** Submit at the lowest live member of the current configuration;
    false if no member is live. *)
val submit_any : t -> Replica.payload -> bool

(** Min/max applied prefix length over live replicas. *)
val applied_min : t -> int

val applied_max : t -> int
