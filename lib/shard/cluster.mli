(** The in-process sharded service: [shards] replica groups of
    [replicas] members (+ [spares] installable by reconfiguration) over
    one loopback hub {e each}, a {!Ring} partitioning the keyspace, and
    a {!Router} front-end.

    Groups are fully independent — no shared state, no cross-shard
    messages; {!step} drives them all, one round each. *)

type t

(** [sink] and [wrap] are per-shard versions of [Net.Local.make]'s
    parameters — [wrap ~shard p tr] lets the chaos harness stack
    [Rel]/[Nemesis] per shard. *)
val create :
  ?period:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  ?snap_every:int ->
  ?lag_gap:int ->
  ?points:int ->
  ?sink:(shard:int -> Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(shard:int -> Sim.Pid.t -> Net.Transport.t -> Net.Transport.t) ->
  shards:int ->
  replicas:int ->
  ?spares:int ->
  unit ->
  t

val shards : t -> int
val replicas : t -> int
val spares : t -> int
val group : t -> int -> Group.t
val ring : t -> Ring.t

(** One round of every group, sequentially. *)
val step : t -> unit

val run : t -> rounds:int -> unit

(** A fresh router over this cluster's groups. *)
val router : t -> Router.t

(** The shard-reach callbacks for building custom routers. *)
val ops : t -> int -> Router.ops

(** Submit [Reconfig {epoch = current + 1; members}] through shard
    [shard]'s own log; false if no live member accepted the command. *)
val reconfig : t -> shard:int -> members:Sim.Pid.t list -> bool

(** The canonical rotation: drop the lowest member, add the lowest
    spare.  [None] if no spare is available. *)
val rotated_members : t -> shard:int -> Sim.Pid.t list option

(** Sum over shards of the longest live applied log. *)
val applied_total : t -> int
