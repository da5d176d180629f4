(** The in-process sharded service: [shards] replica groups of
    [replicas] members (+ [spares] installable by reconfiguration), each
    a {!Net.Local} cluster of {!Replica.protocol} over its own loopback
    hub carrying {!Replica.codec} frames, as the TCP deployment does; a
    {!Ring} partitioning the keyspace; and a {!Router} front-end.

    Groups are fully independent — no shared state, no cross-shard
    messages; {!step} drives them all, one round each.  Not thread-safe:
    one domain drives a cluster. *)

type t

(** One shard's replica group: pids [0 .. replicas-1] form the epoch-0
    configuration, the rest are spares.  The [Net.Local.cluster_*]
    functions drive and observe it. *)
type group =
  (Replica.state, Replica.msg, Replica.payload, Replica.entry) Net.Local.cluster

(** [sink] and [wrap] are per-shard versions of [Net.Local.make]'s
    parameters — [wrap ~shard p tr] lets the chaos harness stack
    [Rel]/[Nemesis] per shard. *)
val create :
  ?period:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  ?sink:(shard:int -> Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(shard:int -> Sim.Pid.t -> Net.Transport.t -> Net.Transport.t) ->
  shards:int ->
  replicas:int ->
  ?spares:int ->
  unit ->
  t

val group : t -> int -> group
val ring : t -> Ring.t

(** The highest-epoch configuration any live replica of the group has
    installed. *)
val config : group -> Epoch.config

(** Submit at the lowest live member of the group's current
    configuration; false if no member is live. *)
val submit_any : group -> Replica.payload -> bool

(** The longest applied prefix over the group's live replicas. *)
val applied_max : group -> int

(** One round of every group, sequentially. *)
val step : t -> unit

val run : t -> rounds:int -> unit

(** A fresh router over this cluster's groups. *)
val router : t -> Router.t

(** The shard-reach callbacks for building custom routers. *)
val ops : t -> int -> Router.ops

(** Submit the [Reconfig] that installs [next] (normally
    {!Epoch.rotate} of the shard's configuration) through shard
    [shard]'s own log; false if no live member accepted the command. *)
val reconfig : t -> shard:int -> Epoch.config -> bool

(** Sum over shards of the longest live applied log. *)
val applied_total : t -> int
