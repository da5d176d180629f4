(** A whole cluster in one process over the {!Loopback} transport, driven
    cooperatively (round-robin, one step per node per round).

    Deterministic — the loopback hub delivers in send order — so tests
    assert exact agreement and benchmarks measure protocol cost without
    socket noise.  {!cluster_crash} kills a node mid-run exactly like the
    demo's SIGKILL: its frames stop, its steps stop, and the survivors'
    detectors notice by missing heartbeats.

    One driver API runs {e any} [Sim.Protocol.t]: {!make} builds the
    cluster, the [cluster_*] functions drive and observe it.  This is
    what lets [Shard.Cluster] host many independent replica groups, one
    such cluster per shard, with one copy of the round-robin loop.
    {!create} is {!make} applied to the string SMR node,
    {!Smr_node.protocol}, on its binary codec. *)

type ('st, 'msg, 'inp, 'out) cluster

(** [make ~codec ~n proto] builds [n] replicas of [proto] over a fresh
    hub; every frame the hub carries is encoded by [codec].
    [sink p] optionally installs a tracing sink per node.
    [wrap p t] interposes on each node's transport before the node is
    built — this is how {!Chaos} (and the shard chaos harness) stack
    [Rel.wrap] and {!Nemesis.wrap} between the protocol and the hub.
    [metrics] with [classify] feeds every node's
    [fd.frames{detector=...}] counters (see {!Node.create}). *)
val make :
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Transport.t -> Transport.t) ->
  codec:'msg Wire.codec ->
  ?metrics:Obs.Metrics.t ->
  ?classify:('msg -> string option) ->
  n:int ->
  ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t ->
  ('st, 'msg, 'inp, 'out) cluster

val cluster_hub : _ cluster -> Loopback.hub

(** One step of a single node, if live ({!Chaos} uses this to slow a
    skewed node's clock by stepping it only every k-th round). *)
val cluster_step_one : _ cluster -> Sim.Pid.t -> unit

(** One round: every live node takes one step (pid order). *)
val cluster_step : _ cluster -> unit

val cluster_run : _ cluster -> rounds:int -> unit

(** [cluster_submit t p c]: inject input [c] at node [p] (its next
    step). *)
val cluster_submit : (_, _, 'inp, _) cluster -> Sim.Pid.t -> 'inp -> unit

(** Kill a node: no more steps, and frames sent to it or by it from now
    on vanish ({!Loopback.crash}). *)
val cluster_crash : _ cluster -> Sim.Pid.t -> unit

val cluster_crashed : _ cluster -> Sim.Pid.t -> bool

(** The pids not crashed, in pid order. *)
val cluster_live : _ cluster -> Sim.Pid.t list

(** Outputs emitted by [p] so far, oldest first — for the SMR node, the
    decided entries [p] applied, in slot order. *)
val cluster_outputs : (_, _, _, 'out) cluster -> Sim.Pid.t -> 'out list

val cluster_state : ('st, _, _, _) cluster -> Sim.Pid.t -> 'st

(** Local step counter of [p] (= rounds it has taken). *)
val cluster_now : _ cluster -> Sim.Pid.t -> int

(** {2 The SMR node} *)

type 'c t =
  ('c Smr_node.pstate, 'c Smr_node.pmsg, 'c, int * 'c Cons.Smr.cmd) cluster

(** [create ~n ()] builds [n] replicas of {!Smr_node.protocol} on the
    binary codec tower (the hub carries encoded frames, so loopback
    benches measure real encode/decode cost).  [period] is Ω's heartbeat
    period in steps (default 16); [window] / [batch_max] are
    {!Cons.Smr.make}'s pipelining and batching knobs (defaults 1 /
    1024); [detector] selects the Ω backend, which sets Σ's pacing
    (see {!Smr_node.default_sigma_period}); [metrics] enables the
    [fd.frames{detector=...}] counters via {!Smr_node.classify}. *)
val create :
  ?period:int ->
  ?window:int ->
  ?batch_max:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Transport.t -> Transport.t) ->
  ?metrics:Obs.Metrics.t ->
  n:int ->
  unit -> string t
