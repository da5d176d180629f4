(** A whole cluster in one process over the {!Loopback} transport, driven
    cooperatively (round-robin, one step per node per round).

    Deterministic — the loopback hub delivers in send order — so tests
    assert exact agreement and benchmarks measure protocol cost without
    socket noise.  {!crash} kills a node mid-run exactly like the demo's
    SIGKILL: its frames stop, its steps stop, and the survivors' detectors
    notice by missing heartbeats.

    The {e generic core} ({!cluster}, {!make}, [cluster_*]) runs {e any}
    [Sim.Protocol.t] — it is what lets [Shard.Group] host many independent
    replica groups (one hub per shard) without duplicating the driver.
    The ['c t] API below is the historical SMR instantiation used by the
    demo, the chaos harness and the benches. *)

(** {2 Generic core} *)

type ('st, 'msg, 'inp, 'out) cluster

(** [make ~n proto] builds [n] replicas of [proto] over a fresh hub.
    [sink p] optionally installs a tracing sink per node.
    [wrap p t] interposes on each node's transport before the node is
    built — this is how {!Chaos} (and the shard chaos harness) stack
    [Rel.wrap] and {!Nemesis.wrap} between the protocol and the hub.
    [metrics] with [classify] feeds every node's
    [fd.frames{detector=...}] counters (see {!Node.create}). *)
val make :
  ?sink:(Sim.Pid.t -> Sim.Event.sink option) ->
  ?wrap:(Sim.Pid.t -> Transport.t -> Transport.t) ->
  ?codec:'msg Wire.codec ->
  ?metrics:Obs.Metrics.t ->
  ?classify:('msg -> string option) ->
  n:int ->
  ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t ->
  ('st, 'msg, 'inp, 'out) cluster

val cluster_hub : _ cluster -> Loopback.hub

(** One step of a single node, if live. *)
val cluster_step_one : _ cluster -> Sim.Pid.t -> unit

(** One round: every live node takes one step (pid order). *)
val cluster_step : _ cluster -> unit

val cluster_run : _ cluster -> rounds:int -> unit
val cluster_submit : (_, _, 'inp, _) cluster -> Sim.Pid.t -> 'inp -> unit
val cluster_crash : _ cluster -> Sim.Pid.t -> unit

(** Outputs emitted by [p] so far, oldest first. *)
val cluster_outputs : (_, _, _, 'out) cluster -> Sim.Pid.t -> 'out list

val cluster_state : ('st, _, _, _) cluster -> Sim.Pid.t -> 'st

(** Local step counter of [p] (= rounds it has taken). *)
val cluster_now : _ cluster -> Sim.Pid.t -> int

(** {2 The SMR instantiation} *)

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

val hub : 'c t -> Loopback.hub
val step : 'c t -> unit

(** One step of a single node, if live ({!Chaos} uses this to slow a
    skewed node's clock by stepping it only every k-th round). *)
val step_one : 'c t -> Sim.Pid.t -> unit

val run : 'c t -> rounds:int -> unit

(** [submit t p c]: inject command [c] at replica [p] (its next step). *)
val submit : 'c t -> Sim.Pid.t -> 'c -> unit

(** Kill a replica: no more steps, frames from/to it vanish. *)
val crash : 'c t -> Sim.Pid.t -> unit

(** Decided entries applied by [p] so far, in slot order. *)
val applied_log : 'c t -> Sim.Pid.t -> (int * 'c Cons.Smr.cmd) list

val state : 'c t -> Sim.Pid.t -> 'c Smr_node.pstate

(** Local step counter of [p] (= rounds it has taken). *)
val now : 'c t -> Sim.Pid.t -> int
