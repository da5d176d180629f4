(** The node main loop: runs one process of any {!Sim.Protocol.t} — the
    same automaton value the simulator and the model checker execute,
    unchanged — over a {!Transport.t}.

    The loop reproduces the engine's atomic-step semantics: each {!step}
    delivers the due external inputs through [on_input], then receives at
    most one message and takes one [on_step].  [ctx.now] is the node's
    local step counter (the paper's processes have no global clock; local
    step counting is what the emulated detectors' timeouts are written
    against).  Messages travel as {!Wire.envelope}s so the receiver can
    reconstruct [sent_at] (sender's step clock) and, when tracing, merge
    the sender's vector clock — a traced real run emits the same
    {!Sim.Event} vocabulary as a traced simulation, into the same
    {!Obs.Collector}.

    The driven protocol has [fd = unit]: on a real network the failure
    detector is not an oracle but an emulated layer composed underneath
    (see {!Sim.Layered.with_detector} and {!Smr_node}). *)

type ('st, 'msg, 'inp, 'out) t

(** [create ~transport proto] initialises the protocol for
    [transport.self] of [transport.n] processes.  [sink] installs event
    tracing ([track_vc] additionally maintains and ships vector clocks —
    envelope overhead, so off by default).  [codec] fixes the binary wire
    representation of ['msg]; envelopes are encoded into one reused
    scratch buffer, once per fan-out (a [Broadcast], or consecutive
    [Send]s of one physical message, as {!Sim.Protocol.map_actions}
    keeps them), and a frame the codec rejects, or whose sender is not a
    pid of the cluster, is dropped like any corrupt frame.  [metrics]
    with [classify] counts delivered frames into the
    [fd.frames{detector=...}] labeled counters: every delivered message
    [classify] maps to [Some lbl] bumps the series for [lbl] (hosts pass
    {!Smr_node.classify}), so harnesses read detector traffic off
    {!Obs.Metrics} instead of parsing traces. *)
val create :
  ?sink:Sim.Event.sink ->
  ?track_vc:bool ->
  ?render_out:('out -> string) ->
  codec:'msg Wire.codec ->
  ?metrics:Obs.Metrics.t ->
  ?classify:('msg -> string option) ->
  transport:Transport.t ->
  ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t ->
  ('st, 'msg, 'inp, 'out) t

(** Queue an external operation invocation; delivered (in order) at the
    start of the next {!step}. *)
val inject : ('st, 'msg, 'inp, 'out) t -> 'inp -> unit

(** Deliver an input {e synchronously}: run [on_input] against the current
    state and apply its actions now, without waiting for the next {!step}.
    Used by the mixed-consistency front-end so an eventual-path write is
    visible to the reply (read-your-writes) and to any pipelined read on
    the same connection. *)
val apply_input : ('st, 'msg, 'inp, 'out) t -> 'inp -> unit

(** One atomic step: inputs, then at most one receive (waiting at most
    [timeout_ms] for the transport, default 0), then [on_step].  Returns
    [true] iff the step did something beyond the empty receive — delivered
    an input or a message, or produced an action — so callers can pace
    idle loops. *)
val step : ?timeout_ms:int -> ('st, 'msg, 'inp, 'out) t -> bool

(** Outputs produced since the last call, oldest first. *)
val drain_outputs : ('st, 'msg, 'inp, 'out) t -> 'out list

(** Current protocol state (a view, not a copy — do not mutate). *)
val state : ('st, 'msg, 'inp, 'out) t -> 'st

(** Local step counter = the [ctx.now] of the next step. *)
val now : ('st, 'msg, 'inp, 'out) t -> int

(** The transport the node was created over (for stats and close). *)
val transport : ('st, 'msg, 'inp, 'out) t -> Transport.t
