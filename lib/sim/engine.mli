(** The run engine: executes a protocol against a failure pattern, a failure
    detector history and a delivery policy, producing a trace.

    Scheduling is fair by construction: time is divided into rounds; in each
    round every process that is still alive takes exactly one atomic step, in
    an order reshuffled per round.  Thus every correct process takes
    infinitely many steps in the limit, and with every policy, every message
    to a correct process is eventually delivered — the well-formedness
    conditions the paper imposes on runs. *)

type ('msg, 'fd, 'inp, 'out) config = {
  fp : Failure_pattern.t;  (** failure pattern (fixes [n] as well) *)
  fd : Pid.t -> int -> 'fd;  (** failure detector history [H(p, t)] *)
  inputs : (int * Pid.t * 'inp) list;
      (** external invocations: [(not-before-time, pid, input)] *)
  policy : Network.policy;
  seed : int;
  max_steps : int;
  stop : 'out Trace.event list -> bool;
      (** called whenever a new output is emitted, with all outputs so far,
          newest first; return [true] to end the run. *)
  detect_quiescence : bool;
      (** end the run early if nothing can change any more: no message in
          flight, no pending input, and a whole round produced no action.
          Disable for protocols that go idle between internally-timed
          retries. *)
  scheduler : Scheduler.t option;
      (** resolves every nondeterministic choice of the run (round order,
          message delays, delivery picks).  [None] means the classic
          seeded-RNG scheduler derived from [seed].  Supplying a recording
          or replaying scheduler is how the model checker enumerates and
          reproduces schedules. *)
  round_hook : (now:int -> digest:(unit -> int) -> steps:int -> bool) option;
      (** called after every completed round with the clock, a thunk
          computing a structural digest of the global state (process
          states, message buffer, pending inputs, outputs) and the number
          of process steps executed so far; return [false] to end the run
          with [stopped = `Hook].  The digest costs a marshal and an MD5 of
          every process state, so it is computed only when [digest ()] is
          called, and only a call made before the hook returns sees this
          round's state.  Forcing it or not never changes the run, and a
          forced digest is the same value whichever earlier rounds forced
          theirs.  It is a 30-bit key: distinct states can share one.  The
          model checker uses it to prune revisited states (only past the
          prefix it replays), and the parallel explorer uses [steps] to
          account a run cut at this hook exactly as if it had physically
          stopped here. *)
  sink : Event.sink option;
      (** observability sink receiving typed events (send / deliver / crash
          / fd-query / input / output) and phase spans (schedule, delivery,
          protocol step).  When a sink is installed the engine also
          maintains per-process vector clocks, stamps them on envelopes and
          tags every event with the acting process's clock.  [None] (the
          default) emits nothing, maintains no clocks and leaves the run
          byte-identical to an uninstrumented one. *)
  render_out : ('out -> string) option;
      (** renders an output value for [Event.Output]'s [info] field; [None]
          leaves it empty.  Only consulted when a sink is installed. *)
}

(** A configuration with no inputs, [Fifo] delivery, a [max_steps] of
    [20_000], quiescence detection on, a never-true stop condition, the
    seeded-RNG scheduler, no round hook and no observability sink. *)
val config :
  ?policy:Network.policy ->
  ?seed:int ->
  ?max_steps:int ->
  ?inputs:(int * Pid.t * 'inp) list ->
  ?stop:('out Trace.event list -> bool) ->
  ?detect_quiescence:bool ->
  ?scheduler:Scheduler.t ->
  ?round_hook:(now:int -> digest:(unit -> int) -> steps:int -> bool) ->
  ?sink:Event.sink ->
  ?render_out:('out -> string) ->
  fd:(Pid.t -> int -> 'fd) ->
  Failure_pattern.t ->
  ('msg, 'fd, 'inp, 'out) config

(** Stop as soon as every correct process (per the failure pattern) has
    produced at least one output. *)
val stop_when_all_correct_output :
  Failure_pattern.t -> 'out Trace.event list -> bool

(** Stop once at least [k] outputs have been produced. *)
val stop_after_outputs : int -> 'out Trace.event list -> bool

(** [run config protocol] executes the protocol to completion. *)
val run :
  ('msg, 'fd, 'inp, 'out) config ->
  ('st, 'msg, 'fd, 'inp, 'out) Protocol.t ->
  ('st, 'out) Trace.t
