(** Typed run events and the sink interface of the observability layer.

    The engine and the network emit these when (and only when) a sink is
    installed in the {!Engine.config}; with the default [sink = None] no
    event is constructed, no vector clock is maintained, and instrumented
    runs are byte-identical to uninstrumented ones — the "zero-cost when
    off" contract the model checker's throughput relies on.

    Sinks live below the [obs] library on purpose: [sim] cannot depend on
    [obs], so the event vocabulary is defined here and [Obs.Collector]
    implements the callbacks (ring buffer, counters, span timers). *)

(** What happened.  [Output]'s [info] is rendered by the (optional)
    [render_out] of the engine config; [Metric] carries protocol-custom
    measurements (quorum sizes, extraction DAG growth, ...). *)
type kind =
  | Send of { src : Pid.t; dst : Pid.t }
  | Deliver of { src : Pid.t; dst : Pid.t; sent_at : int }
  | Crash of Pid.t
  | Fd_query of Pid.t
  | Input of Pid.t
  | Output of { pid : Pid.t; info : string }
  | Metric of { name : string; value : int }

type t = {
  time : int;  (** engine clock (ticks) at emission *)
  round : int;  (** scheduling round at emission *)
  vc : Vclock.t option;
      (** vector clock of the acting process, when the emitter tracks
          causality (the engine does; standalone emitters may not) *)
  kind : kind;
}

(** Engine phases bracketed by [phase_enter]/[phase_exit]; [Phase] names a
    protocol- or tool-custom span (e.g. the model checker's shrinker). *)
type phase = Schedule | Delivery | Step | Invariant_check | Phase of string

type sink = {
  emit : t -> unit;
  phase_enter : phase -> unit;
  phase_exit : phase -> unit;
}

val phase_name : phase -> string
val kind_name : kind -> string

(** The process an event is about ([None] for metrics). *)
val pid_of : kind -> Pid.t option
