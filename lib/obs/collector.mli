(** The standard sink implementation: a ring-buffered event log, an event-
    derived metrics table and per-phase span timers, bundled behind one
    {!Sim.Event.sink} to install into an engine config (or pass to
    [Mc.Harness.run]/[replay]). *)

type t = {
  events : Sim.Event.t Ring.t;
  metrics : Metrics.t;
  profile : Profile.t;
  sink : Sim.Event.sink;
}

(** [create ?capacity ()] — the ring retains [capacity] events (65,536
    by default) before it starts dropping. *)
val create : ?capacity:int -> unit -> t

(** Retained events, oldest first. *)
val events : t -> Sim.Event.t list

(** Events evicted by the ring. *)
val dropped : t -> int

(** Metric rows for [Runner.summary]: the metrics snapshot plus
    [events.recorded] / [events.dropped] bookkeeping. *)
val metric_rows : t -> (string * int) list
