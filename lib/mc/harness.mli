(** The system-under-test abstraction shared by all explorers.

    A [target] packages a protocol with everything a run needs — failure
    detector history sampler, external inputs, bounds — plus the
    {!Invariant} to check.  Explorers vary only the scheduler and the
    failure pattern.  Every run delivers under [Sim.Network.Fifo], so a
    schedule's only choices are [Round_order] picks, and a run that
    exhausts [max_steps] must have terminated: bounded liveness, for
    protocols that never quiesce (retry loops).

    Failure detector histories are sampled from [(fp, seed)] and are *not*
    part of the explored nondeterminism: an explorer quantifies over
    schedules and (via {!Parallel.search}) failure patterns for one fixed
    history sample per pattern. *)

type ('st, 'msg, 'fd, 'inp, 'out) target = {
  name : string;
  protocol : ('st, 'msg, 'fd, 'inp, 'out) Sim.Protocol.t;
  make_fd : Sim.Failure_pattern.t -> seed:int -> Sim.Pid.t -> int -> 'fd;
  make_inputs : Sim.Failure_pattern.t -> (int * Sim.Pid.t * 'inp) list;
  invariant : 'out Invariant.t;
  stop : Sim.Failure_pattern.t -> 'out Sim.Trace.event list -> bool;
      (** ends the run once true; called after every output with all
          outputs so far, newest first (the engine's order). *)
  max_steps : int;
  detect_quiescence : bool;
  time_invariant_fd : bool;
      (** the sampled detector history returns the same value at every
          time — lets {!Parallel} prune states modulo the clock.  Must be
          false for detectors with ⊥-prefixes or stabilization times
          (e.g. Ψ). *)
  pp_out : Format.formatter -> 'out -> unit;
}

type run_report = {
  violation : string option;  (** the invariant's explanation, if any *)
  choices : int list;  (** the recorded, replayable choice sequence *)
  stopped : [ `Condition | `Quiescent | `Step_limit | `Hook ];
  steps : int;
  outputs : string Lazy.t;
      (** rendered output events, for reporting; rendered when forced *)
}

(** The per-pattern schedule explorer {!Parallel.search} runs: the
    children rule of its one search loop.  [`Dpor] is [`Exhaustive] with
    dynamic partial-order reduction ({!Dpor}): identical verdicts,
    strictly fewer schedules. *)
type explorer = [ `Exhaustive | `Pct | `Random | `Dpor ]

val explorer_name : explorer -> string

(** One record carrying every knob a search accepts — the single
    configuration surface of {!Parallel.search}, and of the [mc] CLI's
    options.  Build it as
    [{ Harness.default_opts with budget = ...; domains = 4 }]. *)
type opts = {
  explorer : explorer;
  domains : int;
      (** total parallelism: helper domains plus the coordinating one
          ({!Parallel}); 1 = no domain spawned, the caller runs every
          schedule.  A cap: the pool never exceeds
          [Domain.recommended_domain_count ()], since a helper without a
          core of its own only delays the runs it claimed. *)
  budget : int;  (** total schedule budget across all failure patterns *)
  inner_budget : int;  (** per-failure-pattern schedule cap *)
  max_crashes : int;  (** crash-adversary bound on faulty processes *)
  horizon : int;  (** latest injected crash time *)
  stride : int;  (** crash time grid spacing *)
  d : int option;
      (** PCT bug depth.  [None] lets pct default to 3; [Some _] with a
          non-pct explorer is rejected by {!validate_opts} instead of being
          silently dropped. *)
  shrink : bool;
  seed : int;  (** root seed; all per-run RNG streams derive from it *)
}

(** [`Exhaustive] explorer, 1 domain, budget 20_000, inner budget 2_000,
    max_crashes 1, horizon 4, stride 2, no d, shrink on, seed 1. *)
val default_opts : opts

(** Reject options that would explore nothing or be silently changed:
    [domains], [budget], [inner_budget] or [stride] below 1,
    [max_crashes] or [horizon] below 0, or a PCT depth [d] supplied to an
    explorer that would ignore it.  ({!Crash_adversary.patterns} still
    clamps [stride] and [horizon] for callers that skip this check.) *)
val validate_opts : opts -> (unit, string) result

(** [run target ~fp scheduler] executes one run under [scheduler], checking
    the invariant online (a violation ends the run) and at the end.  Like
    [stop], the invariant's [on_output] gets the outputs newest first; its
    [final] gets them oldest first.

    [?sink] installs an observability sink on the underlying engine run and
    additionally brackets invariant evaluation in an [Invariant_check]
    phase span.  Exploration never passes one (the parallel explorer's
    helper domains would race on it); tracing a counterexample means
    replaying it with a sink, as the [mc] CLI's [--trace] does.

    [?save] and [?resume] are {!Sim.Engine.run}'s round-boundary
    snapshots, under the same contract.  A resumed run's [choices] are
    only those made after its snapshot; its [steps], outputs and verdict
    count from time 0. *)
val run :
  ?seed:int ->
  ?round_hook:(now:int -> digest:(unit -> int) -> steps:int -> bool) ->
  ?sink:Sim.Event.sink ->
  ?resume:('st, 'msg, 'inp, 'out) Sim.Engine.snapshot ->
  ?save:(('st, 'msg, 'inp, 'out) Sim.Engine.snapshot -> unit) ->
  ('st, 'msg, 'fd, 'inp, 'out) target ->
  fp:Sim.Failure_pattern.t ->
  Sim.Scheduler.t ->
  run_report

(** [replay target ~n schedule] re-runs a serialized schedule: its crash
    list becomes the failure pattern, its choices drive the scheduler
    (then alternative 0 forever).  A malformed crash list yields a report
    with no violation. *)
val replay :
  ?seed:int ->
  ?sink:Sim.Event.sink ->
  ('st, 'msg, 'fd, 'inp, 'out) target ->
  n:int ->
  Schedule.t ->
  run_report

(** Does replaying [schedule] still violate the invariant? *)
val violates :
  ?seed:int ->
  ('st, 'msg, 'fd, 'inp, 'out) target ->
  n:int ->
  Schedule.t ->
  bool

type counterexample = {
  target : string;
  n : int;
  seed : int;
  schedule : Schedule.t;
  reason : string;
  shrunk : bool;
}

(** [counterexample ~shrink ~violates ~target ~n ~seed ~reason schedule]
    reports the violating [schedule], first minimized by {!Shrink.minimize}
    against [violates] when [shrink] is set.  Every explorer reports its
    counterexample through it. *)
val counterexample :
  shrink:bool ->
  violates:(Schedule.t -> bool) ->
  target:string ->
  n:int ->
  seed:int ->
  reason:string ->
  Schedule.t ->
  counterexample

val pp_counterexample : Format.formatter -> counterexample -> unit

(** Render a list of output events (exposed for CLI / example programs). *)
val pp_events :
  (Format.formatter -> 'out -> unit) -> 'out Sim.Trace.event list -> string
