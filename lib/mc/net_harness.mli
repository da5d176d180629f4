(** Model-checking the production network stack: real {!Net.Node} main
    loops (codec, envelopes, optional {!Net.Rel} ARQ) over the
    in-memory {!Net.Loopback} hub given a scheduler, explored by the
    model checker's one search loop ({!Parallel.exhaust}).

    A run proceeds in rounds that mirror the engine's atomic-step
    semantics: scripted {!fault}s and inputs apply at the round
    boundary, a [Round_order] choice fixes the step order of un-killed
    nodes, and each node takes one [Net.Node.step ~timeout_ms:0] —
    every delivery inside that step is a [Deliver_pick] choice of the
    hub.  Output events are stamped [round * n + slot], so sim-side
    {!Invariant}s apply unchanged.

    The run ends [`Quiescent] — arming [must_terminate] for the final
    invariant check — only when a whole round did nothing, the hub
    holds no frame a live node can receive ({!Net.Loopback.in_flight})
    {e and} every link layer reports itself drained; an ARQ
    holding unacked frames still has retransmissions to make, and
    calling that state quiescent would fabricate message loss.  A link
    that can never drain (e.g. retransmitting to a killed peer) ends
    the run at [max_rounds] with [`Round_limit] and
    [must_terminate = false].

    Limitations, by design: the driven protocol has [fd = unit] (the
    production rule — detectors are emulated layers, see {!Net.Node});
    protocols must not read [ctx.now] (node step counters are excluded
    from the pruning digest); kills happen at round boundaries only. *)

(** One scripted hub fault, applied at the start of its round — the
    {!Net.Loopback} fault vocabulary.  [Kill p] is {!Net.Loopback.crash}:
    frames [p] sent before the kill may still arrive.  It is also the
    failure pattern the invariants receive: a pid killed at round [r]
    crashes at time [r * n] on the event clock. *)
type fault =
  | Block of Sim.Pid.t
  | Unblock of Sim.Pid.t
  | Dup_next of Sim.Pid.t
  | Drop_next of Sim.Pid.t
  | Kill of Sim.Pid.t

(** A link layer stacked between the hub endpoint and the node:
    the transport the node runs over, a deep state digest for
    visited-state pruning, and a drained-predicate consulted by
    quiescence detection. *)
type wrapped = {
  tr : Net.Transport.t;
  link_digest : unit -> int;
  link_idle : unit -> bool;
}

type link = Net.Transport.t -> wrapped

(** No layer: the hub endpoint itself (always idle, digest 0). *)
val raw_link : link

(** The production ARQ, {!Net.Rel.wrap} — idle iff no unacked frames.
    [resend_every] defaults to 2 (model-checking wants fast resend
    clocks: rounds are steps, not milliseconds). *)
val rel_link : ?resend_every:int -> unit -> link

type ('st, 'msg, 'inp, 'out) target = {
  name : string;
  n : int;
  protocol : ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t;
  link : link;
  reorder : bool;  (** {!Net.Loopback}'s frame-level reordering mode *)
  inputs : (int * Sim.Pid.t * 'inp) list;  (** [(round, pid, input)] *)
  faults : (int * fault) list;  (** [(round, fault)] *)
  invariant : 'out Invariant.t;
      (** [on_output] gets the events newest first and [final] oldest
          first, as under {!Harness.run}. *)
  max_rounds : int;
  pp_out : Format.formatter -> 'out -> unit;
}

type run_report = {
  violation : string option;
  choices : int list;  (** the recorded, replayable choice sequence *)
  stopped : [ `Quiescent | `Round_limit | `Hook ];
  steps : int;  (** node steps taken *)
  outputs : string Lazy.t;
      (** rendered output events, for reporting; rendered when forced *)
}

(** One run under [sched].  [round_hook] is called after every round
    with a thunk computing a state digest (protocol states, link layers,
    hub, output history — node [now] excluded), valid until the hook
    returns and computed only if called; returning [false] cuts the run
    ([`Hook]) — the explorer's pruning hook. *)
val run :
  ?round_hook:(round:int -> digest:(unit -> int) -> steps:int -> bool) ->
  ('st, 'msg, 'inp, 'out) target ->
  Sim.Scheduler.t ->
  run_report

(** Re-run a schedule's choice sequence (then alternative 0 forever).
    The schedule's crash list is ignored: kills live in the target
    script. *)
val replay :
  ('st, 'msg, 'inp, 'out) target -> Schedule.t -> run_report

(** Does replaying [schedule] still violate the invariant? *)
val violates : ('st, 'msg, 'inp, 'out) target -> Schedule.t -> bool

(** Exhaustive search ({!Parallel.exhaust}) over the target's delivery
    interleavings, with visited-digest pruning (keyed on
    [(digest, round)] — fault/input scripts are round-indexed, so states
    only merge at equal rounds), schedule [budget], and counterexample
    shrinking over the choice sequence (always on; the counterexample
    reports seed 1).  [Net.Node]s are mutable, so
    every run starts at time 0 rather than from a round snapshot; new
    prefixes go at the tail of the work list.  The report has one
    pattern. *)
val search :
  ?budget:int ->
  ('st, 'msg, 'inp, 'out) target ->
  Crash_adversary.report
