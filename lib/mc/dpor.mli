(** Dynamic partial-order reduction with sleep sets over the round
    scheduler's choice points: the [`Dpor] explorer's children rule.

    {!run} executes one run and observes what each step of a round
    actually did (message destinations, the message it delivered,
    outputs).  It requests an alternative order only for steps that
    conflict: messages to different processes commute, same-process
    deliveries do not.  {!Parallel.search} explores the requests that
    {!openings} turns into new prefixes, on the work list exhaustive
    search uses, with the same digest pruning, budget and shrinking:
    identical verdicts, strictly fewer schedules.  Per-node
    explored-alternative sets act as sleep sets: prefixes are
    canonicalised, so re-interleavings collapse onto explored paths.
    Rounds the independence argument cannot cover (crash or input times
    inside the round's slot window, truncated rounds) fall back to the
    full sibling expansion exhaustive search performs everywhere.  A
    target with a time-varying detector ([time_invariant_fd = false])
    would fall back in every round, so {!Parallel.search} gives it the
    exhaustive children rule itself: the same report, without the
    per-run race analysis.

    The payoff is measured by the [mc_dpor_abd_*] rows of
    BENCH_weakest_fd.json: exhaustive ABD n=2 shrinks from 420 schedules
    to 34, and exhaustive n=3 — millions of schedules, infeasible plain —
    completes.  docs/MC.md § "DPOR and sleep sets" gives the independence
    relation and the soundness argument. *)

(** The race analysis at a round boundary: the queue model of the
    engine's Fifo delivery and the number of choices made. *)
type state

(** [run ~seed ~round_hook target ~fp sched] is {!Harness.run} with the
    race analysis attached.  It also returns the run's backtrack
    requests, sorted: each [(g, alt)] asks for alternative [alt] at
    choice [g], counted from time 0.  [?save] gets each round boundary's analysis state along
    with the engine's snapshot, and [?resume] continues from both: the
    resumed run's requests are those of the rounds it executes, exactly
    as the run from time 0 computes them for those rounds. *)
val run :
  seed:int ->
  round_hook:(now:int -> digest:(unit -> int) -> steps:int -> bool) ->
  ?resume:('st, 'msg, 'inp, 'out) Sim.Engine.snapshot * state ->
  ?save:(('st, 'msg, 'inp, 'out) Sim.Engine.snapshot * state -> unit) ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  fp:Sim.Failure_pattern.t ->
  Sim.Scheduler.t ->
  Harness.run_report * (int * int) list

(** The canonical prefixes one search has explored or queued: its sleep
    sets.  The empty prefix is in it from the start. *)
type explored

val explored : unit -> explored

(** [openings explored ~choices ~upto requests] are the canonical
    prefixes of [requests] at choices before [upto] that [explored]
    lacks, in request order; each is added to [explored].  [choices] is
    the run's choice sequence from time 0. *)
val openings :
  explored -> choices:int array -> upto:int -> (int * int) list -> int list list
