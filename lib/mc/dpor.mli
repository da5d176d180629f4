(** Dynamic partial-order reduction with sleep sets over the round
    scheduler's choice points.

    The same bounded DFS as {!Exhaustive} ({!Exhaustive.dfs}: digest
    pruning, budget, shrinking, the report) — identical verdicts — but
    instead of
    branching on every [Round_order] pick it observes what each step of
    a round actually did (message destinations, outputs) and enqueues an
    alternative order only for steps that conflict: messages to
    different processes commute, same-process deliveries do not.
    Per-node explored-alternative sets act as sleep sets (prefixes are
    canonicalised so re-interleavings collapse onto explored paths), and
    rounds the independence argument cannot cover — crash or input times
    inside the round's slot window, truncated rounds, non-Fifo choice
    points — fall back to the full sibling expansion {!Exhaustive}
    performs everywhere.  A target with a time-varying detector
    ([time_invariant_fd = false]) would fall back in every round, so it
    gets {!Exhaustive.search} itself: the same report, without the
    per-run race analysis.

    The payoff is measured by the [mc_dpor_abd_*] rows of
    BENCH_weakest_fd.json: exhaustive ABD n=2 shrinks from 420 schedules
    to 34, and exhaustive n=3 — millions of schedules, infeasible plain —
    completes.  docs/MC.md § "DPOR and sleep sets" gives the independence
    relation and the soundness argument. *)

val search :
  ?budget:int ->
  ?shrink:bool ->
  ?seed:int ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  fp:Sim.Failure_pattern.t ->
  Exhaustive.report
