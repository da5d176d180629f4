(** The model checker's one search over failure patterns × schedules,
    on OCaml 5 domains.

    [search] runs the chosen explorer under every failure pattern of
    {!Crash_adversary.patterns} (or [?fps]), fewest crashes first, and
    shards the work across a pool of [Domain]s.  The report —
    counterexample, pattern/schedule/step counts, completeness — is
    {e bit-identical for every domain count}, including 1.  The explorer
    splits every run into two halves:

    - {b Speculation} (parallel, racy): workers claim {e subtree jobs} —
      a frontier prefix plus a quota — and run a local breadth-first
      (FIFO) expansion of that subtree, streaming each run's trajectory
      (choice indices, arities, per-round [(digest, consumed, steps)]
      hook triples, the cut position justified by the worker's local
      seen-set or the shared filter) back to the coordinator.  A trajectory is a
      pure function of [(target, failure pattern, prefix, seed)], so it
      does not matter when, where, or how often it is executed.  Coarse
      subtree work units amortize queue traffic: the old one-job-per-
      prefix design spent its speedup on lock round trips.
    - {b Adjudication} (sequential, canonical): the coordinator consumes
      trajectories in the fixed frontier order — failure patterns
      fewest-crashes-first, FIFO prefix order within a pattern — and
      replays every pruning decision against its private exact seen-set.
      A speculative cut the exact set cannot justify (filter collision,
      stale local view) triggers a deterministic filter-free
      re-execution.  Every counter in the report derives from
      adjudicated trajectories, never from wall-clock racing.

    Workers consult a shared striped visited-digest filter (single
    writer: the coordinator) so speculation cuts where the adjudicator
    already pruned; a hit can only save work, never change the outcome.

    Aborted speculative runs — cancelled mid-flight when a
    counterexample lands, or cut by a racy filter hit that adjudication
    later re-executes — are {e excluded} from the step totals: the
    report counts the work of the canonical search, so [steps] is a
    search metric, not a wall-clock artifact.

    {2 Scaling}

    [opts.domains] is a cap, not a demand: the pool never exceeds
    [Domain.recommended_domain_count ()], and 1 domain runs the
    sequential inline path.  [`Dpor] adjudicates sequentially per
    pattern with {!Dpor.search} (the reduction is a
    frontier-order-dependent algorithm); [`Pct]/[`Random] parallelize by
    run index — run [i] of pattern [p] draws its RNG stream from
    [(root seed, p, i)] regardless of which domain executes it.

    Budget accounting: [budget] is the total across patterns, and each
    pattern gets at most [inner_budget] of what is left. *)

(** [search ~opts target ~n] explores failure patterns × schedules with
    [opts.domains]-way parallelism.  [?fps] overrides the enumerated
    failure patterns (e.g. a single scenario pattern); by default they
    are {!Crash_adversary.patterns} from [opts].  [opts.d] falls back to
    3 when [None]; callers wanting rejection of meaningless combinations
    should run {!Harness.validate_opts} first. *)
val search :
  opts:Harness.opts ->
  ?fps:Sim.Failure_pattern.t list ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  n:int ->
  Crash_adversary.report
