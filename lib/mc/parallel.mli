(** The model checker's one search over failure patterns × schedules,
    on OCaml 5 domains.

    [search] runs the chosen explorer under every failure pattern of
    {!Crash_adversary.patterns} (or [?fps]), fewest crashes first.  The
    report — counterexample, pattern/schedule/step counts, completeness —
    is {e bit-identical for every domain count}, including 1.

    Each pattern has one work list in the report's canonical order: FIFO
    prefixes for [`Exhaustive], run indices for [`Pct]/[`Random].  An
    entry is free, claimed or done; a done entry holds the run's
    trajectory (choices, arities, one [(digest, choices consumed, steps)]
    triple per round past the prefix, one {!Sim.Engine.snapshot} per
    round boundary it passed, cut flag, violation, steps), a pure
    function of [(target, pattern, prefix or index, seed)].

    An exhaustive job does not replay its prefix from time 0.  It carries
    the snapshot of the latest round boundary at or before its branching
    choice, taken by the run that discovered it, resumes there and
    replays only the choices after that boundary; the root job starts
    from [init].  Siblings branching in one round share one snapshot.
    Digest keys, cuts and step counts still count from time 0, so the
    report is the one a search replaying every prefix would give.  This
    needs the target's protocol states to be values ({!Sim.Protocol}).

    - {b Helpers} (the other domains) claim the first free entry past the
      coordinator's position with one compare-and-set, run it with a
      shared striped visited-digest filter as the cut, and leave the
      trajectory in the entry.  With nothing to claim they sleep until
      work is appended or the search ends; the one lock only parks and
      wakes them.
    - {b The coordinator} (the calling domain) walks the list in order,
      running an unclaimed entry itself against its exact seen-set (and
      later free entries while a helper holds its current one).  The
      first round key already seen is the cut; every earlier key joins
      the seen-set and the filter, whose one writer it is.  A filter cut
      no seen key justifies (a salted-hash collision) is re-run.  It
      counts steps, records the violation and appends the children, the
      siblings ({!Exhaustive.siblings}) of the choices up to the cut,
      each with its snapshot.

    The filter is a subset of the seen-set, so a hit only saves helper
    work; it is built only when helper domains exist.  A list never
    grows past its pattern's budget, and consumed entries, with the
    snapshots only they held, are released.  The first counterexample
    ends the search; helper runs in flight stop at their next round,
    unread.

    [opts.domains] is a cap: the pool never exceeds
    [Domain.recommended_domain_count ()], and 1 spawns no domain.
    [`Dpor] runs {!Dpor.search} on the coordinator while the helpers
    sleep; run [i] of pattern [p] under [`Pct]/[`Random] draws its RNG
    stream from [(root seed, p, i)].  [budget] is the total across
    patterns, and each pattern gets at most [inner_budget] of what is
    left. *)

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
