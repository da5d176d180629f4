(** The model checker's one search loop: failure patterns × schedules,
    on OCaml 5 domains.

    [search] runs the chosen explorer under every failure pattern of
    {!Crash_adversary.patterns} (or [?fps]), fewest crashes first.  The
    report — counterexample, pattern/schedule/step counts, completeness —
    is {e bit-identical for every domain count}, including 1.

    Per pattern, the search runs a {e system}: how one job runs (here
    {!Harness.run} of the target under the pattern), its round key, and
    how a violation becomes a counterexample.  Each pattern has one work
    list in the report's canonical order, and the explorer supplies only
    a {e children rule}: which alternatives a finished run opens, and
    where they go in the list.
    - [`Exhaustive] opens every sibling of every choice past the job's
      prefix and before its cut, shallowest first, at the tail.
    - [`Dpor] opens the backtrack requests of {!Dpor.run}'s race analysis
      that its explored-prefix table lacks, right after their parent:
      depth-first.  On a target whose detector varies over time
      ([time_invariant_fd = false]) it opens the exhaustive siblings,
      still right after their parent.
    - [`Pct] and [`Random] open nothing; their list is runs [0 ..
      budget - 1], and run [i] of pattern [p] draws its RNG stream from
      [(root seed, p, i)].

    An entry is free, claimed or done; a done entry holds the run's
    trajectory (choices, arities, one [(digest, choices consumed,
    steps)] triple per round past the prefix, one snapshot per round
    boundary it passed, cut flag, violation, steps, and the race
    analysis's requests under [`Dpor]), a pure function of [(target,
    pattern, job, seed)].

    A prefix job does not replay its prefix from time 0.  It carries the
    snapshot of the latest round boundary at or before its branching
    choice, taken by the run that opened it, resumes there and replays
    only the choices after that boundary; the root job starts from
    [init].  Siblings branching in one round share one snapshot.  Under
    [`Dpor] the boundary also keeps the race analysis's queue model, and
    the resumed run analyses only the rounds after it.  Digest keys,
    cuts, step counts and choice indices still count from time 0, so the
    report is the one a search replaying every prefix would give.  This
    needs the target's protocol states to be values ({!Sim.Protocol}).

    - {b Helpers} (the other domains) claim the first free entry past the
      coordinator's position with one compare-and-set, run it with a
      shared striped visited-digest filter as the cut, and leave the
      trajectory in the entry.  With nothing to claim they sleep until
      the coordinator moves or the search ends; the one lock only parks
      and wakes them.
    - {b The coordinator} (the calling domain) walks the list in order,
      running an unclaimed entry itself against its exact seen-set (and
      later free entries while a helper holds its current one).  The
      first round key already seen is the cut; every earlier key joins
      the seen-set and the filter, whose one writer it is.  A filter cut
      no seen key justifies (a salted-hash collision) is re-run.  It
      counts steps and pruned runs, records the violation and places the
      children the rule opens, each with its snapshot.  DPOR's
      explored-prefix table lives on the coordinator too.

    The filter is a subset of the seen-set, so a hit only saves helper
    work; it is built only when helper domains exist.  At most [budget]
    entries of a pattern run.  A list whose children go at the tail
    never grows past that, and consumed entries, with the snapshots only
    they held, are released.  The first counterexample ends the search;
    helper runs in flight stop at their next round, unread.

    [opts.domains] is a cap: the pool never exceeds
    [Domain.recommended_domain_count ()], and 1 spawns no domain.
    [budget] is the total across patterns, and each pattern gets at most
    [inner_budget] of what is left. *)

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

(** [exhaust ~budget ~cex run] is the exhaustive search of a system whose
    runs cannot resume, on one domain: every job runs from time 0.
    [run ~hook sched] executes one run under [sched], calls [hook] at
    every round boundary with that round's key, stops where [hook]
    answers [false], and returns its violation and step count; [cex]
    turns a violating choice sequence into the counterexample.  The
    children go at the tail, and the report has one pattern. *)
val exhaust :
  budget:int ->
  cex:(reason:string -> int list -> Harness.counterexample) ->
  (hook:(key:(unit -> int) -> steps:int -> bool) ->
  Sim.Scheduler.t ->
  string option * int) ->
  Crash_adversary.report
