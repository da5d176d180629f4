(** Bounded-exhaustive schedule search by stateless re-execution.

    The explorer maintains a stack of choice-sequence prefixes.  Each run
    replays a prefix and then always takes alternative 0; the unexplored
    siblings of every choice point encountered past the prefix are pushed
    for later exploration.  With an unlimited budget this enumerates every
    schedule of the target under one failure pattern.

    Pruning: after the prefix is consumed, the engine's per-round state
    digest (process states + network + pending inputs + output history) is
    checked against a seen-set; a repeated digest cuts the run.  Digests
    include the output history, so no run that could still produce a
    different observable outcome is pruned.  The clock is left out of the
    key exactly when the target's sampled detector history is
    time-invariant ([time_invariant_fd]).

    Every run of {!dfs} replays its prefix from time 0, and so do its
    callers: {!search}, {!Dpor.search}, whose race analysis reads each
    run's whole log, and {!Net_harness.search}, which drives mutable
    [Net.Node]s.  Only {!Parallel.search}'s exhaustive explorer resumes
    runs from round snapshots ({!Sim.Engine.run}'s [?resume]). *)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;  (** runs executed *)
  pruned : int;  (** runs cut by the state-digest check *)
  steps : int;  (** total process steps across all runs *)
  complete : bool;  (** true iff the space was exhausted within budget *)
}

(** One run of a {!dfs}-driven explorer. *)
type run = {
  violation : string option;
  choices : int list;  (** the recorded, replayable choice sequence *)
  steps : int;
  next : depth:int -> arities:int array -> int list list;
      (** the prefixes to explore after this run, first one first, given
          the length of the run's prefix and the arity of each choice
          the run took *)
}

(** [dfs ~budget ~cex exec] is the depth-first search {!search},
    {!Dpor.search} and {!Net_harness.search} share.  It owns the prefix
    stack, the seen-set, the budget and the report.  [exec sched ~fresh]
    executes one run under [sched] — which replays the prefix being
    explored, then takes alternative 0 — and calls [fresh key] at each
    round boundary: [false] means the state [key ()] was seen before and
    the run should stop.  Keys are never computed while the prefix
    replays.  The first violating run ends the search; [cex ~reason
    choices] reports it. *)
val dfs :
  budget:int ->
  cex:(reason:string -> int list -> Harness.counterexample) ->
  (Sim.Scheduler.t -> fresh:((unit -> int) -> bool) -> run) ->
  report

(** [siblings choices ~depth ~arities] are the unexplored siblings of
    every choice past the first [depth], shallowest first — the [next] of
    {!search} and {!Net_harness.search}. *)
val siblings : int list -> depth:int -> arities:int array -> int list list

(** [key target ~now digest] is the pruning key of a sim target's round
    state: the digest, paired with the clock unless the target's detector
    history is time-invariant. *)
val key :
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  now:int ->
  (unit -> int) ->
  unit ->
  int

val search :
  ?budget:int ->
  ?shrink:bool ->
  ?seed:int ->
  ('st, 'msg, 'fd, 'inp, 'out) Harness.target ->
  fp:Sim.Failure_pattern.t ->
  report
