(** Crash-injection adversary: the failure patterns a search quantifies
    over, and the report of that search.

    The patterns are every failure pattern with at most [max_crashes]
    crashed processes, each crash falling on the time grid
    [0, stride, 2*stride, ... <= horizon], fewest crashes first, starting
    with the failure-free pattern — crashes can mask process-specific
    bugs, and a counterexample should use as few failures as the bug
    needs.  {!Parallel.search} runs a schedule explorer under each; its
    counterexample carries the failure pattern inside the schedule, so
    replaying it reproduces both the crashes and the ordering.

    [report] is the one report of a model-checker search: every search
    of {!Parallel}, {!Net_harness.search} included, returns it. *)

type report = {
  counterexample : Harness.counterexample option;
  patterns : int;  (** failure patterns explored *)
  schedules : int;  (** total runs across all patterns *)
  pruned : int;  (** runs cut at a round state an earlier run reached *)
  steps : int;
  complete : bool;
      (** true iff every pattern's schedule space was exhausted without
          a violation — only possible with the [`Exhaustive] and [`Dpor]
          explorers within budget *)
}

(** The enumerated failure patterns, in search order. *)
val patterns :
  n:int ->
  max_crashes:int ->
  horizon:int ->
  stride:int ->
  Sim.Failure_pattern.t list
