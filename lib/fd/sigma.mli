(** The quorum failure detector Σ.

    Outputs a set of processes at each process.  Any two sets output at any
    times by any processes intersect, and eventually every set output at a
    correct process contains only correct processes. *)

type output = Sim.Pidset.t

(** Oracle built around a random correct "kernel" process: every output
    contains the kernel (hence pairwise intersection is immediate); before
    stabilization outputs also contain arbitrary other processes, afterwards
    only correct ones.  Legal in every environment. *)
val oracle : output Oracle.t

(** Oracle that outputs arbitrary *majority* sets before stabilization and
    majority subsets of the correct set afterwards.  Pairwise intersection
    holds because any two majorities intersect.  Only legal in
    majority-correct environments (asserts this on generation). *)
val oracle_majority : output Oracle.t

(** Oracle that always outputs exactly the set of correct processes. *)
val oracle_exact : output Oracle.t

(** [distinct outputs] keeps the first output of each distinct quorum, in
    order: all that {!safety} reads of [outputs].  A caller that judges a
    growing stream can keep this instead of the stream. *)
val distinct : output Sim.Trace.event list -> output Sim.Trace.event list

(** [safety outputs] is Σ's intersection clause alone, which holds on
    every prefix of a run, so callers judge it online: any two of
    [outputs] intersect, an output with itself included (an empty quorum
    fails).  It is judged over the distinct quorums, each kept with its
    first output, so a failure names the first two outputs that fail.
    Returns an explanation on failure. *)
val safety : output Sim.Trace.event list -> (unit, string) result

(** [check fp ~horizon outputs] verifies the Σ specification on a finite
    set of sampled outputs (every output of a run, or a grid sample of a
    history): {!safety}, then completeness, which asks that each correct
    process's last output contain only correct processes (a
    finite-horizon proxy for "eventually").  Returns an explanation on
    failure. *)
val check :
  Sim.Failure_pattern.t ->
  horizon:int ->
  output Sim.Trace.event list ->
  (unit, string) result

(** [sample_history fp ~horizon h] collects the grid of all [(p, t)] queries
    of a history for [check]. *)
val sample_history :
  Sim.Failure_pattern.t ->
  horizon:int ->
  output Oracle.history ->
  output Sim.Trace.event list
