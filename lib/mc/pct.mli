(** PCT-style randomized priority exploration.

    Each run draws a random priority permutation over the [n] processes and
    [d - 1] priority change points over the run's scheduling decisions; the
    scheduler always steps (and delivers from) the highest-priority enabled
    process, demoting the running process below everyone else when a change
    point is hit.  This concentrates probability on low-depth orderings: a
    bug requiring [d] specific ordering constraints is hit with probability
    at least [1 / (n * k^(d-1))] per run ([k] = decisions per run), far
    better than uniform random walks for small [d].  {!Parallel.search}
    draws one such scheduler per run under the [`Pct] explorer. *)

(** [scheduler ~d ~horizon rng ~n] is one run's priority scheduler.
    [horizon] is the expected number of scheduling decisions per run and
    bounds where change points may fall. *)
val scheduler : ?d:int -> horizon:int -> Sim.Rng.t -> n:int -> Sim.Scheduler.t
