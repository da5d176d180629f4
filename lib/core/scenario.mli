(** Named crash scenarios used throughout examples, experiments and
    benchmarks.  Each scenario fixes a system size and a failure pattern
    (or a distribution over patterns, via a seed). *)

type t = {
  name : string;
  n : int;
  fp : Sim.Failure_pattern.t;
}

(** No crashes. *)
val failure_free : n:int -> t

(** One early crash (process 0 at time [at]). *)
val one_crash : n:int -> at:int -> t

(** A minority of processes stays correct: [n - 1 - (n-1)/2 .. n-1] crash in
    a staggered cascade — the regime where majority-based algorithms stop
    working. *)
val minority_correct : n:int -> t

(** Exactly one process survives. *)
val lone_survivor : n:int -> t

(** A random pattern drawn from an environment. *)
val random : Sim.Environment.t -> n:int -> seed:int -> t

(** The standard benchmark gallery for a system of [n] processes:
    failure-free, {!one_crash} at 50, half the processes crashing
    together at 60, {!minority_correct} and {!lone_survivor}. *)
val gallery : n:int -> t list
