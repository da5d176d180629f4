(** Environments (Section 2 of the paper).

    An environment is a set of failure patterns — the assumption under which
    an algorithm is required to work.  We represent an environment both as a
    membership predicate (to classify patterns) and as a random generator
    (to sample patterns for tests and benchmarks). *)

type t

val name : t -> string

(** Does the failure pattern belong to the environment? *)
val mem : t -> Failure_pattern.t -> bool

(** [sample t ~n ~horizon rng] draws a failure pattern for [n] processes
    with crash times in [0 .. horizon], uniformly-ish within the
    environment. *)
val sample : t -> n:int -> horizon:int -> Rng.t -> Failure_pattern.t

(** The unconstrained environment: any pattern with at least one correct
    process (any number of crashes, any timing). *)
val any : t

(** Patterns in which a strict majority of processes is correct. *)
val majority_correct : t

(** Patterns with at most [f] faulty processes. *)
val at_most : int -> t

(** Failure-free patterns only. *)
val failure_free : t

(** Patterns in which process [p] never crashes. *)
val process_correct : Pid.t -> t

(** Patterns in which no process crashes before time [t0] ("no early
    crashes" — an example of a timing assumption the paper allows). *)
val no_crash_before : int -> t
