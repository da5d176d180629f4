(** Chaos harness for the mixed-consistency cluster: the {!Net.Chaos}
    core over {!Mixed.protocol}, whose decided SMR logs and lin commands
    the core checks, with re-agreement on one {!Fd.Emulated.Omega_ec}
    leader after each [Heal].  Its own invariants:

    - {b EC availability}: over the schedule's {!cut_window} the stores'
      revision total grows — writes flow in minority partitions;
    - {b SMR frozen}: 100 rounds into the window, the SMR applied total
      stops growing — owed only if no round of the window has a
      majority component ({!Net.Nemesis.majority_component}); measured
      and reported either way;
    - {b convergence}: after the last write, live fingerprints become
      equal within the heal bound;
    - {b read-your-writes}: each session writes its own keys at its own
      node and always reads its latest write back.

    The watchdog (600 (n − 1) rounds) and heal bound (500 (n − 1)) scale
    with n − 1, like the default run.  Metrics: [ec.puts{node=p}],
    [ec.divergent_keys], [ec.replication_lag{node=p}],
    [ec.heal_reagree_rounds], [ec.converged_in].  The catalogue is in
    docs/FAULTS.md. *)

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;  (** heartbeat period of both detectors *)
  window : int;  (** SMR pipelining *)
  sync_every : int;  (** anti-entropy cadence *)
  schedule : Net.Nemesis.schedule;
  puts_every : int;  (** every live node writes this often, over 4 keys *)
  lin_every : int;
  lin_cmds : int;
}

(** Full isolation — every node a singleton group, so no majority
    component anywhere — at round 400, healed at 1600. *)
val default_schedule : int -> Net.Nemesis.schedule

val default : n:int -> schedule:Net.Nemesis.schedule -> config

(** The first [Partition]/[Isolate] round and the first later [Heal]
    round, if both exist (also read by the bench rows). *)
val cut_window : Net.Nemesis.schedule -> (int * int) option

type detail = {
  ec_puts : int array;
  ec_puts_in_partition : int;
  smr_applied : int array;
  smr_frozen_in_partition : bool;
  converged_in : int option;
}

type report = detail Net.Chaos.report

val pp_report : Format.formatter -> report -> unit
val run : ?collector:Obs.Collector.t -> config -> report
