(** Chaos harness for the sharded service: the {!Net.Chaos} core with one
    group per shard, shard [s] under its own {!Net.Nemesis} controller
    (same schedule, seed [seed + s]).  A seeded Zipfian workload (θ =
    0.99 over 64 keys) routes writes through the ring; [reconfig_at]
    rotates every shard's membership (drop the lowest member, install a
    spare) through the shards' own logs.  The watchdog bound is 900
    rounds.

    The core judges each shard's logs by [Cons.Log_spec], keyed by the
    written value (a reconfiguration entry has no key), so integrity
    covers the reconfiguration: no replica applies a write twice.  Its
    own invariants: the {b epoch handoff}, online (each replica's Σ
    quorum is of its own epoch, same-epoch quorums of one shard
    intersect, different-epoch replicas have different applied counts);
    at the end, the expected {b configuration installed}, and {b
    quiescent reads}: the router's quorum reads, which advance the core's
    round function, return the last applied write of each sampled key.
    The catalogue is in docs/FAULTS.md. *)

type config = {
  shards : int;
  replicas : int;
  spares : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
      (** Ω backend on every replica (default [Heartbeat]) *)
  schedule : Net.Nemesis.schedule;  (** applied to every shard *)
  cmds : int;
  cmd_every : int;
  reconfig_at : int option;
      (** rotate every shard's membership at this round *)
  reads : int;  (** quiescent quorum reads after the run *)
}

val default :
  shards:int -> replicas:int -> schedule:Net.Nemesis.schedule -> config

type detail = {
  applied : int array;  (** per shard: longest live applied log *)
  epochs : int array;  (** per shard: final installed epoch *)
  reconfig_done : bool;
  reads_ok : int;
  reads_bad : int;
}

type report = detail Net.Chaos.report

val pp_report : Format.formatter -> report -> unit

(** [collector]'s metrics gain per-shard labeled series
    ([shard.applied{shard=s}], [shard.epoch{shard=s}]) at the end. *)
val run : ?collector:Obs.Collector.t -> config -> report
