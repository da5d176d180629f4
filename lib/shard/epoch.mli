(** Numbered shard configurations and the epoch-handoff rules.

    A shard's membership is not fixed: a [Reconfig] command decided
    through the shard's own consensus log installs the next configuration
    (see [Replica]).  This module is the pure bookkeeping side: what a
    configuration is, which quorums it accepts, and which transitions are
    legal.  The safety story — why a quorum formed under epoch [e] must
    never be honoured once [e+1] is active — lives in
    [Fd.Emulated.Sigma_epoch] and docs/SHARDING.md. *)

type config = { epoch : int; members : Sim.Pidset.t }

(** Epoch 0.  @raise Invalid_argument on an empty member set. *)
val initial : members:Sim.Pidset.t -> config

(** Size of a smallest member-set majority — the quorum threshold. *)
val majority : config -> int

val is_member : config -> Sim.Pid.t -> bool

(** [check_quorum c ~epoch q] is [Ok ()] iff [q] is a valid quorum for
    [c]: formed in [c]'s epoch, all members, at least a majority.  The
    [Error] carries the reason — chaos invariants and the epoch-handoff
    test match on it. *)
val check_quorum :
  config -> epoch:int -> Sim.Pidset.t -> (unit, string) result

(** Only the immediate next epoch with a non-empty member set may be
    installed — replicas apply [Reconfig] commands in log order, so
    epochs advance one at a time everywhere. *)
val valid_transition : config -> epoch:int -> members:Sim.Pidset.t -> bool

(** The canonical membership rotation: the next epoch, without [c]'s
    lowest member and with the lowest of pids [0 .. universe - 1] outside
    [c].  [None] if every pid of the universe is a member. *)
val rotate : config -> universe:int -> config option

val pp : Format.formatter -> config -> unit
