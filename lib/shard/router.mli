(** The keyspace router: the sharded service's client front-end.

    Writes go through the {!Ring} to their shard's SMR log; per-key reads
    are served {e without} consensus, by the ABD read path from
    Σ-majority quorums of the shard's current epoch — phase 1 samples
    [(epoch, applied, tagged value)] from a member majority all reporting
    the active epoch (stale-epoch samples are refused — the router-side
    half of the epoch-handoff contract), phase 2 waits until a majority
    has {e applied} the log prefix containing the sampled write, the ABD
    write-back that makes reads linearizable (never travel backwards).

    The router is transport-agnostic: it talks to shards only through
    {!ops} callbacks, so the same [read] fronts an in-process {!Cluster}
    ({!Cluster.ops}) and the TCP deployment, whose client reads with
    [read] over {!Server.ops}: each sample is one [Read] round trip
    answered by a {!view}. *)

(** One replica's read sample: the same record in process, in
    {!Group.sample}, and on the wire, as {!Server.read_reply_codec}. *)
type view = {
  v_epoch : int;
  v_applied : int;  (** applied log prefix length *)
  v_value : (int * string) option;  (** last applied write: (slot, value) *)
}

(** Replica state [st]'s sample for [key]. *)
val view_of : Replica.state -> key:string -> view

(** How to reach one shard. *)
type ops = {
  config : unit -> Epoch.config;
  sample : Sim.Pid.t -> key:string -> view option;
  submit : Replica.payload -> bool;
}

type t

(** [step] advances the world while a read waits for its quorum (steps
    the in-process cluster; a short sleep over sockets, where replicas
    run concurrently). *)
val create : ring:Ring.t -> ops:(int -> ops) -> step:(unit -> unit) -> t

val ring : t -> Ring.t
val shard_of : t -> string -> int

(** Route a write; [Some shard] if a live member accepted it. *)
val write : t -> key:string -> value:string -> int option

(** Linearizable read of [key]: [Ok None] if unwritten, [Ok (Some v)]
    otherwise.  [Error] if no epoch-consistent quorum forms within
    [max_rounds] world steps. *)
val read :
  ?max_rounds:int -> t -> key:string -> (string option, string) result
