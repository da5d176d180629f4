(** Failure detector oracles.

    A failure detector [D] maps each failure pattern [F] to a set of legal
    histories [D(F)].  An oracle is an executable sampler of that set: given
    a failure pattern and a random stream it produces one concrete history
    [H : Pid.t -> time -> 'a].  Histories are deterministic functions — the
    same [(p, t)] query always returns the same value — so the engine and
    the spec checkers can both consult them. *)

type 'a history = Sim.Pid.t -> int -> 'a

type 'a t = {
  name : string;
  generate : Sim.Failure_pattern.t -> Sim.Rng.t -> 'a history;
}

val name : 'a t -> string

(** [history t fp ~seed] samples one history of [t] for pattern [fp]. *)
val history : 'a t -> Sim.Failure_pattern.t -> seed:int -> 'a history

(** [make ~name generate] builds an oracle. *)
val make :
  name:string ->
  (Sim.Failure_pattern.t -> Sim.Rng.t -> 'a history) ->
  'a t

(** [const ~name v] always outputs [v] — the trivial detector. *)
val const : name:string -> 'a -> 'a t

(** The product detector [(D, D')] of the paper: outputs the pair of both
    components' outputs. *)
val product : 'a t -> 'b t -> ('a * 'b) t

val map : name:string -> ('a -> 'b) -> 'a t -> 'b t

(** [default_stabilization fp rng] picks a per-run stabilization time: a
    point comfortably after the last crash, with some random slack.  Used by
    the concrete detectors to decide when their "eventually ..." clauses
    kick in. *)
val default_stabilization : Sim.Failure_pattern.t -> Sim.Rng.t -> int

(** [of_outputs ~init events] reads an output stream as a history, so
    the detectors' [check]s judge what an emulation or an extraction
    output: at [(p, t)] it is [p]'s latest output at or before [t] (of
    two at one time, the later in [events]), or [init] before [p]'s first
    output.  [events] may come in any order. *)
val of_outputs : init:'a -> 'a Sim.Trace.event list -> 'a history

(** [per_query rng p t] derives a deterministic random stream for query
    [(p, t)] — this is how oracles produce history-consistent noise. *)
val per_query : Sim.Rng.t -> Sim.Pid.t -> int -> Sim.Rng.t
