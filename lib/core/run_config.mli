(** Engine-level plumbing shared by every {!Runner} workload.

    Every runner used to thread its own [?policy]/[?max_steps]/[~seed]
    triple; this record carries them once so a workload can be described
    separately from how it is driven ([Runner.run]). *)

type t = {
  policy : Sim.Network.policy;
      (** message-delivery policy (only the message-passing engine reads
          it; shared-memory and extraction workloads ignore it) *)
  max_steps : int option;
      (** engine step bound; [None] = the workload's own default *)
  seed : int;  (** root seed for oracles, schedulers and workloads *)
  trace : string option;
      (** when set, install an observability collector on the run and write
          its JSONL trace (events, metrics, profile — see
          docs/OBSERVABILITY.md) to this path; the collected metric rows
          also land in [Runner.summary.metrics].  [None] (the default) runs
          fully uninstrumented. *)
}

(** [make ~seed ()] builds a config; [policy] defaults to FIFO,
    [max_steps] to the per-workload default and [trace] to off. *)
val make :
  ?policy:Sim.Network.policy ->
  ?max_steps:int ->
  ?trace:string ->
  seed:int ->
  unit ->
  t

(** [steps t ~default] resolves the step bound. *)
val steps : t -> default:int -> int
