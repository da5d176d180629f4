(** One-call runners for every algorithm in the library, returning a uniform
    summary — the workhorse behind the examples, [bin/simulate.exe] and the
    simulator claims of {!Claims}.

    The entry point is {!run}: a {!workload} (what to execute) under a
    {!Scenario.t}, driven by a seed, an optional step bound and an optional
    trace path.  Every message-passing run delivers FIFO. *)

(** Outcome of one run. *)
type summary = {
  algorithm : string;
  detector : string;
  scenario : string;
  terminated : bool;  (** every correct process produced its output *)
  spec_ok : (unit, string) result;  (** the problem's checker verdict *)
  decision : string;  (** human-readable decision(s), "-" if none *)
  latency : int option;  (** global time of the last first-output *)
  steps : int;
  messages : int;
  metrics : (string * int) list;
      (** observability metric rows (name-sorted; see docs/OBSERVABILITY.md
          for the glossary).  Empty unless the run was traced ({!run}'s
          [?trace]). *)
}

val pp_summary : Format.formatter -> summary -> unit

(** [decision_summary ~algorithm ~detector scenario problem trace]
    summarises a run of a decision problem under [scenario]: its verdict
    under {!Cons.Spec.check} and its distinct decided values. *)
val decision_summary :
  algorithm:string ->
  detector:string ->
  Scenario.t ->
  'v Cons.Spec.problem ->
  ('st, 'v) Sim.Trace.t ->
  summary

(** Consensus algorithms on the message-passing engine (plus the
    shared-memory Disk Paxos). *)
type consensus_algo =
  | Quorum_paxos  (** native (Ω, Σ) Paxos — Corollary 2, direct *)
  | Disk_paxos_shm  (** registers + Ω on the shared-memory engine [19] *)
  | Disk_paxos_abd  (** Disk Paxos over ABD registers — Corollary 2 as
                        composed in the paper *)
  | Chandra_toueg  (** ◇S rotating coordinator [4] — majority baseline *)
  | Multivalued of int  (** bit-by-bit lift of binary (Ω, Σ) Paxos [20] *)

val consensus_algo_name : consensus_algo -> string

(** NBAC solutions. *)
type nbac_algo =
  | Nbac_psi_fs  (** NBAC from QC + FS (Figure 4), on (Ψ, FS) *)
  | Two_phase_commit  (** blocking baseline *)

(** What to execute: each constructor names one of the paper's problems
    with its problem-specific inputs ([None] = the historical default).
    Engine plumbing (seed, step bound, trace) is {!run}'s arguments. *)
type workload =
  | Consensus of {
      algo : consensus_algo;
      proposals : (Sim.Pid.t * int) list option;
          (** default: alternating 0/1 *)
    }
  | Quittable_consensus of { mode : Fd.Psi.mode option }
      (** [mode] forces the Ψ branch; [None] lets the oracle choose *)
  | Nbac of {
      algo : nbac_algo;
      votes : (Sim.Pid.t * Qcnbac.Types.vote) list option;
          (** default: everyone votes Yes *)
    }
  | Registers of {
      ops_per_proc : int;
      registers : int;
      quorums : [ `Sigma | `Majority ];
          (** quorum source: Σ oracle or fixed majorities *)
    }
  | Sigma_extraction  (** Figure 1 transformation, judged by [Fd.Sigma.check] *)
  | Psi_extraction of { rounds : int; chunk : int }
      (** Figure 3 transformation, judged by [Fd.Psi.check] *)

(** [run ~seed workload scenario] executes one workload instance and
    checks its problem specification.  [seed] is the root seed for the
    oracles, schedulers and workloads; [max_steps] bounds the engine's
    steps (default: the workload's own bound).  ([Psi_extraction] drives
    its own engine instances: it ignores [max_steps].)

    When [trace] is set, the run is executed with an observability
    collector installed: its JSONL trace (events, metrics, profile — see
    docs/OBSERVABILITY.md) is written to that path and the collected
    metric rows are returned in [summary.metrics].  Without it the run is
    fully uninstrumented. *)
val run :
  ?max_steps:int -> ?trace:string -> seed:int -> workload -> Scenario.t ->
  summary

(** {2 Model checking}

    The search knobs live in a single {!Mc.Harness.opts} record
    (re-exported here as {!mc_opts} so the [mc] executable — whose own
    compilation unit shadows the [Mc] library module — never needs the
    [Mc] path).  All domain counts, including 1, run through the
    deterministic parallel explorer {!Mc.Parallel}: the summary is
    bit-identical whatever [opts.domains] is. *)

(** Re-export of {!Mc.Harness.opts}. *)
type mc_opts = Mc.Harness.opts = {
  explorer : Mc.Harness.explorer;
  domains : int;
  budget : int;
  inner_budget : int;
  max_crashes : int;
  horizon : int;
  stride : int;
  d : int option;
  shrink : bool;
  seed : int;
}

(** {!Mc.Harness.default_opts}. *)
val mc_default_opts : mc_opts

type mc_summary = {
  target : string;
  explorer : string;
  patterns : int;  (** failure patterns explored *)
  schedules : int;  (** runs executed *)
  mc_steps : int;  (** total process steps across all runs *)
  exhausted : bool;  (** the (bounded) space was fully explored *)
  counterexample : Mc.Harness.counterexample option;
}

val pp_mc_summary : Format.formatter -> mc_summary -> unit

(** [model_check ?opts name ~n] runs the crash-injection adversary
    (patterns with at most [opts.max_crashes] crashes on the
    [opts.stride]-spaced time grid up to [opts.horizon]) with the
    configured inner schedule explorer against the registered target
    [name] (see {!Mc.Targets.names}), on [opts.domains] domains.
    [Error _] on an unknown target name or invalid [opts] (e.g. a PCT
    depth [d] combined with a non-PCT explorer — it would be silently
    ignored).

    [?trace] writes a JSONL observability record to the given path: the
    search summary as metadata plus, when a counterexample was found, the
    event trace of its deterministic replay.  The search itself is never
    instrumented — the explorer's helper domains would race on a collector —
    so the summary (and the trace file minus its profile record) is
    bit-identical across domain counts. *)
val model_check :
  ?opts:mc_opts -> ?trace:string -> string -> n:int -> (mc_summary, string) result

(** [model_check_scenario ?opts name scenario] explores schedules under the
    scenario's fixed failure pattern only; the whole [opts.budget] goes to
    that single pattern.  [?trace] as in {!model_check}. *)
val model_check_scenario :
  ?opts:mc_opts ->
  ?trace:string ->
  string ->
  Scenario.t ->
  (mc_summary, string) result

(** The registered model-checking target names ({!Mc.Targets.names}). *)
val mc_targets : string list

type mc_replay_report = {
  re_schedule : string;  (** the parsed schedule, re-serialized *)
  re_outputs : string;  (** rendered output events of the replayed run *)
  re_violation : string option;
}

(** [mc_replay name ~n ~seed ~schedule] replays a serialized counterexample
    schedule against a registered target.  A schedule that does not parse,
    or whose crash list is not a legal failure pattern for [n] processes
    (a pid out of range, a pid crashed twice, a negative time, no correct
    process), is an [Error "bad schedule: …"].  [?trace] writes the
    replayed run's JSONL observability record to the given path. *)
val mc_replay :
  ?trace:string ->
  string ->
  n:int ->
  seed:int ->
  schedule:string ->
  (mc_replay_report, string) result
