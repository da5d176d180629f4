(** One-call runners for every algorithm in the library, returning a uniform
    summary — the workhorse behind [bin/simulate.exe] and the simulator
    claims of {!Claims}.

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
