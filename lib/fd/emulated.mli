(** Message-passing {e implementations} of failure detectors.

    The paper notes (Section 1) that Σ can be implemented "ex nihilo" in
    environments with a majority of correct processes, and it is classical
    that Ω is implementable from heartbeats once the network is eventually
    timely.  These implementations plug under any protocol via
    {!Sim.Layered.with_detector}.  docs/DETECTORS.md is the catalogue: per
    backend, its message complexity, liveness precondition and the paper
    clause it realises. *)

(** The adaptive per-peer timeout discipline shared by every
    heartbeat-based backend ({!Omega_heartbeat}, {!Omega_ec},
    {!Omega_ring}): a [last_heard] clock and a timeout per peer, where
    {e every false suspicion grows the wrongly-suspected peer's timeout by
    one period}.  Under partial synchrony the delays are eventually
    bounded, so each timeout grows at most finitely often and false
    suspicions vanish; timeouts never shrink, so a crashed peer stays
    convicted.  Timeouts start at [4 * period].

    A [t] is a value, like every protocol state ({!Sim.Protocol}):
    [heard] and [grant] return the updated discipline and leave their
    argument unchanged. *)
module Adaptive : sig
  type t

  val create : n:int -> period:int -> t

  (** [heard t ~clock q]: a heartbeat from [q] arrived at local time
      [clock].  If [q] was timed out, the suspicion was false — its
      timeout grows by one period.  [q]'s last-heard time becomes
      [clock]. *)
  val heard : t -> clock:int -> Sim.Pid.t -> t

  (** Has [q]'s silence exceeded its timeout? *)
  val timed_out : t -> clock:int -> Sim.Pid.t -> bool

  (** [grant t ~clock q] resets [q]'s silence clock without the
      false-suspicion growth — the grace given when a host {e starts}
      monitoring [q] (the ring detector re-aiming at a new predecessor),
      so stale pre-monitoring silence never convicts. *)
  val grant : t -> clock:int -> Sim.Pid.t -> t

  (** Current timeout of [q], in local steps. *)
  val timeout : t -> Sim.Pid.t -> int
end

(** Σ from a correct majority: each process repeatedly sends a
    join-quorum request to its [n - 1] peers, counts itself as the first
    responder, and adopts the first majority of responders as its quorum.
    Any two majorities intersect; eventually responders are all correct.
    Liveness (quorum refresh) requires a correct majority — in
    minority-correct runs the output goes stale, which is exactly why Σ is
    not implementable for free in such environments. *)
module Sigma_majority : sig
  type state

  (** Public so hosts can give it a binary wire representation
      ([Net.Codecs]); treat it as read-only. *)
  type msg = Join of int | Ack of int

  (** Continuous refresh: the next join-quorum round starts the moment the
      previous one completes.  Freshest quorums, and 2(n-1) frames per
      round trip — the dominant term of the all-to-all detector stack's
      wire cost. *)
  val detector : (state, msg, Sim.Pidset.t) Sim.Layered.emulated

  (** [detector_paced ~period] starts a new join round once the previous
      one has completed {e and} at least [period] steps have passed since
      this process's previous Join ([period <= 0] = continuous; the first
      Join leaves on the first step).  Same safety — a held quorum is
      still a genuine majority snapshot, and any two majorities intersect
      however stale — at about [1/period] of the refresh traffic; the
      quorum is just older, which Σ's spec permits.  [Net.Smr_node] paces
      Σ this way under both Ω backends (docs/DETECTORS.md). *)
  val detector_paced : period:int -> (state, msg, Sim.Pidset.t) Sim.Layered.emulated

  (** Number of completed join-quorum rounds — exposed for tests. *)
  val rounds : state -> int
end

(** Epoch-aware Σ for reconfigurable groups (docs/SHARDING.md).

    Like {!Sigma_majority}, but quorums are majorities of an explicit
    {e member set} that can change across numbered epochs, not of the
    whole process universe.  Join requests and acks carry the epoch:
    only current members ack, only same-epoch majorities form quorums,
    and — the handoff contract — {!set_config} discards the old-epoch
    quorum immediately, so {b no quorum from epoch [e] is honoured after
    epoch [e+1] activates}.  Between activation and the first completed
    join round of the new epoch the output is the full new member set,
    which intersects every majority of itself.

    The host is responsible for calling {!set_config} at a point all
    correct processes agree on — [Shard.Replica] does it when the
    [Reconfig] command is {e applied} from the shard's own decided log,
    which every replica does at the same slot. *)
module Sigma_epoch : sig
  type state

  (** Public so hosts can give it a binary wire representation
      ([Shard.Replica]); treat it as read-only. *)
  type msg =
    | Join of { epoch : int; round : int }
    | Ack of { epoch : int; round : int }

  (** Install configuration [epoch] (members [members]), discarding any
      quorum formed under previous epochs.  A host calls it through
      [Sim.Layered.with_detector]'s [feedback] hook. *)
  val set_config : state -> epoch:int -> members:Sim.Pidset.t -> state

  (** The current quorum — of the current epoch only. *)
  val current : state -> Sim.Pidset.t

  (** The detector over the epoch-0 membership [members]. *)
  val detector : members:Sim.Pidset.t -> (state, msg, Sim.Pidset.t) Sim.Layered.emulated

  (** Completed join-quorum rounds (across all epochs). *)
  val rounds : state -> int

  val epoch : state -> int
  val members : state -> Sim.Pidset.t

  (** The epoch the currently held quorum was formed in — equal to
      {!epoch} by construction; exposed so tests can assert the handoff. *)
  val quorum_epoch : state -> int
end

(** Ω from all-to-all heartbeats with {!Adaptive} timeouts.  Correct under
    the [Partial_synchrony] delivery policy: after GST heartbeats arrive
    within a bounded delay, timeouts stop growing, and every correct
    process eventually trusts the same smallest correct process.  Each
    heartbeat goes to the [n - 1] peers only, so it costs [n - 1] frames
    per process per period — the O(n²) wall that {!Omega_ring} removes. *)
module Omega_heartbeat : sig
  type state

  (** Public so hosts can give it a binary wire representation
      ([Net.Codecs]); treat it as read-only. *)
  type msg = Alive

  (** [detector ~period] emits a heartbeat every [period] local steps.
      The initial timeout is [4 * period]; each false suspicion bumps the
      timeout for the wrongly suspected process.  Its [current] is the
      first pid that is this process or unsuspected: a host reads it on
      every node step, so it is one O(n) scan over {!suspected} that
      allocates nothing. *)
  val detector : period:int -> (state, msg, Sim.Pid.t) Sim.Layered.emulated

  (** [suspected st q]: [q] is another process whose silence exceeds its
      {!Adaptive} timeout.  O(1); never holds for this process itself. *)
  val suspected : state -> Sim.Pid.t -> bool

  (** The pids {!suspected} marks, as a set (built on each call). *)
  val suspects : state -> Sim.Pidset.t

  (** Current timeout for heartbeats of [q], in local steps — exposed so
      tests can assert the adaptation (a false suspicion of [q] grows it;
      it never shrinks). *)
  val timeout : state -> Sim.Pid.t -> int
end

(** The weakest failure detector for eventual consistency
    (Dubois–Guerraoui–Kuznetsov–Petit–Sens, PAPERS.md): an
    eventually-stable leader with an epoch counter, implementable in
    {e any} environment with eventually timely links — no majority
    needed, which is precisely why EC survives minority partitions
    where Σ-based registers stall.

    Mechanically this is {!Omega_heartbeat} with leader-change tracking:
    the output [(leader, epoch)] bumps [epoch] on every local leader
    change, so hosts can (a) order conflicting leadership claims and
    (b) detect instability.  After GST the output stops changing at
    every correct process and agrees on the smallest correct process. *)
module Omega_ec : sig
  type state

  (** Public so hosts can give it a binary wire representation
      ([Ec.Codecs]); treat it as read-only. *)
  type msg = Alive

  (** [detector ~period] emits a heartbeat every [period] local steps,
      with the same adaptive-timeout discipline as {!Omega_heartbeat}.
      Each step reads the leader by the same allocation-free scan over
      {!suspected}; [current] returns the pair that step recorded. *)
  val detector : period:int -> (state, msg, Sim.Pid.t * int) Sim.Layered.emulated

  (** As {!Omega_heartbeat.suspected}: another process timed out. *)
  val suspected : state -> Sim.Pid.t -> bool

  (** The pids {!suspected} marks, as a set (built on each call). *)
  val suspects : state -> Sim.Pidset.t

  (** Number of local leader changes so far — exposed for tests and the
      chaos harness's post-heal stability check. *)
  val epoch : state -> int

  val timeout : state -> Sim.Pid.t -> int
end

(** Chain-ordered ◇S (à la Cistern's "optimal ◇S", SNIPPETS.md), read as
    Ω through the classical ◇S ≅ Ω equivalence: processes form a ring in
    id order over the currently-unsuspected ids; each process {b
    heartbeats only its successor and monitors only its predecessor}, so
    steady-state detector traffic is one frame per process per period —
    O(n) total against {!Omega_heartbeat}'s O(n²).

    The leader is the smallest unsuspected id.  A predecessor whose
    silence exceeds its {!Adaptive} timeout is convicted and the
    conviction broadcast ([Suspect p]); every receiver excises [p] from
    its ring, which re-closes the chain around the crash — the convicting
    process starts monitoring the next id back (with a grace reset), and
    whoever heartbeated [p] now heartbeats past it.  A cascade of crashes
    repairs the same way, one excision at a time.

    False convictions heal in two redundant ways: a suspected process
    that receives its own conviction broadcasts [Refute self], and a
    successor that receives a heartbeat from a suspected predecessor
    broadcasts the retraction on its behalf.  Either way every receiver
    reinstates the process {e and} grows its timeout (the false suspicion
    is the adaptation signal), so post-GST convictions of live processes
    stop altogether; conviction/retraction traffic is transient and
    vanishes with them. *)
module Omega_ring : sig
  type state

  (** Public so hosts can give it a binary wire representation
      ([Net.Codecs]); treat it as read-only.  [Hb] flows point-to-point
      along the ring; [Suspect]/[Refute] are broadcast repair traffic.
      A [Suspect] or [Refute] naming a pid outside [0 .. n-1] is
      ignored. *)
  type msg = Hb | Suspect of Sim.Pid.t | Refute of Sim.Pid.t

  (** [detector ~period] heartbeats the successor every [period] local
      steps; timeouts follow the {!Adaptive} discipline. *)
  val detector : period:int -> (state, msg, Sim.Pid.t) Sim.Layered.emulated

  (** The smallest unsuspected id — what {!detector}'s [current]
      outputs: one O(n) scan over {!suspected} that allocates nothing. *)
  val leader : state -> Sim.Pid.t

  (** [suspected st q]: [q] is in this process's suspect set (convicted
      or learnt through [Suspect], not yet refuted).  O(log n); never
      holds for this process itself. *)
  val suspected : state -> Sim.Pid.t -> bool

  (** The current suspect set, the one {!suspected} reads. *)
  val suspects : state -> Sim.Pidset.t

  (** Ring successor / predecessor in the current local view — exposed so
      tests can assert the chain re-closes around an excised id. *)
  val succ : state -> Sim.Pid.t

  val pred : state -> Sim.Pid.t

  (** Current timeout for [q], in local steps (see {!Adaptive}). *)
  val timeout : state -> Sim.Pid.t -> int
end

(** The Ω backend selector: one state/message type over
    {!Omega_heartbeat} and {!Omega_ring}, so hosts ([Net.Smr_node],
    [Shard.Replica]) expose a [--detector {heartbeat,ring}] knob without
    changing their own state or wire types.  Dispatch follows the state's
    constructor; a frame of the other backend's variant is ignored. *)
module Omega : sig
  type kind = Heartbeat | Ring

  (** Public so hosts can give it a binary wire representation
      ([Net.Codecs]); treat it as read-only. *)
  type msg = H of Omega_heartbeat.msg | R of Omega_ring.msg

  type state = HS of Omega_heartbeat.state | RS of Omega_ring.state

  (** ["heartbeat"] / ["ring"] — the CLI flag values and the
      [fd.frames{detector=...}] metric labels. *)
  val kind_name : kind -> string

  (** Which backend a running state is. *)
  val kind : state -> kind

  (** [detector ~kind ~period] — {!Omega_heartbeat.detector} or
      {!Omega_ring.detector} behind the shared types. *)
  val detector : kind:kind -> period:int -> (state, msg, Sim.Pid.t) Sim.Layered.emulated

  (** The current leader estimate, whichever backend runs: the first
      pid that is this process or not {!suspected}.  A host reads it on
      every node step ({!Sim.Layered.with_detector}); it is one O(n)
      scan that allocates nothing. *)
  val current : state -> Sim.Pid.t

  (** The running backend's suspicion predicate, never true of this
      process itself.  Hosts that restrict the leader to a subset of
      pids ([Shard.Replica]'s members) scan through it. *)
  val suspected : state -> Sim.Pid.t -> bool

  (** The pids {!suspected} marks, as a set. *)
  val suspects : state -> Sim.Pidset.t
  val timeout : state -> Sim.Pid.t -> int
end
