(** Scriptable fault injection over any {!Transport.t} — the adversary of
    the net runtime (docs/FAULTS.md).

    The paper's theorems are quantified over failure patterns and
    environments: what survives crashes, unstable periods, and healing.
    The simulator explores those adversarially; [Nemesis] drives the same
    hostile conditions through a *running* transport, per directed peer
    pair: message drop and duplication with seeded probabilities, delay
    with bounded jitter (which reorders), symmetric and asymmetric
    partitions with heal, periodic link flap, and per-process clock skew
    (honoured by the cluster driver, see {!Chaos}), all scripted by a
    declarative {!schedule}.

    Time is a logical tick counter advanced explicitly by {!tick} (the
    chaos harness ticks once per cluster round), so a run is a pure
    function of [(seed, schedule, workload)] — every chaos run is
    replayable bit-for-bit.

    Faults apply on the send side of the wrapped transport.  Frames a
    process sends to itself are never perturbed (a process is not
    partitioned from itself).  With an empty schedule the wrapper draws no
    randomness and forwards every frame untouched: it is observationally
    identical to the bare transport (a QCheck property in
    [test/test_chaos.ml] compares whole-cluster traces byte for byte).

    Note that dropping frames breaks the model's link axiom — reliable
    delivery between correct processes — which every protocol automaton
    in this repository assumes.  {!Rel} restores the axiom on top of a
    nemesis-perturbed transport; the stack under chaos is
    [node → Rel.wrap → Nemesis.wrap → raw transport]. *)

(** {2 Schedules} *)

(** A directed link pattern: [None] is a wildcard.  [{src = Some 0; dst =
    None}] is every link out of process 0. *)
type link = { src : Sim.Pid.t option; dst : Sim.Pid.t option }

(** One scripted command.  Probabilities are per frame; delays are in
    ticks.  [Partition] cuts every link crossing group boundaries
    (processes not listed form singleton groups); [Cut] severs single
    directed links on top of whatever is in force; [Heal] removes all
    cuts and flaps (rates and delays persist); [Clear] resets every fault
    including skew. *)
type cmd =
  | Partition of Sim.Pidset.t list
  | Isolate of Sim.Pid.t  (** cut all links to and from one process *)
  | Deisolate of Sim.Pid.t
      (** reopen all links (cuts and flaps) to and from one process,
          leaving faults between other processes in force — the selective
          inverse of [Isolate], for schedules that heal nodes one at a
          time *)
  | Cut of link
  | Heal
  | Drop of link * float  (** drop probability in [0,1] *)
  | Duplicate of link * float  (** duplication probability in [0,1] *)
  | Delay of link * int * int  (** base delay, jitter bound (ticks) *)
  | Flap of link * int * int
      (** [Flap (l, period, down)]: link cut while [tick mod period < down] *)
  | Skew of Sim.Pid.t * int
      (** process steps once per [k] cluster rounds (a slow clock) *)
  | Kill of Sim.Pid.t
      (** crash-stop: the cluster driver stops stepping the process and
          silences its frames ({!Loopback.crash}).  Never undone — the
          paper's crashes are permanent; [Clear] does not resurrect. *)
  | Clear

(** Commands with their firing tick, ascending.  Commands at tick [t]
    apply when {!tick} advances the clock to [t] (tick 0 applies at
    {!create}); same-tick commands apply in list order. *)
type schedule = (int * cmd) list

(** [parse_schedule text] reads the grammar of docs/FAULTS.md: one
    [at TICK COMMAND] per line, [#] comments.  Errors name the line. *)
val parse_schedule : string -> (schedule, string) result

(** [load_schedule path] is {!parse_schedule} on a file's contents. *)
val load_schedule : string -> (schedule, string) result

(** [check ~n schedule] — every process a command names is in [0..n-1];
    the error names the first offending command.  {!create} enforces it,
    so a schedule is checked once, never per frame. *)
val check : n:int -> schedule -> (unit, string) result

val pp_cmd : Format.formatter -> cmd -> unit

(** {2 The controller} *)

(** Shared fault state for one cluster: all wrapped endpoints consult (and
    draw randomness from) the same controller, which is what makes the
    per-pair fault matrix and the tick clock globally consistent.
    Single-threaded by design: replayability requires the deterministic
    round-robin driver ({!Local}, {!Chaos}). *)
type ctrl

(** [create ~n schedule] — [seed] defaults to 0; [metrics] receives the
    [net.dropped] / [net.duplicated] / [net.reordered] counters; [sink]
    receives one [Metric] event per applied command (named
    [nemesis.<command>], value = tick).  Raises [Invalid_argument] if
    the schedule fails {!check}. *)
val create :
  ?seed:int ->
  ?sink:Sim.Event.sink ->
  ?metrics:Obs.Metrics.t ->
  n:int ->
  schedule ->
  ctrl

(** [wrap ctrl t] perturbs [t]'s outbound frames per the controller's
    current fault state.  [stats]/[close] delegate to [t]. *)
val wrap : ctrl -> Transport.t -> Transport.t

(** Advance the logical clock one tick and apply the schedule commands
    that fire at the new time. *)
val tick : ctrl -> unit

val now : ctrl -> int

(** Step divisor of a process under [Skew] (1 = full speed). *)
val skew_of : ctrl -> Sim.Pid.t -> int

(** Whether a [Kill] for this process has fired. *)
val killed : ctrl -> Sim.Pid.t -> bool

(** No cut, flap or drop rate currently in force: the network delivers
    (possibly late), so the progress watchdog may demand progress. *)
val healthy : ctrl -> bool

(** Some cut or flap is currently in force (used by {!Chaos} to suspend
    convergence checks during partitions). *)
val cut_active : ctrl -> bool

(** Some process currently has uncut links, both ways, to a majority of
    the [n] processes (itself included): the cuts leave a majority
    component, so a quorum can still form. *)
val majority_component : ctrl -> bool

(** {2 Accounting} *)

type stats = {
  n_dropped : int;  (** frames dropped, by rate or by cut *)
  n_duplicated : int;
  n_reordered : int;  (** frames whose jittered release overtook a peer *)
  n_delayed : int;  (** frames held at least one tick *)
}

val stats : ctrl -> stats
