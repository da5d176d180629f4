(** The chaos harness: run a cluster under a {!Nemesis} schedule and check
    the paper's guarantees online (docs/FAULTS.md).

    {2 The core}

    One core drives this module's SMR configuration, [Shard.Chaos] and
    [Ec.Chaos].  Each replica group gets a {!Nemesis} controller; each
    node's transport is [node → Rel → Nemesis → hub].  The nemesis clock
    ticks once per round, so a run — logs and event trace alike — is a
    deterministic function of [(seed, schedule, workload)].

    Besides the harness's invariants the core judges every group's logs
    by {!Cons.Log_spec}, keyed by [cmd] over the [submitted] commands:
    its safety half (integrity, total order over every log, crashed
    replicas' included) every 50 rounds and at the end, the whole
    specification at the end (survivors' logs identical, and no command
    missing at a live replica).  Uniform agreement and validity are owed only while a
    majority of the group's current members is alive: without a live
    majority the model owes nothing.  The core also checks {b
    reconvergence} (with [reagree]: one common live leader within
    [heal_bound] rounds of each [Heal], observed in the [metric]
    histogram) and {b progress} (while {!Nemesis.healthy} and the
    specification finds a command missing, the applied total grows
    within [watchdog] rounds). *)

(** One replica group whose logs hold ['e] entries. *)
type 'e group = {
  step : Sim.Pid.t -> unit;
  crash : Sim.Pid.t -> unit;
  alive : Sim.Pid.t -> bool;
  members : unit -> Sim.Pid.t list;  (** the current configuration *)
  log : Sim.Pid.t -> 'e list;  (** applied log, in slot order *)
  cmd : 'e -> string option;
      (** the workload command an entry applies: its key in
          {!Cons.Log_spec} *)
}

(** [online r] runs after every round [r], [final] after the last; both
    report through {!fail}. *)
type invariant = { online : int -> unit; final : unit -> unit }

(** [leader g p]: the leader replica [p] of group [g] trusts. *)
type reagree = {
  leader : int -> Sim.Pid.t -> Sim.Pid.t;
  metric : string;
  heal_bound : int;
}

type heal = { heal_round : int; reconverged_in : int option }

(** The core's part of a report and the harness's [detail]. *)
type 'a report = {
  rounds_run : int;
  submitted : int;
  logs_identical : bool;
      (** every group's final logs met integrity, total order and
          agreement *)
  all_applied : bool;  (** no group's specification found a command missing *)
  heals : heal list;  (** in schedule order; empty without [reagree] *)
  failures : string list;  (** empty = every invariant held *)
  nemesis : Nemesis.stats;  (** summed over groups *)
  rel_retransmits : int;
  detail : 'a;
}

type 'e t

(** [groups] controllers (default 1) over [n] pids, group [g] seeded
    [seed + g].  [logs] and [cmds] name the logs and the commands in
    failure messages (default ["logs"] and ["commands"]). *)
val create :
  ?collector:Obs.Collector.t ->
  ?groups:int ->
  ?logs:string ->
  ?cmds:string ->
  seed:int ->
  n:int ->
  Nemesis.schedule ->
  'e t

val sink : _ t -> Sim.Event.sink option
val metrics : _ t -> Obs.Metrics.t option
val ctrl : _ t -> int -> Nemesis.ctrl

(** [wrap h g p raw]: node [p] of group [g] over [Rel] over [Nemesis]. *)
val wrap : _ t -> int -> Sim.Pid.t -> Transport.t -> Transport.t

(** [fail h fmt] reports a failure of the run or of one event, such as a
    heal or a read; [fail_at h r fmt] one seen at round [r], whose line
    is "round r" followed by the text ([fail_at h r ": %s" e] reads
    "round r: e").  Each violation is reported once: a failure whose
    text, apart from its round, an earlier one had is dropped. *)
val fail : _ t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val fail_at : _ t -> int -> ('a, Format.formatter, unit, unit) format4 -> 'a

val live : _ t -> int -> Sim.Pid.t list

(** A majority of the group's current members is alive. *)
val quorate : _ t -> int -> bool

(** [submitted h g origin cmd] records a workload command. *)
val submitted : _ t -> int -> Sim.Pid.t -> string -> unit

val n_submitted : _ t -> int

(** [pairs f l] calls [f p q] for each pair of [l], [p] before [q]. *)
val pairs : ('a -> 'a -> unit) -> 'a list -> unit

(** [check r] every 50 rounds and after the last round. *)
val sampled : _ t -> (int -> unit) -> invariant

val at_end : (unit -> unit) -> invariant

(** A {!Local} cluster as one group of all its pids; its log holds SMR
    entries of string commands. *)
val local :
  (int * string Cons.Smr.cmd) t ->
  (_, _, _, _) Local.cluster ->
  (Sim.Pid.t -> (int * string Cons.Smr.cmd) list) ->
  (int * string Cons.Smr.cmd) group

(** One round: per group, tick its controller, crash the nodes it
    killed and step the live ones (a skewed node every k-th round);
    then the online clauses.  For a harness that must advance the
    cluster inside {!drive}, such as a read waiting for its quorum. *)
val round : _ t -> unit

(** Rounds up to [rounds] with [workload r] after each, then the final
    clauses and the report.  The clock and the watchdog run before the
    harness's [invariants], the log checks after. *)
val drive :
  'e t ->
  'e group array ->
  ?reagree:reagree ->
  watchdog:int ->
  rounds:int ->
  workload:(int -> unit) ->
  detail:(unit -> 'a) ->
  invariant list ->
  'a report

val ok : _ report -> bool

(** [pp head]: the rounds line, [head], the totals and the failures. *)
val pp :
  (Format.formatter -> 'a report -> unit) ->
  Format.formatter ->
  'a report ->
  unit

val pp_ints : Format.formatter -> int array -> unit

(** The logs and completion lines; the string follows "identical". *)
val pp_agreement : string -> Format.formatter -> _ report -> unit

(** One line per heal, naming the leader. *)
val pp_heals : string -> Format.formatter -> _ report -> unit

(** {2 The SMR configuration}

    The {!Local} SMR cluster with one invariant of its own, {b Σ
    intersection} (paper Section 2): every 50 rounds [Fd.Sigma.safety]
    over every quorum a live replica held at a sampled round, each timed
    by the round it was first seen.  Heal bound 1200 rounds
    ([net.partition_heal_ms]), watchdog 800. *)

type config = {
  n : int;  (** cluster size *)
  seed : int;  (** nemesis RNG seed *)
  rounds : int;  (** round-robin rounds to drive *)
  period : int;  (** Ω heartbeat period, in node steps *)
  detector : Fd.Emulated.Omega.kind;
      (** Ω backend under test (default [Heartbeat]) *)
  window : int;  (** {!Cons.Smr} pipelining window on every replica *)
  schedule : Nemesis.schedule;
  cmds : int;  (** client commands submitted over the run *)
  cmd_every : int;  (** rounds between command submissions *)
}

(** 2500 rounds, period 16, window 4 (the {e pipelined} replica), 20
    commands every 100 rounds. *)
val default : n:int -> schedule:Nemesis.schedule -> config

type smr = { applied : int array  (** applied-log length per replica *) }

val pp_report : Format.formatter -> smr report -> unit

(** [collector]'s sink receives every node's events and the nemesis
    events as one stream, ready for {!Obs.Jsonl.write_run}. *)
val run : ?collector:Obs.Collector.t -> config -> smr report
