(** The replicated-log specification as one checkable predicate over
    per-process logs.

    A {!Smr} log is a total-order broadcast: Corollary 3's reduction
    (consensus implements any object) runs through it.  The clauses follow
    Aspnes' notes (arXiv:2001.04235).  A log is the entries one process
    applied, in slot order.  An entry may apply one submission, named by
    its key; an entry no client submitted, such as a reconfiguration, has
    none.

    - Integrity: no process applies a key twice, or a key nobody
      submitted.
    - Total order: any two logs, crashed processes' included, are
      prefix-compatible: one is a prefix of the other.
    - Agreement: the correct processes' logs are identical.
    - Uniform agreement: a key any process applied, crashed or not, is in
      every correct process's log.
    - Validity: a key a correct process submitted is in every correct
      process's log.

    {!safety} holds on every prefix of a run, so callers judge it online.
    {!check} judges a run that has ended.  Uniform agreement and validity
    are owed only where the caller's environment owes progress, which
    [live] says: the simulator's (Ω, Σ) runs owe it in every failure
    pattern, the chaos harnesses ([Net.Chaos]) only while a majority of a
    group's members is alive.

    The SMR simulator tests, [Net.Chaos] with its [Shard.Chaos] and
    [Ec.Chaos] configurations, and the socket clusters' final log files
    ([bin/cluster.exe demo] and [shard --transport tcp]) are judged by
    these functions.  Key sets are hashed: no clause scans a log once
    per entry, so the chaos harnesses can judge safety online. *)

type ('e, 'k) run = {
  logs : (Sim.Pid.t * 'e list) list;
      (** every process's log in slot order, crashed processes' too; a
          process missing here has an empty log *)
  correct : Sim.Pid.t list;  (** the processes that have not crashed *)
  submitted : (Sim.Pid.t * 'k) list;  (** every submission: origin, key *)
  key : 'e -> 'k option;  (** the submission an entry applies, if any *)
}

(** One clause broken, with a witness. *)
type 'k violation =
  | Duplicated of Sim.Pid.t * 'k  (** integrity: applied twice *)
  | Unsubmitted of Sim.Pid.t * 'k  (** integrity: nobody submitted it *)
  | Forked of Sim.Pid.t * Sim.Pid.t
      (** total order: neither log is a prefix of the other *)
  | Differ of Sim.Pid.t * Sim.Pid.t  (** agreement: two correct logs differ *)
  | Lost of Sim.Pid.t * 'k
      (** uniform agreement: a correct process lacks a key some process
          applied *)
  | Missing of Sim.Pid.t * 'k
      (** validity: a correct process lacks a key a correct process
          submitted *)

(** Integrity and total order: the first violation of each, in that
    order. *)
val safety : ('e, 'k) run -> 'k violation list

(** {!safety}, agreement, then, if [live], uniform agreement and
    validity: the first violation of each clause, in clause order.  The
    whole specification of a finished run. *)
val check : live:bool -> ('e, 'k) run -> 'k violation list

(** The keys uniform agreement or validity owes to some correct process
    that lacks them, in first-seen order. *)
val missing : ('e, 'k) run -> 'k list

(** ["<clause> violated: <witness>"], keys rendered by [pp_key]. *)
val pp_violation :
  (Format.formatter -> 'k -> unit) ->
  Format.formatter ->
  'k violation ->
  unit
