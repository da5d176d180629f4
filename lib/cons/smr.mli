(** State machine replication from repeated consensus — the Lamport /
    Schneider reduction [17, 21] the paper leans on for Corollary 3:
    "using consensus we can implement any object, and in particular
    registers".

    Clients submit commands; submissions are disseminated to every
    process; consensus instances decide *batches* of commands (the
    proposer drains its pending queue, up to [batch_max], into one
    instance — quorum round-trips amortise over many commands); every
    process applies decided batches in instance order and numbers the
    surviving commands with consecutive log indices.  Two processes
    therefore apply identical command sequences — which is exactly what
    makes any deterministic object, registers included, implementable on
    top (see [Smr_register] in the tests and the replicated-counter
    example).

    With [window] > 1 the proposer keeps up to [window] instances in
    flight (pipelining): a slow quorum round-trip no longer serialises
    throughput.  Decisions may then land out of order; application is
    still strictly in instance order, and a command decided by two
    different instances (possible under leadership churn, because Paxos
    value inheritance can resurrect a batch its proposer already
    re-proposed) is applied exactly once — an apply-time key guard skips
    the second decision.

    Exactly-once bookkeeping — the commands a process has seen and the
    ones it has applied, and the keys of each decided batch — is kept in
    {!Seen} key sets: per origin, one run of consecutive seqs, plus the
    few keys outside it.  Origins number their commands 0, 1, 2, …,
    nearly all arrive in order, and a batch drained from the FIFO
    pending queue holds one run per origin, so each check or insertion
    costs one map lookup over the n origins and an int compare or two,
    and the key sets take O(n + out-of-order keys) memory rather than
    O(commands ever submitted).  The decided batches and the
    per-instance consensus states still grow without bound:
    {!decided_from} serves catch-up from instance 0, and truncating them
    needs a checkpoint.

    The consensus box is the (Ω, Σ) quorum Paxos, so SMR runs in any
    environment. *)

(** A command stamped with its origin, so duplicates and ownership are
    recognisable. *)
type 'c cmd = { origin : Sim.Pid.t; seq : int; payload : 'c }

type 'c state

(** Public so hosts can give the message tower a binary wire
    representation (see [Net.Codecs]); treat it as read-only. *)
type 'c msg =
  | Submit of 'c cmd list
      (** every command accepted between two steps, one frame; a
          receiver drops the commands whose origin is not the sender *)
  | Inner of int * 'c cmd list Quorum_paxos.msg

(** Outputs: decided log entries, emitted by every process in log order
    (log index, command) — indices are consecutive from 0 regardless of
    batch boundaries. *)
val protocol :
  ('c state, 'c msg, Sim.Pid.t * Sim.Pidset.t, 'c, int * 'c cmd)
  Sim.Protocol.t

(** [make ~window ~batch_max ()] — the configurable instantiation.
    [window] (default 1) caps in-flight instances; [batch_max] (default
    1024) caps commands per batch.  {!protocol} is [make ()].

    Safety note for hosts that derive configuration from the log itself
    ([Shard.Replica]): the epoch-handoff argument requires every proposer
    of instance [j] to have applied the same prefix, which holds only at
    [window = 1].  Static-membership hosts ([Net.Smr_node]) may pipeline
    freely. *)
val make :
  ?window:int ->
  ?batch_max:int ->
  unit ->
  ('c state, 'c msg, Sim.Pid.t * Sim.Pidset.t, 'c, int * 'c cmd)
  Sim.Protocol.t

(** Number of log entries (commands) a process has applied. *)
val applied : 'c state -> int

(** Number of consensus instances applied — the cursor snapshot exchange
    runs on ({!decided_from} / {!install} are instance-granular). *)
val applied_instances : 'c state -> int

(** Commands known to a process but not yet decided (pending + in-flight
    proposals). *)
val backlog : 'c state -> int

(** Number of commands this process has submitted via [on_input] — the next
    submission gets this as its [seq].  Client front-ends use it to pair a
    submission with its decided log entry. *)
val submitted : 'c state -> int

(** Number of consensus instances this process has participated in (as
    proposer or acceptor) — exposed so tests can assert that idle ticks
    and empty queues burn no instances. *)
val instances_touched : 'c state -> int

(** {2 Snapshot plumbing}

    Log catch-up for processes that missed decisions (a partitioned
    straggler, a member installed by a reconfiguration): any process can
    serve its gapless decided prefix, and the receiver installs it without
    re-running consensus — the decided instances are already fixed.
    [Shard.Replica] builds its snapshot-request / snapshot-reply exchange
    on these. *)

(** [slot_of_msg m] is the consensus instance an inner message belongs to
    ([None] for command dissemination) — how a host protocol notices it is
    lagging behind the instances its peers are working on. *)
val slot_of_msg : 'c msg -> int option

(** [decided_from st ~from] is the gapless run of decided batches starting
    at instance [from]; a bound of 512 on the total *command* count keeps
    one snapshot-reply frame small. *)
val decided_from : 'c state -> from:int -> (int * 'c cmd list) list

(** [install st entries] records decided batches from a snapshot.
    Idempotent — already-decided instances are untouched and the
    apply-time key guard holds across overlapping or replayed snapshots,
    so a command can never be applied twice.  Returns the log entries
    that became applicable (in log order) for the host to emit as
    outputs. *)
val install :
  'c state -> (int * 'c cmd list) list -> 'c state * (int * 'c cmd) list
