(** The message buffer: reliable, asynchronous links.

    Links are reliable (no loss, no duplication, no corruption) but message
    delays are finite, unbounded and variable, per the paper's model.  A
    delivery policy decides, when a process takes a step, which pending
    message (if any) it receives; all policies guarantee that every message
    sent to a correct process is eventually delivered. *)

type 'msg t

type policy =
  | Fifo
      (** per-destination FIFO: a step always receives the oldest pending
          message, delays are exactly one tick.  The most "synchronous"
          option; good for debugging. *)
  | Random_delay of { max_delay : int; lambda_prob : float }
      (** each message becomes deliverable after a uniform delay in
          [1 .. max_delay]; a step receives a uniformly chosen deliverable
          message, except that messages past their deadline are delivered
          first (this enforces eventual delivery).  With probability
          [lambda_prob] a step receives the empty message even when
          something is deliverable — modelling arbitrary interleavings. *)
  | Partial_synchrony of { gst : int; delta : int }
      (** before the global stabilization time [gst], behaves like
          [Random_delay { max_delay = 4 * delta; lambda_prob = 0.2 }];
          from [gst] on, every message (including those still in flight)
          is delivered within [delta] ticks.  Used to emulate Ω and ◇P from
          timeouts. *)
  | Partition of { groups : Pidset.t list; heal_at : int }
      (** messages crossing group boundaries are frozen until [heal_at]
          (then delivered promptly); intra-group traffic flows like [Fifo].
          Still a legal asynchronous network — delays are finite — so every
          algorithm of this library must cope.  Processes in no listed
          group form an implicit extra group. *)

(** [create policy sched] builds an empty buffer whose nondeterministic
    choices (delays, message picks, empty-message substitutions) are
    resolved by [sched] — pass [Scheduler.random rng] for the classic
    seeded behaviour. *)
val create : policy -> Scheduler.t -> 'msg t

(** [copy t ~sched] is an independent buffer holding [t]'s messages and
    counters, whose further choices [sched] resolves.  Sending to or
    delivering from either leaves the other unchanged.  {!Engine}'s
    snapshots are made of it. *)
val copy : 'msg t -> sched:Scheduler.t -> 'msg t

(** [send t ~now ~src ~dst msg] enqueues a message.  [?vc] stamps the
    envelope with the sender's vector clock (the engine passes it when a
    tracing sink is installed; it does not affect delivery or digests). *)
val send :
  ?vc:Vclock.t -> 'msg t -> now:int -> src:Pid.t -> dst:Pid.t -> 'msg -> unit

(** A delivered message with its envelope metadata — sender, send time and
    (when the sender was tracing) the sender's clock at send time. *)
type 'msg delivery = {
  d_src : Pid.t;
  d_msg : 'msg;
  d_sent_at : int;
  d_vc : Vclock.t option;
}

(** [deliver t ~now ~dst] picks the message (with its sender) that a step of
    [dst] at time [now] receives, removing it from the buffer; [None] is the
    empty message. *)
val deliver : 'msg t -> now:int -> dst:Pid.t -> (Pid.t * 'msg) option

(** Like {!deliver} but keeps the envelope metadata, for tracing. *)
val deliver_env : 'msg t -> now:int -> dst:Pid.t -> 'msg delivery option

(** [pending t ~dst] counts undelivered messages addressed to [dst]. *)
val pending : 'msg t -> dst:Pid.t -> int

(** A structural hash of the buffer contents (per-destination envelopes
    with senders, payloads, timing) — used by the model checker to detect
    revisited global states. *)
val digest : 'msg t -> int

(** Number of messages ever sent. *)
val sent_count : 'msg t -> int

(** Number of messages ever delivered. *)
val delivered_count : 'msg t -> int
