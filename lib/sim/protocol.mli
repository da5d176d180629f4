(** Protocols: the algorithm automata of the paper's model.

    A protocol is a pure description of one process's behaviour.  Its
    states are values: [on_step] and [on_input] return the next state and
    never mutate the one they are given (a state holding an array copies
    it before changing it).  {!Engine}'s snapshots share states with the
    run that took them, and resumed runs share them with each other.  One
    engine-scheduled step corresponds exactly to the paper's atomic step: the
    process receives one message (or the empty message), queries its failure
    detector module, then sends messages and moves to a new state.  External
    operation invocations (PROPOSE, VOTE, read, write ...) are modelled as
    [on_input] events injected by the engine at scheduled times.

    Type parameters: ['st] local state, ['msg] wire messages, ['fd] failure
    detector output values, ['inp] operation invocations, ['out] operation
    responses / decisions. *)

(** Messages to emit and values to expose, produced by a step. *)
type ('msg, 'out) action =
  | Send of Pid.t * 'msg  (** point-to-point send *)
  | Broadcast of 'msg  (** send to every process, including self *)
  | Output of 'out  (** deliver a response / decision to the environment *)

(** Per-step context handed to the automaton. *)
type 'fd ctx = {
  self : Pid.t;  (** the process taking the step *)
  n : int;  (** system size *)
  now : int;  (** global time (only for traces; algorithms that must not
                  rely on real time should treat it as a local step counter) *)
  fd : 'fd;  (** the failure detector value sampled in this step *)
}

type ('st, 'msg, 'fd, 'inp, 'out) t = {
  init : n:int -> Pid.t -> 'st;
  on_step :
    'fd ctx -> 'st -> (Pid.t * 'msg) option -> 'st * ('msg, 'out) action list;
      (** one atomic step; the optional argument is the received message and
          its sender, [None] standing for the empty message λ. *)
  on_input : 'fd ctx -> 'st -> 'inp -> 'st * ('msg, 'out) action list;
      (** an external operation invocation. *)
}

(** [no_input] is an [on_input] for protocols that take no external
    invocations. *)
val no_input : 'fd ctx -> 'st -> 'inp -> 'st * ('msg, 'out) action list

(** [map_actions ~msg ~out acts] re-tags a step's actions for a larger
    protocol: messages go through [msg], outputs through [out], where
    [None] drops the output.  Order is kept.  Consecutive [Send]s of one
    physical message (a fan-out such as [Fd.Peers.send]'s) get one
    physical re-tagged message, so a host can encode it once.
    Compositions that pass a component's outputs through in place,
    interleaved with its sends ({!Layered}, detector products, Figure
    2's QC), retag it this way; a host that consumes its sub-protocol's
    outputs (per-instance consensus, the paper's transformations) runs
    it through {!apply}. *)
val map_actions :
  msg:('msg -> 'msg2) ->
  out:('out -> 'out2 option) ->
  ('msg, 'out) action list ->
  ('msg2, 'out2) action list

(** One event of a hosted protocol: a step receiving a message (or λ),
    or an operation invocation. *)
type ('msg, 'inp) event = Step of (Pid.t * 'msg) option | Input of 'inp

(** [apply t ctx st ev ~msg] runs [ev] through [t] as a sub-algorithm of a
    larger protocol, its host: it returns [t]'s next state, its sends
    re-tagged by [msg] and its outputs, each in the order [t] produced
    them.  A hosted protocol's outputs go to its host, never to the
    environment: the host decides what, if anything, to output in turn
    (the composition of I/O automata that hides the inner automaton's
    outputs as internal actions).  A step that outputs nothing returns
    [[]] as its outputs without allocating. *)
val apply :
  ('st, 'msg, 'fd, 'inp, 'out) t ->
  'fd ctx ->
  'st ->
  ('msg, 'inp) event ->
  msg:('msg -> 'msg2) ->
  'st * ('msg2, 'out2) action list * 'out list

(** [const_fd fd t] closes [t]'s failure detector to the constant [fd],
    giving the [fd = unit] shape a [Net.Node] runs — for detectors already
    composed inside [t], or runs where a constant is a legal sample. *)
val const_fd :
  'fd -> ('st, 'msg, 'fd, 'inp, 'out) t -> ('st, 'msg, unit, 'inp, 'out) t
