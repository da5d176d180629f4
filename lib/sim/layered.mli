(** Protocol layering: running an *emulated* failure detector underneath an
    algorithm that queries it.

    The paper mostly treats detectors as oracles, but it also points out
    (Section 1) that some detectors are implementable by message passing in
    some environments — e.g. Σ "ex nihilo" when a majority of processes is
    correct.  [with_detector] composes such an implementation (itself an
    ordinary protocol that continuously refreshes an output value) under a
    main protocol: on every scheduled step, both layers take a step, and the
    main layer's failure detector query reads the detector layer's current
    output instead of an oracle.  Wire messages of the two layers are tagged
    so they never mix. *)

(** A message-passing implementation of a failure detector with output type
    ['fd]: a protocol with no inputs and no outputs plus a view function
    reading the module's current output from its state. *)
type ('dst, 'dmsg, 'fd) emulated = {
  proto : ('dst, 'dmsg, unit, unit, unit) Protocol.t;
  current : 'dst -> 'fd;
}

(** Messages of the composed protocol. *)
type ('dmsg, 'msg) wire = Detector of 'dmsg | Main of 'msg

(** [with_detector ?feedback det main] runs [main] over [det].  [feedback
    ctx dst o], when given, is the main layer talking back: it is applied
    to the detector state for each output [o] of the main layer, in
    order, after the step (or input) that produced it.  [Shard.Replica]
    uses it to install a decided configuration into its epoch-aware Σ;
    without it, the detector layer only ever hears its own messages. *)
val with_detector :
  ?feedback:(unit Protocol.ctx -> 'dst -> 'out -> 'dst) ->
  ('dst, 'dmsg, 'fd) emulated ->
  ('st, 'msg, 'fd, 'inp, 'out) Protocol.t ->
  ('dst * 'st, ('dmsg, 'msg) wire, unit, 'inp, 'out) Protocol.t

(** [pair a b] runs two detector implementations side by side as one,
    outputting the product of their current values — e.g. Ω and Σ composed
    under quorum Paxos, each refreshed by its own messages.  Both layers
    step on every scheduled step; a received message is routed to the layer
    that produced it (tagged [Detector] for [a], [Main] for [b]). *)
val pair :
  ('s1, 'm1, 'f1) emulated ->
  ('s2, 'm2, 'f2) emulated ->
  ('s1 * 's2, ('m1, 'm2) wire, 'f1 * 'f2) emulated

(** [product a b] composes two {e complete} protocols — each with its own
    failure detector, input, and output types — into one protocol whose
    messages, inputs, and outputs are tagged by side ([Detector] = [a],
    [Main] = [b], reusing the {!wire} tags so codecs compose).  Both sides
    step on every scheduled step; an input is routed to the side its tag
    names.  The composed fd is the product of the component fds.

    This is the mixed-consistency combinator: [Ec.Mixed] uses it to run
    the (Ω, Σ) SMR path and the eventually-consistent store on the same
    node, each consulting its own detector. *)
val product :
  ('s1, 'm1, 'f1, 'i1, 'o1) Protocol.t ->
  ('s2, 'm2, 'f2, 'i2, 'o2) Protocol.t ->
  ( 's1 * 's2,
    ('m1, 'm2) wire,
    'f1 * 'f2,
    ('i1, 'i2) wire,
    ('o1, 'o2) wire )
  Protocol.t
