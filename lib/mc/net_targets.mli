(** Systems under test for {!Net_harness} — the production network
    stack checked against the paper's link axiom, and the paper's own
    register algorithm run through the real wire path.

    The sequencing workload has every process send messages #0..m-1 to
    every peer, one per step, and output every delivery; its invariant
    {e is} the link axiom: per (receiver, sender) pair, deliveries are
    in order, exactly once, and complete once the run quiesces. *)

type seq_msg = Data of int
type seq_out = Got of Sim.Pid.t * int
type seq_state

(** Sequencing over the raw hub with frame reordering on: the axiom
    does not hold and {!Net_harness.search} finds an out-of-order
    delivery within a few schedules — the harness's positive control. *)
val seq_raw_reorder :
  n:int -> m:int -> (seq_state, seq_msg, unit, seq_out) Net_harness.target

(** Sequencing over the production {!Net.Rel} ARQ with reordering, a
    dropped frame and a duplicated frame: exhaustively passes. *)
val seq_rel :
  n:int -> m:int -> (seq_state, seq_msg, unit, seq_out) Net_harness.target

(** Sequencing with a dropped frame over a deliberately broken ARQ,
    shaped like {!Net.Rel} but acknowledging the highest sequence number
    {e seen} instead of cumulatively: a frame lost below a later one is
    never retransmitted.  The planted ack bug loses a message; caught by
    the completeness check at quiescence. *)
val seq_broken_arq :
  n:int -> m:int -> (seq_state, seq_msg, unit, seq_out) Net_harness.target

(** ABD over {!Net.Node} + {!Net.Rel} with a constant full-set Σ
    (legitimate in a kill-free run): one write racing one read, over
    FIFO links with a dropped frame (exercising the retransmission
    path; frame-level reordering is covered by {!seq_rel}, whose state
    space stays tractable); checked for linearizability with
    {!Invariant.linearizable}.  Exhaustively completes in a few
    thousand schedules at [n = 2]. *)
val abd_rel :
  n:int ->
  ( int Regs.Abd.state,
    int Regs.Abd.msg,
    int Regs.Abd.input,
    int Regs.Abd.output )
  Net_harness.target

(** The EC replica ({!Ec.Replica}) over the {e raw} hub with frame
    reordering, a dropped and a duplicated frame: n concurrent writes to
    one key, drained to quiescence, checked with
    {!Invariant.ec_convergence}.  No ARQ underneath — this verifies that
    anti-entropy masks frame loss by itself (a digest round that gets no
    reply leaves [synced] behind and re-fires). *)
val ec_converge :
  n:int ->
  ( Ec.Replica.state,
    Ec.Replica.msg,
    Ec.Replica.input,
    Ec.Replica.output )
  Net_harness.target

(** Positive control: [ec_converge] with anti-entropy disabled (cadence
    beyond the round bound) — the writes never propagate and every
    schedule ends with divergent stores. *)
val ec_no_sync :
  n:int ->
  ( Ec.Replica.state,
    Ec.Replica.msg,
    Ec.Replica.input,
    Ec.Replica.output )
  Net_harness.target
