(** Transport of shared-memory algorithms onto message passing.

    [protocol ~registers p] runs the shared-memory protocol [p] on top of
    the Σ-based ABD register implementation: each [Read]/[Write] command
    becomes an ABD operation, and the algorithm's next step is delayed until
    the operation completes.  The composite's failure detector input is the
    pair (algorithm's detector, Σ) — so a shared-memory consensus algorithm
    using Ω becomes, verbatim, a message-passing consensus algorithm using
    (Ω, Σ): the paper's Corollary 2. *)

type ('st, 'v) state

val protocol :
  registers:int ->
  ('st, 'v, 'afd, 'inp, 'out) Shm.proto ->
  (('st, 'v) state, 'v Abd.msg, 'afd * Sim.Pidset.t, 'inp, 'out)
  Sim.Protocol.t
