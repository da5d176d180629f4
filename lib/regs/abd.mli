(** Fault-tolerant atomic (linearizable) registers from Σ — the sufficiency
    half of Theorem 1.

    This is the Attiya–Bar-Noy–Dolev algorithm [1] with the majority
    replaced by the quorums of Σ, exactly as the paper prescribes: an
    operation completes once the set of replicas that answered contains
    some quorum output by the local Σ module.  Any two Σ quorums intersect,
    so every read sees the latest completed write; eventually Σ quorums
    contain only correct processes, so every operation by a correct process
    terminates — in *any* environment.

    The protocol hosts an array of [registers] independent multi-writer
    multi-reader registers (register ids [0 .. registers-1]); every process
    is simultaneously a replica and a client.  Clients issue operations via
    engine inputs; each process executes its operations sequentially (a new
    invocation is queued while one is in flight). *)

type rid = int
(** Register id. *)

type 'v input = Read of rid | Write of rid * 'v

(** Outputs: each operation emits an [Invoked] event when it starts and a
    [Responded] event when it completes — the pair is what the
    linearizability checker consumes.  [op_seq] numbers a process's
    operations. *)
type 'v output =
  | Invoked of { op_seq : int; op : 'v input }
  | Responded of { op_seq : int; resp : 'v response }

and 'v response = Read_value of rid * 'v option | Written of rid

type 'v state

(** The wire messages (exposed so a host can embed them in its own message
    type, as {!Sim.Protocol.apply}'s [~msg] does). *)
type 'v msg

(** [protocol ~registers] builds the protocol.  Its failure detector input
    is a Σ quorum ([Sim.Pidset.t]). *)
val protocol :
  registers:int ->
  ('v state, 'v msg, Sim.Pidset.t, 'v input, 'v output) Sim.Protocol.t

(** The participants of the last completed operation: the process itself
    plus every replica that answered in either phase.  For a write this is
    (a superset of) the paper's [P_i(k)] — the processes whose steps fall
    causally inside the write. *)
val last_op_participants : 'v state -> Sim.Pidset.t
