(** Sets of command keys [(origin, seq)] — the exactly-once bookkeeping
    of {!Smr}.

    Keys reach a replica in runs: every origin numbers its commands 0,
    1, 2, … and nearly all of them arrive in that order, and a decided
    batch drained from a FIFO queue holds consecutive seqs of each
    origin, starting wherever that origin's previous batch stopped.  So a
    key set is stored per origin as one run [\[base, floor)] of present
    seqs plus the few present seqs outside it (the stragglers).  The run
    opens at the first seq added and grows at either end, absorbing the
    stragglers it reaches.  {!mem} is one map lookup and two int
    compares; {!add} of a seq next to the run is one map update.  Memory
    is O(origins + stragglers), not O(keys).

    Any int is a valid seq, negative ones and [max_int] included: {!mem}
    answers exactly, and the run never wraps past [min_int] or
    [max_int].  Only the run is cheap, so keys far from an origin's
    first one cost a straggler each until the run reaches them. *)

type t

val empty : t

(** [mem t origin seq] — is the key present? *)
val mem : t -> Sim.Pid.t -> int -> bool

(** [add t origin seq] — [t] with the key present ([t] itself if it
    already was). *)
val add : t -> Sim.Pid.t -> int -> t

(** [watermarks t] is the representation, per origin with at least one
    key, in origin order: [(origin, base, floor, stragglers)] with the
    stragglers ascending.  Canonical form: [base <= floor], and no
    straggler lies in [\[base - 1, floor\]] (read without wrapping), save
    [max_int] when [floor = max_int]. *)
val watermarks : t -> (Sim.Pid.t * int * int * int list) list
