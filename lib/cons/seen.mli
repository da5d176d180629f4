(** Sets of command keys [(origin, seq)] — the exactly-once bookkeeping
    of {!Smr}.

    Every origin numbers its commands 0, 1, 2, … and nearly all of them
    reach a replica in that order, so a key set is stored per origin as a
    watermark: [floor], meaning seqs [\[0, floor)] are all present, plus
    the few present seqs that are not below it ([above]).  {!mem} is one
    map lookup and an int compare; {!add} bumps [floor] and absorbs any
    [above] entries that became contiguous.  Memory is O(origins +
    out-of-order keys), not O(keys).

    Any int is a valid seq: negative seqs (which no origin generates, but
    a decoded frame may carry) are kept in [above] and never count as
    present just because they are below [floor]; [floor] never wraps past
    [max_int]. *)

type t

val empty : t

(** [mem t origin seq] — is the key present? *)
val mem : t -> Sim.Pid.t -> int -> bool

(** [add t origin seq] — [t] with the key present ([t] itself if it
    already was). *)
val add : t -> Sim.Pid.t -> int -> t

(** [watermarks t] is the representation, per origin with at least one
    key, in origin order: [(origin, floor, above)] with [above]
    ascending.  Canonical form: no element of [above] lies in
    [\[0, floor\]]. *)
val watermarks : t -> (Sim.Pid.t * int * int list) list
