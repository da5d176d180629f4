(** The local replica state of the eventually-consistent KV store: a map
    from keys to {!Entry.t}, closed under join, plus a revision counter
    that anti-entropy uses to know when a peer is up to date.

    Well-formedness invariant (maintained by {!put} and {!merge_entry}):
    among store-produced entries for the same key, strict vector-clock
    dominance implies a strictly higher [(lamport, origin)] stamp — so the
    LWW join of causally comparable entries always picks the newer one,
    and each origin's lamports for a key strictly increase, making the
    stamp a unique write id. *)

type t

val create : n:int -> Sim.Pid.t -> t

(** Revision: bumps on every {e abstract} state change (a local put, or a
    merge that changed some key's value/stamp).  Merges that only refine
    vector clocks do not bump it — that is what lets anti-entropy go
    quiet. *)
val rev : t -> int

val get : t -> string -> Entry.t option
val keys : t -> string list

(** Local write: always succeeds (this is the point of EC — no quorum).
    Returns the entry written. *)
val put : t -> key:string -> value:string -> Entry.t * t

(** Join a remote entry in; [changed] iff the abstract state changed. *)
val merge_entry : t -> key:string -> Entry.t -> bool * t

val merge_entries : t -> (string * Entry.t) list -> bool * t

(** Per-key stamps — the anti-entropy digest body. *)
val summary : t -> (string * (int * Sim.Pid.t)) list

(** Entries strictly newer than (or absent from) the peer's summary. *)
val newer_than : t -> (string * (int * Sim.Pid.t)) list -> (string * Entry.t) list

(** Keys the peer holds strictly newer than (or that are absent from) this
    store — the pull list to send back. *)
val missing_from : t -> (string * (int * Sim.Pid.t)) list -> string list

val entries_for : t -> string list -> (string * Entry.t) list

(** Canonical digest of the abstract state ({e excluding} vector clocks —
    see {!Entry.equal}).  Equal fingerprints mean converged replicas. *)
val fingerprint : t -> string

val pp : Format.formatter -> t -> unit
