(** Deterministic keyspace partitioner: a consistent-hash ring.

    Each shard id contributes 64 virtual points placed by
    hashing ["shard-<id>/<i>"]; a key belongs to the shard owning the
    first point at or after the key's own position, wrapping around.  A
    position is a hand-rolled FNV-1a/64 over the raw bytes passed through
    MurmurHash3's fmix64 finalizer, which spreads keys differing only in
    their last bytes over the whole ring.  The mapping is a pure function
    of the key — {e identical across processes and hosts}, which lets
    every router and replica agree on the partition
    with no coordination protocol at all (the partition itself needs no
    consensus; only per-shard membership does, see {!Epoch}).

    Stability: adding a shard only moves keys {e onto} the new shard
    (about [1/(S+1)] of them in expectation); removing a shard only moves
    the removed shard's keys.  All other assignments are untouched —
    the property the QCheck suite pins down. *)

type t

(** [create ids] builds a ring over the given shard ids.
    @raise Invalid_argument if [ids] is empty. *)
val create : int list -> t

(** The shard ids on the ring, ascending. *)
val shards : t -> int list

(** [shard_of t key] is the shard that owns [key].  Pure and total. *)
val shard_of : t -> string -> int

(** [add t s] is the ring with shard [s] added (no-op if present). *)
val add : t -> int -> t

(** [remove t s] is the ring with shard [s] removed (no-op if absent).
    @raise Invalid_argument if it would empty the ring. *)
val remove : t -> int -> t

(** The underlying 64-bit FNV-1a hash, before the finalizer — exposed so
    tests can assert cross-process determinism against fixed vectors. *)
val hash64 : string -> int64
