(** Per-run counters and histograms keyed by dotted metric names (see
    docs/OBSERVABILITY.md for the glossary).  Purely deterministic: values
    derive from run events only, never from wall-clock time, so metric
    snapshots are reproducible across hosts and domain counts. *)

type t

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
      (** power-of-two buckets: [buckets.(0)] counts values <= 0,
          [buckets.(i)] counts values in [2^(i-1), 2^i). *)
}

(** Label sets attach dimensions to a series — [("shard", "3")] turns
    [smr.applied] into the independent series [smr.applied{shard=3}] — so
    per-shard (per-node, per-link ...) counts don't collapse into one
    global counter.  Label keys are sorted before rendering: two label
    lists with the same bindings name the same series regardless of
    order.  The unlabeled functions are the zero-label alias ([labels =
    []] renders as the bare name), so existing call sites are untouched. *)
type labels = (string * string) list

(** The rendered series name, [name{k=v,...}] with keys sorted — what
    {!snapshot} rows are keyed by. *)
val series : string -> labels -> string

val create : unit -> t

(** [incr ?by t name] bumps counter [name] (created at 0 on first use). *)
val incr : ?by:int -> t -> string -> unit

(** [incr_l t name ~labels] bumps the labeled series. *)
val incr_l : ?by:int -> t -> string -> labels:labels -> unit

(** Current counter value; 0 if never incremented. *)
val counter : t -> string -> int

val counter_l : t -> string -> labels:labels -> int

(** [set t name v] sets gauge [name] to [v] — last value wins, unlike a
    counter's monotone [incr].  Gauges live in the same flat namespace
    and render in {!snapshot} (hence JSONL metrics lines) exactly like
    counters; use them for sampled levels such as replication lag or
    divergent-key counts. *)
val set : t -> string -> int -> unit

val set_l : t -> string -> labels:labels -> int -> unit

(** Current gauge value; 0 if never set. *)
val gauge : t -> string -> int

val gauge_l : t -> string -> labels:labels -> int

(** [observe t name v] records [v] into histogram [name]. *)
val observe : t -> string -> int -> unit

val observe_l : t -> string -> labels:labels -> int -> unit

(** Histogram by name; [None] if nothing was ever observed into it. *)
val histogram : t -> string -> histogram option

val histogram_l : t -> string -> labels:labels -> histogram option

(** All counters plus histogram summaries ([name.count], [name.sum],
    [name.min], [name.max]) as one name-sorted row list. *)
val snapshot : t -> (string * int) list

(** Forget every counter and histogram. *)
val clear : t -> unit
