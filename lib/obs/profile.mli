(** Span timers over a monotonic clock, accumulating per-phase elapsed time
    and call counts.  Timings are the one nondeterministic product of the
    observability layer: they never feed back into scheduling, metrics or
    summaries, only into the profile record of a trace file. *)

type t

(** [create ?clock ()] — [clock] returns nanoseconds and defaults to the
    process-wide monotonic clock ([CLOCK_MONOTONIC]); inject a fake clock
    for deterministic tests. *)
val create : ?clock:(unit -> int64) -> unit -> t

(** [enter t name] opens a span.  Spans of the same name may nest
    (reentrant); each [exit] closes the innermost open one. *)
val enter : t -> string -> unit

(** [exit t name] closes the innermost open span of [name], accumulating
    its elapsed time.  Unmatched exits are ignored. *)
val exit : t -> string -> unit

(** [time t name f] runs [f ()] inside a span (closed even on raise). *)
val time : t -> string -> (unit -> 'a) -> 'a

type row = { count : int; total_ns : int64 }

(** Per-span totals, name-sorted. *)
val snapshot : t -> (string * row) list
