(** JSONL serialization of a collected run: one [meta] record, one record
    per retained event (oldest first), one [metrics] record, one [profile]
    record.  The schema is documented in docs/OBSERVABILITY.md.

    Everything except the [profile] line is deterministic for a fixed
    schedule, which is what lets CI diff trace files across [--domains]
    counts after stripping profile records. *)

(** JSON string escaping (quotes, backslash, control characters). *)
val escape : string -> string

(** [escape], quoted: a JSON string literal. *)
val str : string -> string

(** One record rendered as one JSON line, no trailing newline — the
    building blocks of {!write_run}, exposed so tests and tools can
    render (and diff) records individually. *)
val event_line : Sim.Event.t -> string

val meta_line : (string * string) list -> string
val metrics_line : (string * int) list -> string

(** [write_run ~path ~meta c] writes (truncating) the trace file: the
    four-part record stream. *)
val write_run : path:string -> meta:(string * string) list -> Collector.t -> unit

(** {2 Reading}

    The inverse direction, so traces written by real cluster runs
    ([bin/cluster.ml --trace]) and by simulated runs can be loaded,
    validated and diffed by the same tooling.  [record_of_line] inverts
    {!event_line} / {!meta_line} / {!metrics_line} and the profile line
    exactly: for any event [e], parsing [event_line e] yields [Event e']
    with [e' = e] up to vector-clock physical identity. *)

type record =
  | Meta of (string * string) list
  | Event of Sim.Event.t
  | Metrics of (string * int) list
  | Profile of (string * Profile.row) list

val record_of_line : string -> (record, string) result

(** [read_file path] is every record of the file, in file order.
    @raise Failure on a malformed line (with its line number). *)
val read_file : string -> record list

(** The events of a record stream, in order. *)
val events : record list -> Sim.Event.t list
