(** Linearizability checking for register histories (Herlihy–Wing [15]).

    A Wing–Gong style exhaustive checker, adequate for the small histories
    the simulator produces.  The register semantics is the paper's: a read
    returns the last value written, [None] standing for the initial
    (unwritten) value.

    Operations that never responded (their issuer crashed mid-operation)
    are handled per the standard rule: an incomplete *write* may or may not
    have taken effect (both choices are explored); an incomplete *read* has
    no visible effect and is discarded. *)

type 'v op_kind =
  | Read of 'v option  (** a read, with the value it returned *)
  | Write of 'v

type 'v op = {
  pid : Sim.Pid.t;
  inv : int;  (** invocation time *)
  resp : int option;  (** response time; [None] if it never completed *)
  kind : 'v op_kind;
}

(** [check ops] decides whether the history is linearizable.  All operations
    must concern a single register. *)
val check : 'v op list -> bool

(** [of_trace events] splits an ABD run's output events, in any order,
    into per-register histories and pairs invocations with responses.
    Returns an association list from register id to its history. *)
val of_trace : 'v Abd.output Sim.Trace.event list -> (Abd.rid * 'v op list) list

(** [check_trace events] checks every register's history of an ABD run's
    output events. *)
val check_trace : 'v Abd.output Sim.Trace.event list -> bool
