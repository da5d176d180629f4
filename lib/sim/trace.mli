(** Run traces: everything observable about a finished simulation. *)

(** One value a process handed to the environment (a decision, an operation
    response, ...), stamped with the global time of the emitting step. *)
type 'out event = { time : int; pid : Pid.t; value : 'out }

type ('st, 'out) t = {
  outputs : 'out event list;  (** in emission order *)
  final_states : 'st array;  (** last state of each process (crashed or not) *)
  fp : Failure_pattern.t;  (** the failure pattern of the run *)
  steps : int;  (** total steps scheduled *)
  ticks : int;  (** final global time *)
  messages_sent : int;
  messages_delivered : int;
  stopped : [ `Condition | `Quiescent | `Step_limit | `Hook ];
      (** why the run ended: the stop condition held, nothing could change
          any more, the step budget ran out, or the round hook cut the run
          short (model-checker pruning). *)
}

(** [outputs_of t p] lists the values output by process [p], oldest first. *)
val outputs_of : ('st, 'out) t -> Pid.t -> 'out list

(** [decision_times t] maps each process to the time of its first output. *)
val decision_times : ('st, 'out) t -> (Pid.t * int) list

(** [latency t] is the time of the last first-output among processes that
    output anything, or [None] if nobody output. *)
val latency : ('st, 'out) t -> int option

(** [all_correct_output t] holds iff every correct process produced at least
    one output. *)
val all_correct_output : ('st, 'out) t -> bool

(** [stats t] renders the trace's scalar counters as metric rows
    ([run.steps], [run.ticks], [run.outputs], [net.sent], [net.delivered],
    plus [run.latency] when anything was output) — the run-summary side of
    the observability layer; the per-event side lives in {!Event} and the
    [obs] library. *)
val stats : ('st, 'out) t -> (string * int) list
