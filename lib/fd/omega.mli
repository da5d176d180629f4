(** The leader failure detector Ω.

    Outputs a process id at each process; there is a time after which it
    outputs the id of the same correct process at all correct processes. *)

type output = Sim.Pid.t

(** The standard oracle: before a per-process stabilization time the output
    is arbitrary (possibly a faulty process, possibly different at each
    process); afterwards it is one fixed correct process everywhere. *)
val oracle : output Oracle.t

(** [oracle_with ~leader ~stabilize_at] fixes the eventual leader (must be
    correct in the pattern used) and the common stabilization time — for
    targeted tests. *)
val oracle_with : leader:Sim.Pid.t -> stabilize_at:int -> output Oracle.t

(** A "perfectly accurate from the start" variant: outputs the smallest
    correct process at every time.  Still a legal Ω history. *)
val oracle_instant : output Oracle.t

(** [check fp ~horizon h] verifies the Ω specification on the finite
    prefix [0 .. horizon] of history [h]: at [horizon] every correct
    process outputs the same correct process.  (A finite check of an
    eventual property: on a prefix, the horizon itself is a time from
    which the clause holds.)  Returns an explanation on failure. *)
val check :
  Sim.Failure_pattern.t -> horizon:int -> output Oracle.history ->
  (unit, string) result
