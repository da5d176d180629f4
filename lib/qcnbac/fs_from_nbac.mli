(** FS from NBAC — Figure 8(b), second half (after [5, 11]).

    Processes run NBAC instances forever, voting Yes in each.  The emitted
    failure-signal is Green until some instance returns Abort, and Red
    permanently from then on.  Accuracy: with every process voting Yes, an
    abort implies a failure.  Completeness: once a process crashes, it
    stops voting, so the next instance cannot commit (Commit requires a Yes
    vote from *all* processes) and must eventually abort.

    The protocol emits an output event at every signal change (plus an
    initial Green); [Fd.Fs.check] judges that stream through
    [Fd.Oracle.of_outputs]. *)

type state
type msg

val protocol :
  (state, msg, Fd.Psi.output * Fd.Fs.output, unit, Fd.Fs.output)
  Sim.Protocol.t

(** Index of the NBAC instance currently running. *)
val instance : state -> int
