(** Point-to-point fan-out to the other processes.

    [Sim.Protocol.Broadcast] delivers to every process, the sender
    included.  Under the paper's atomic step a process receives at most
    one message per step, so a frame a process sends itself, or sends to
    a process that already holds its content, spends a receive step that
    changes nothing.  The detectors and the consensus layer therefore
    address only the processes the frame can still inform. *)

(** [send ~n ~except m] sends [m] to every process of [0 .. n-1] that is
    not in [except], in pid order. *)
val send :
  n:int -> except:Sim.Pid.t list -> 'msg -> ('msg, 'out) Sim.Protocol.action list
