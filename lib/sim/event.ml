type kind =
  | Send of { src : Pid.t; dst : Pid.t }
  | Deliver of { src : Pid.t; dst : Pid.t; sent_at : int }
  | Crash of Pid.t
  | Fd_query of Pid.t
  | Input of Pid.t
  | Output of { pid : Pid.t; info : string }
  | Metric of { name : string; value : int }

type t = { time : int; round : int; vc : Vclock.t option; kind : kind }

type phase = Schedule | Delivery | Step | Invariant_check | Phase of string

type sink = {
  emit : t -> unit;
  phase_enter : phase -> unit;
  phase_exit : phase -> unit;
}

let phase_name = function
  | Schedule -> "schedule"
  | Delivery -> "delivery"
  | Step -> "step"
  | Invariant_check -> "invariant_check"
  | Phase s -> s

let kind_name = function
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Crash _ -> "crash"
  | Fd_query _ -> "fd_query"
  | Input _ -> "input"
  | Output _ -> "output"
  | Metric _ -> "metric"

let pid_of = function
  | Send { src; _ } -> Some src
  | Deliver { dst; _ } -> Some dst
  | Crash p | Fd_query p | Input p -> Some p
  | Output { pid; _ } -> Some pid
  | Metric _ -> None
