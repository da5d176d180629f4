type ('st, 'msg, 'fd, 'inp, 'out) target = {
  name : string;
  protocol : ('st, 'msg, 'fd, 'inp, 'out) Sim.Protocol.t;
  make_fd :
    Sim.Failure_pattern.t -> seed:int -> Sim.Pid.t -> int -> 'fd;
  make_inputs : Sim.Failure_pattern.t -> (int * Sim.Pid.t * 'inp) list;
  invariant : 'out Invariant.t;
  stop : Sim.Failure_pattern.t -> 'out Sim.Trace.event list -> bool;
  policy : Sim.Network.policy;
  max_steps : int;
  detect_quiescence : bool;
  require_termination : bool;
  time_invariant_fd : bool;
  pp_out : Format.formatter -> 'out -> unit;
}

type run_report = {
  violation : string option;
  choices : int list;
  stopped : [ `Condition | `Quiescent | `Step_limit | `Hook ];
  steps : int;
  outputs : string Lazy.t;
}

type explorer = [ `Exhaustive | `Pct | `Random | `Dpor ]

let explorer_name = function
  | `Exhaustive -> "exhaustive"
  | `Pct -> "pct"
  | `Random -> "random"
  | `Dpor -> "dpor"

type opts = {
  explorer : explorer;
  domains : int;
  budget : int;
  inner_budget : int;
  max_crashes : int;
  horizon : int;
  stride : int;
  d : int option;
  shrink : bool;
  seed : int;
}

let default_opts =
  {
    explorer = `Exhaustive;
    domains = 1;
    budget = 20_000;
    inner_budget = 2_000;
    max_crashes = 1;
    horizon = 4;
    stride = 2;
    d = None;
    shrink = true;
    seed = 1;
  }

let validate_opts o =
  if o.domains < 1 then
    Error (Printf.sprintf "domains must be >= 1 (got %d)" o.domains)
  else
    match (o.d, o.explorer) with
    | Some _, (`Exhaustive | `Random | `Dpor) ->
      Error
        (Printf.sprintf
           "the PCT depth d is only meaningful for the pct explorer (got \
            explorer=%s): it would be silently ignored"
           (explorer_name o.explorer))
    | _ -> Ok ()

let pp_events pp_out events =
  Format.asprintf "@[<v>%a@]"
    (Format.pp_print_list (fun fmt (e : _ Sim.Trace.event) ->
         Format.fprintf fmt "t=%-4d %a -> %a" e.time Sim.Pid.pp e.pid pp_out
           e.value))
    events

let run ?(seed = 1) ?round_hook ?sink ?resume ?save target ~fp scheduler =
  let sched, recorded = Sim.Scheduler.recording scheduler in
  let violation = ref None in
  let inv = target.invariant in
  (* Invariant evaluation is bracketed as its own profiling phase when a
     sink is installed; with [sink = None] both closures below reduce to
     the uninstrumented originals. *)
  let checked f =
    match sink with
    | None -> f ()
    | Some s ->
      s.Sim.Event.phase_enter Sim.Event.Invariant_check;
      Fun.protect
        ~finally:(fun () -> s.Sim.Event.phase_exit Sim.Event.Invariant_check)
        f
  in
  let stop outputs =
    match checked (fun () -> inv.Invariant.on_output fp outputs) with
    | Error e ->
      violation := Some e;
      true
    | Ok () -> target.stop fp outputs
  in
  let cfg =
    Sim.Engine.config ~policy:target.policy ~seed ~max_steps:target.max_steps
      ~inputs:(target.make_inputs fp) ~stop
      ~detect_quiescence:target.detect_quiescence ~scheduler:sched ?round_hook
      ?sink
      ~render_out:(fun v -> Format.asprintf "%a" target.pp_out v)
      ~fd:(target.make_fd fp ~seed) fp
  in
  let trace = Sim.Engine.run ?resume ?save cfg target.protocol in
  let violation =
    match !violation with
    | Some _ as v -> v
    | None -> (
      let must_terminate =
        match trace.Sim.Trace.stopped with
        | `Quiescent -> true
        | `Step_limit -> target.require_termination
        | `Condition | `Hook -> false
      in
      match
        checked (fun () ->
            inv.Invariant.final fp ~must_terminate trace.Sim.Trace.outputs)
      with
      | Ok () -> None
      | Error e -> Some e)
  in
  {
    violation;
    choices = recorded ();
    stopped = trace.Sim.Trace.stopped;
    steps = trace.Sim.Trace.steps;
    outputs = lazy (pp_events target.pp_out trace.Sim.Trace.outputs);
  }

let replay ?(seed = 1) ?sink target ~n schedule =
  match try Some (Schedule.fp ~n schedule) with Invalid_argument _ -> None with
  | None ->
    {
      violation = None;
      choices = [];
      stopped = `Condition;
      steps = 0;
      outputs = Lazy.from_val "(malformed schedule: illegal failure pattern)";
    }
  | Some fp ->
    run ~seed ?sink target ~fp
      (Sim.Scheduler.replay schedule.Schedule.choices ~rest:Sim.Scheduler.first)

let violates ?(seed = 1) target ~n schedule =
  (replay ~seed target ~n schedule).violation <> None

type counterexample = {
  target : string;
  n : int;
  seed : int;
  schedule : Schedule.t;
  reason : string;
  shrunk : bool;
}

let counterexample ~shrink ~violates ~target ~n ~seed ~reason schedule =
  let schedule =
    if shrink then fst (Shrink.minimize ~violates schedule) else schedule
  in
  { target; n; seed; schedule; reason; shrunk = shrink }

let pp_counterexample fmt c =
  Format.fprintf fmt
    "@[<v2>counterexample (%s, n=%d, seed=%d%s):@ reason: %s@ schedule: %a@]"
    c.target c.n c.seed
    (if c.shrunk then ", shrunk" else "")
    c.reason Schedule.pp c.schedule
