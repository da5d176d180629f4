type t = {
  events : Sim.Event.t Ring.t;
  metrics : Metrics.t;
  profile : Profile.t;
  sink : Sim.Event.sink;
}

let default_capacity = 65_536

(* Counter/histogram updates derived from each event kind; the glossary
   lives in docs/OBSERVABILITY.md. *)
let record metrics (e : Sim.Event.t) =
  match e.kind with
  | Send _ -> Metrics.incr metrics "net.sent"
  | Deliver { sent_at; _ } ->
    Metrics.incr metrics "net.delivered";
    Metrics.observe metrics "net.delay" (e.time - sent_at)
  | Crash _ -> Metrics.incr metrics "proc.crashes"
  | Fd_query _ -> Metrics.incr metrics "fd.queries"
  | Input _ -> Metrics.incr metrics "run.inputs"
  | Output _ ->
    Metrics.incr metrics "run.outputs";
    Metrics.observe metrics "run.decision_round" e.round
  | Metric { name; value } -> Metrics.observe metrics name value

let create ?(capacity = default_capacity) () =
  let events = Ring.create ~capacity in
  let metrics = Metrics.create () in
  let profile = Profile.create () in
  let sink =
    {
      Sim.Event.emit =
        (fun e ->
          Ring.push events e;
          record metrics e);
      phase_enter = (fun ph -> Profile.enter profile (Sim.Event.phase_name ph));
      phase_exit = (fun ph -> Profile.exit profile (Sim.Event.phase_name ph));
    }
  in
  { events; metrics; profile; sink }

let events t = Ring.to_list t.events
let dropped t = Ring.dropped t.events

let metric_rows t =
  ("events.recorded", Ring.pushed t.events)
  :: ("events.dropped", Ring.dropped t.events)
  :: Metrics.snapshot t.metrics
