type 'out event = { time : int; pid : Pid.t; value : 'out }

type ('st, 'out) t = {
  outputs : 'out event list;
  final_states : 'st array;
  fp : Failure_pattern.t;
  steps : int;
  ticks : int;
  messages_sent : int;
  messages_delivered : int;
  stopped : [ `Condition | `Quiescent | `Step_limit | `Hook ];
}

let outputs_of t p =
  List.filter_map
    (fun e -> if Pid.equal e.pid p then Some e.value else None)
    t.outputs

let first_output t p =
  List.find_map (fun e -> if Pid.equal e.pid p then Some e.value else None) t.outputs

let decision_times t =
  let n = Failure_pattern.n t.fp in
  List.filter_map
    (fun p ->
      List.find_map
        (fun e -> if Pid.equal e.pid p then Some (p, e.time) else None)
        t.outputs)
    (Pid.all n)

let latency t =
  match decision_times t with
  | [] -> None
  | times -> Some (List.fold_left (fun acc (_, d) -> max acc d) 0 times)

let all_correct_output t =
  Pidset.for_all
    (fun p -> Option.is_some (first_output t p))
    (Failure_pattern.correct t.fp)

let stats t =
  [
    ("run.steps", t.steps);
    ("run.ticks", t.ticks);
    ("run.outputs", List.length t.outputs);
    ("net.sent", t.messages_sent);
    ("net.delivered", t.messages_delivered);
  ]
  @ (match latency t with None -> [] | Some l -> [ ("run.latency", l) ])
