type 'v problem = {
  name : string;
  inputs : Sim.Pid.t list;
  pp : Format.formatter -> 'v -> unit;
  validity : Sim.Failure_pattern.t -> 'v Sim.Trace.event -> string option;
}

let consensus ~pp ~proposals =
  {
    name = "consensus";
    inputs = List.map fst proposals;
    pp;
    validity =
      (fun _ (e : _ Sim.Trace.event) ->
        if List.exists (fun (_, w) -> w = e.value) proposals then None
        else Some (Format.asprintf "decided unproposed value %a" pp e.value));
  }

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let integrity events =
  let rec go = function
    | [] -> Ok ()
    | (e : _ Sim.Trace.event) :: rest ->
      if
        List.exists
          (fun (e' : _ Sim.Trace.event) -> Sim.Pid.equal e'.pid e.pid)
          rest
      then
        Error
          (Format.asprintf "integrity violated: %a decided more than once"
             Sim.Pid.pp e.pid)
      else go rest
  in
  go events

let agreement p events =
  match
    List.sort_uniq compare
      (List.map (fun (e : _ Sim.Trace.event) -> e.value) events)
  with
  | [] | [ _ ] -> Ok ()
  | d1 :: d2 :: _ ->
    Error
      (Format.asprintf "uniform agreement violated: decisions %a and %a coexist"
         p.pp d1 p.pp d2)

let validity p fp events =
  let invalid (e : _ Sim.Trace.event) =
    Option.map (fun why -> (e.pid, why)) (p.validity fp e)
  in
  match List.find_map invalid events with
  | Some (q, why) ->
    Error (Format.asprintf "validity violated: %a %s" Sim.Pid.pp q why)
  | None -> Ok ()

let safety p fp events =
  let* () = integrity events in
  let* () = agreement p events in
  validity p fp events

let termination p fp events =
  let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
  let decided q =
    List.exists (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid q) events
  in
  match List.find_opt (fun q -> not (decided q)) correct with
  | Some q when List.for_all (fun c -> List.mem c p.inputs) correct ->
    Error
      (Format.asprintf
         "termination violated: correct %a never decided (run blocked)"
         Sim.Pid.pp q)
  | Some _ | None -> Ok ()

let check p fp events =
  let* () = safety p fp events in
  termination p fp events
