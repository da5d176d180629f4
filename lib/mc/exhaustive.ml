let take_prefix arr i = Array.to_list (Array.sub arr 0 i)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;
  pruned : int;
  steps : int;
  complete : bool;
}

type run = {
  violation : string option;
  choices : int list;
  steps : int;
  next : depth:int -> arities:int array -> int list list;
}

let dfs ~budget ~cex exec =
  let seen = Hashtbl.create 4096 in
  let stack = ref [ [] ] in
  let schedules = ref 0 in
  let pruned = ref 0 in
  let steps = ref 0 in
  let found = ref None in
  let out_of_budget = ref false in
  while !found = None && !stack <> [] && not !out_of_budget do
    match !stack with
    | [] -> assert false
    | prefix :: rest ->
      stack := rest;
      if !schedules >= budget then out_of_budget := true
      else begin
        incr schedules;
        let depth = List.length prefix in
        (* Follow [prefix], then always take alternative 0; record every
           choice's arity so the explorer can enqueue other branches. *)
        let arities = ref [] in
        let consumed = ref 0 in
        let base = Sim.Scheduler.replay prefix ~rest:Sim.Scheduler.first in
        let sched =
          {
            Sim.Scheduler.choose =
              (fun c ->
                arities := Sim.Scheduler.arity c :: !arities;
                incr consumed;
                base.Sim.Scheduler.choose c);
          }
        in
        (* The prune gate: never while the prefix replays, then a state
           key already seen cuts the run. *)
        let fresh key =
          if !consumed < depth then true
          else begin
            let key = key () in
            if Hashtbl.mem seen key then begin
              incr pruned;
              false
            end
            else begin
              Hashtbl.add seen key ();
              true
            end
          end
        in
        let r = exec sched ~fresh in
        steps := !steps + r.steps;
        match r.violation with
        | Some reason -> found := Some (cex ~reason r.choices)
        | None ->
          let arities = Array.of_list (List.rev !arities) in
          stack := r.next ~depth ~arities @ !stack
      end
  done;
  {
    counterexample = !found;
    schedules = !schedules;
    pruned = !pruned;
    steps = !steps;
    complete = (not !out_of_budget) && !stack = [];
  }

(* The unexplored siblings of every choice point taken beyond the prefix
   (the prefix's own siblings were enqueued by the run that discovered
   it), shallowest first. *)
let siblings choices ~depth ~arities =
  let seq = Array.of_list choices in
  let acc = ref [] in
  for i = Array.length seq - 1 downto depth do
    for k = arities.(i) - 1 downto 1 do
      acc := (take_prefix seq i @ [ k ]) :: !acc
    done
  done;
  !acc

let key target ~now digest () =
  if target.Harness.time_invariant_fd then digest ()
  else Hashtbl.hash (digest (), now)

let search ?(budget = 10_000) ?(shrink = true) ?(seed = 1) target ~fp =
  let n = Sim.Failure_pattern.n fp in
  let cex ~reason choices =
    Harness.counterexample ~shrink ~violates:(Harness.violates ~seed target ~n)
      ~target:target.Harness.name ~n ~seed ~reason (Schedule.of_fp fp choices)
  in
  dfs ~budget ~cex (fun sched ~fresh ->
      let round_hook ~now ~digest ~steps:_ = fresh (key target ~now digest) in
      let r = Harness.run ~seed target ~fp ~round_hook sched in
      {
        violation = r.Harness.violation;
        choices = r.Harness.choices;
        steps = r.Harness.steps;
        next = siblings r.Harness.choices;
      })
