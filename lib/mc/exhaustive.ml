let take_prefix arr i = Array.to_list (Array.sub arr 0 i)

type report = {
  counterexample : Harness.counterexample option;
  schedules : int;
  pruned : int;
  steps : int;
  complete : bool;
}

let search ?(budget = 10_000) ?(prune = true) ?prune_mod_time
    ?(shrink = true) ?(shrink_budget = 400) ?(seed = 1) target ~fp =
  let prune_mod_time =
    match prune_mod_time with
    | Some b -> b
    | None -> target.Harness.time_invariant_fd
  in
  let n = Sim.Failure_pattern.n fp in
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
           choice's arity so the sibling branches can be enqueued. *)
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
        let hook ~now ~digest ~steps:_ =
          if (not prune) || !consumed < depth then true
          else begin
            let key =
              if prune_mod_time then digest ()
              else Hashtbl.hash (digest (), now)
            in
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
        let r = Harness.run ~seed target ~fp ~round_hook:hook sched in
        steps := !steps + r.Harness.steps;
        (match r.Harness.violation with
        | Some reason ->
          found :=
            Some
              {
                Harness.target = target.Harness.name;
                n;
                seed;
                schedule = Schedule.of_fp fp r.Harness.choices;
                reason;
                shrunk = false;
              }
        | None -> ());
        if !found = None then begin
          (* Enqueue the unexplored siblings of every choice point taken
             beyond the prefix (the prefix's own siblings were enqueued by
             the run that discovered it). *)
          let seq = Array.of_list r.Harness.choices in
          let ars = Array.of_list (List.rev !arities) in
          for i = Array.length seq - 1 downto depth do
            for k = ars.(i) - 1 downto 1 do
              stack := (take_prefix seq i @ [ k ]) :: !stack
            done
          done
        end
      end
  done;
  let counterexample =
    match !found with
    | None -> None
    | Some c when not shrink -> Some c
    | Some c ->
      let violates s = Harness.violates ~seed target ~n s in
      let schedule, _ =
        Shrink.minimize ~budget:shrink_budget ~violates c.Harness.schedule
      in
      Some { c with Harness.schedule; shrunk = true }
  in
  {
    counterexample;
    schedules = !schedules;
    pruned = !pruned;
    steps = !steps;
    complete = (not !out_of_budget) && !stack = [];
  }
