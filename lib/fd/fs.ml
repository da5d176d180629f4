type output = Green | Red

let equal_output a b =
  match (a, b) with Green, Green | Red, Red -> true | Green, Red | Red, Green -> false

let oracle =
  Oracle.make ~name:"FS" (fun fp rng ->
      match Sim.Failure_pattern.first_crash fp with
      | None -> fun _p _t -> Green
      | Some t0 ->
        let n = Sim.Failure_pattern.n fp in
        let lag_rng = Sim.Rng.split rng 1 in
        let switch =
          Array.init n (fun p ->
              t0 + 1 + Sim.Rng.int (Sim.Rng.derive lag_rng p) 30)
        in
        fun p t -> if t >= switch.(p) then Red else Green)

let oracle_lazy ~lag =
  Oracle.make ~name:(Printf.sprintf "FS(lag=%d)" lag) (fun fp _rng ->
      match Sim.Failure_pattern.first_crash fp with
      | None -> fun _p _t -> Green
      | Some t0 -> fun _p t -> if t >= t0 + lag then Red else Green)

let check fp ~horizon h =
  let n = Sim.Failure_pattern.n fp in
  let first_crash = Sim.Failure_pattern.first_crash fp in
  let accuracy_violation = ref None in
  (try
     List.iter
       (fun p ->
         for t = 0 to horizon do
           match h p t with
           | Green -> ()
           | Red -> (
             match first_crash with
             | Some t0 when t0 <= t -> ()
             | _ ->
               accuracy_violation := Some (p, t);
               raise Exit)
         done)
       (Sim.Pid.all n)
   with Exit -> ());
  match !accuracy_violation with
  | Some (p, t) ->
    Error
      (Format.asprintf "accuracy violated: %a red at t=%d with no prior crash"
         Sim.Pid.pp p t)
  | None -> (
    match first_crash with
    | None -> Ok ()
    | Some _ ->
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let not_red =
        List.filter (fun p -> not (equal_output (h p horizon) Red)) correct
      in
      (match not_red with
      | [] -> Ok ()
      | p :: _ ->
        Error
          (Format.asprintf
             "completeness violated: correct %a still green at horizon %d \
              despite a failure"
             Sim.Pid.pp p horizon)))
