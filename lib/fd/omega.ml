type output = Sim.Pid.t

let pick_correct fp rng =
  let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
  Sim.Rng.pick rng correct

let oracle =
  Oracle.make ~name:"Omega" (fun fp rng ->
      let n = Sim.Failure_pattern.n fp in
      let leader = pick_correct fp (Sim.Rng.split rng 1) in
      let stab_rng = Sim.Rng.split rng 2 in
      let base = Sim.Rng.split rng 3 in
      let common = Oracle.default_stabilization fp stab_rng in
      (* Each process stabilizes at its own time, all by [common + n]. *)
      let stab =
        Array.init n (fun p -> common + Sim.Rng.int (Sim.Rng.derive stab_rng p) (n + 1))
      in
      fun p t ->
        if t >= stab.(p) then leader
        else Sim.Rng.int (Oracle.per_query base p t) n)

let oracle_with ~leader ~stabilize_at =
  Oracle.make
    ~name:(Printf.sprintf "Omega(leader=%d,stab=%d)" leader stabilize_at)
    (fun fp rng ->
      let n = Sim.Failure_pattern.n fp in
      if Sim.Pidset.mem leader (Sim.Failure_pattern.faulty fp) then
        invalid_arg "Omega.oracle_with: chosen leader is faulty";
      let base = Sim.Rng.split rng 3 in
      fun p t ->
        if t >= stabilize_at then leader
        else Sim.Rng.int (Oracle.per_query base p t) n)

let oracle_instant =
  Oracle.make ~name:"Omega(instant)" (fun fp _rng ->
      let leader = Sim.Pidset.min_elt (Sim.Failure_pattern.correct fp) in
      fun _p _t -> leader)

let check fp ~horizon h =
  let correct = Sim.Failure_pattern.correct fp in
  let final = h (Sim.Pidset.min_elt correct) horizon in
  if not (Sim.Pidset.mem final correct) then
    Error
      (Format.asprintf "final output %a is not a correct process" Sim.Pid.pp
         final)
  else if Sim.Pidset.exists (fun q -> h q horizon <> final) correct then
    Error "correct processes disagree at the horizon"
  else Ok ()
