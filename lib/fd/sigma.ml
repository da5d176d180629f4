type output = Sim.Pidset.t

let random_subset rng universe =
  List.filter (fun _ -> Sim.Rng.bool rng) universe |> Sim.Pidset.of_list

let oracle =
  Oracle.make ~name:"Sigma" (fun fp rng ->
      let kernel =
        Sim.Rng.pick (Sim.Rng.split rng 1)
          (Sim.Pidset.elements (Sim.Failure_pattern.correct fp))
      in
      let stab =
        Oracle.default_stabilization fp (Sim.Rng.split rng 2)
      in
      let base = Sim.Rng.split rng 3 in
      let n = Sim.Failure_pattern.n fp in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      fun p t ->
        let qrng = Oracle.per_query base p t in
        let universe = if t >= stab then correct else Sim.Pid.all n in
        Sim.Pidset.add kernel (random_subset qrng universe))

let oracle_majority =
  Oracle.make ~name:"Sigma(majority)" (fun fp rng ->
      if not (Sim.Failure_pattern.majority_correct fp) then
        invalid_arg
          "Sigma.oracle_majority: pattern does not have a correct majority";
      let n = Sim.Failure_pattern.n fp in
      let k = (n / 2) + 1 in
      let stab = Oracle.default_stabilization fp (Sim.Rng.split rng 2) in
      let base = Sim.Rng.split rng 3 in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let majority_from rng universe =
        (* A uniform size-k subset of [universe] (|universe| >= k). *)
        let shuffled = Sim.Rng.shuffle rng universe in
        List.filteri (fun i _ -> i < k) shuffled |> Sim.Pidset.of_list
      in
      fun p t ->
        let qrng = Oracle.per_query base p t in
        if t >= stab then majority_from qrng correct
        else majority_from qrng (Sim.Pid.all n))

let oracle_exact =
  Oracle.make ~name:"Sigma(exact)" (fun fp _rng ->
      let correct = Sim.Failure_pattern.correct fp in
      fun _p _t -> correct)

module Quorums = Set.Make (Sim.Pidset)

let distinct outputs =
  let _, firsts =
    List.fold_left
      (fun (seen, firsts) (e : output Sim.Trace.event) ->
        if Quorums.mem e.value seen then (seen, firsts)
        else (Quorums.add e.value seen, e :: firsts))
      (Quorums.empty, []) outputs
  in
  List.rev firsts

let safety outputs =
  let rec scan = function
    | [] -> Ok ()
    | (a : output Sim.Trace.event) :: rest -> (
      match
        List.find_opt
          (fun (b : output Sim.Trace.event) ->
            not (Sim.Pidset.intersects a.value b.value))
          (a :: rest)
      with
      | Some b ->
        Error
          (Format.asprintf
             "intersection violated: %a@@%d output %a vs %a@@%d output %a"
             Sim.Pid.pp a.pid a.time Sim.Pidset.pp a.value Sim.Pid.pp b.pid
             b.time Sim.Pidset.pp b.value)
      | None -> scan rest)
  in
  scan (distinct outputs)

let check fp outputs =
  let correct = Sim.Failure_pattern.correct fp in
  (* each process's last output: the later of two at one time *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun (e : output Sim.Trace.event) ->
      match Hashtbl.find_opt last e.pid with
      | Some (l : output Sim.Trace.event) when l.time > e.time -> ()
      | _ -> Hashtbl.replace last e.pid e)
    outputs;
  let stale p =
    match Hashtbl.find_opt last p with
    | Some (e : output Sim.Trace.event)
      when not (Sim.Pidset.subset e.value correct) ->
      Some
        (Format.asprintf
           "completeness violated: %a's last sample (t=%d) %a contains \
            faulty processes"
           Sim.Pid.pp p e.time Sim.Pidset.pp e.value)
    | Some _ | None -> None (* no outputs at p: vacuously fine *)
  in
  match safety outputs with
  | Error _ as e -> e
  | Ok () -> (
    match List.find_map stale (Sim.Pidset.elements correct) with
    | Some e -> Error e
    | None -> Ok ())

let sample_history fp ~horizon h =
  let n = Sim.Failure_pattern.n fp in
  List.concat_map
    (fun pid ->
      List.init (horizon + 1) (fun time ->
          { Sim.Trace.time; pid; value = h pid time }))
    (Sim.Pid.all n)
