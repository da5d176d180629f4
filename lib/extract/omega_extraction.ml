type result = { outputs : Sim.Pid.t Sim.Trace.event list; horizon : int }

(* Consensus-under-test: quorum Paxos wrapped so its decisions are the
   plain int it decides (the Cht machinery is generic in the output). *)
let algorithm :
    (int Cons.Quorum_paxos.state, int Cons.Quorum_paxos.msg,
     Sim.Pid.t * Sim.Pidset.t, int, int)
    Sim.Protocol.t =
  Cons.Quorum_paxos.protocol

let run ~fp ~seed ~rounds ~chunk =
  let n = Sim.Failure_pattern.n fp in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let history p t = (omega p t, sigma p t) in
  let full_horizon = (rounds + 1) * chunk in
  let samples_full = Dag.build fp history ~horizon:full_horizon in
  (* fd0 for initial-input application; consensus inputs ignore it. *)
  let fd0 = (0, Sim.Pidset.full n) in
  let t = Cht.make algorithm ~n ~fd0 in
  let correct = Sim.Failure_pattern.correct fp in
  let round r =
    let horizon = (r + 1) * chunk in
    (* the samples of (horizon - chunk, horizon] *)
    let window =
      let cut = Dag.suffix_from samples_full ~time:(horizon + 1) in
      let from = Dag.suffix_from samples_full ~time:(max 0 (horizon - chunk)) in
      Array.sub samples_full from (cut - from)
    in
    let leader =
      match Cht.extract_leader t window with
      | Some l -> l
      | None -> Sim.Pidset.min_elt correct
    in
    List.filter_map
      (fun p ->
        if Sim.Failure_pattern.crashed_at fp ~time:horizon p then None
        else Some { Sim.Trace.time = horizon; pid = p; value = leader })
      (Sim.Pid.all n)
  in
  { outputs = List.concat (List.init rounds round); horizon = rounds * chunk }
