(* Consensus across a network partition.

   Asynchrony means message delays are finite but unbounded — a partition
   that eventually heals is a legal asynchronous network.  This example
   splits 5 processes into {p0,p1} | {p2,p3,p4} until t=400.  Quorum
   consensus on (Ω, Σ) stalls while its quorums straddle the cut, then
   decides promptly after the heal: safety is never in danger, and
   termination resumes as soon as the network lets it.

     dune exec examples/partition_demo.exe
*)

let () =
  let n = 5 in
  let fp = Sim.Failure_pattern.failure_free n in
  let heal_at = 400 in
  let groups = [ Sim.Pidset.of_list [ 0; 1 ]; Sim.Pidset.of_list [ 2; 3; 4 ] ] in
  Format.printf
    "Partition {p0,p1} | {p2,p3,p4} until t=%d, then healed.@.@." heal_at;

  let seed = 44 in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let proposals = List.map (fun p -> (p, 100 + p)) (Sim.Pid.all n) in
  let cfg =
    Sim.Engine.config ~seed
      ~policy:(Sim.Network.Partition { groups; heal_at })
      ~max_steps:100_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun p t -> (omega p t, sigma p t))
      fp
  in
  let trace = Sim.Engine.run cfg Cons.Quorum_paxos.protocol in

  Format.printf "Decisions:@.";
  List.iter
    (fun (e : int Sim.Trace.event) ->
      Format.printf "  t=%-5d %a decides %d %s@." e.time Sim.Pid.pp e.pid
        e.value
        (if e.time <= heal_at then "(during partition!)" else "(after heal)"))
    trace.Sim.Trace.outputs;

  let consensus = Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals in
  (match Cons.Spec.check consensus fp trace.Sim.Trace.outputs with
  | Ok () -> Format.printf "@.Consensus spec: OK@."
  | Error e -> Format.printf "@.Consensus spec VIOLATED: %s@." e);
  match Sim.Trace.latency trace with
  | Some l when l > heal_at ->
    Format.printf
      "Latency %d > %d: the decision waited for the heal — liveness \
       depends on the network, safety never did.@." l heal_at
  | Some l ->
    Format.printf
      "Latency %d: a quorum fit inside one side of the cut this run.@." l
  | None -> Format.printf "No decision (unexpected).@."
