(* Quickstart: consensus with the failure detector (Ω, Σ) in an environment
   where a majority-based algorithm could not work.

   Five processes propose values; two of them crash mid-run; the rest decide
   a common proposed value.  Run with:

     dune exec examples/quickstart.exe
*)

let () =
  let n = 5 in
  let fp = Sim.Failure_pattern.make ~n [ (1, 40); (3, 90) ] in
  let seed = 2026 in
  Format.printf "System: %d processes, %a@." n Sim.Failure_pattern.pp fp;

  (* Failure detector histories: a leader oracle Ω and a quorum oracle Σ,
     sampled from the space of histories the specs allow. *)
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in

  (* Every process proposes its own id as value. *)
  let proposals = List.map (fun p -> (p, p)) (Sim.Pid.all n) in
  Format.printf "Proposals: %s@."
    (String.concat ", "
       (List.map (fun (p, v) -> Printf.sprintf "p%d->%d" p v) proposals));

  let cfg =
    Sim.Engine.config ~seed
      ~policy:(Sim.Network.Random_delay { max_delay = 4; lambda_prob = 0.2 })
      ~max_steps:100_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun p t -> (omega p t, sigma p t))
      fp
  in
  let trace = Sim.Engine.run cfg Cons.Quorum_paxos.protocol in

  Format.printf "@.Decision timeline:@.";
  List.iter
    (fun (e : int Sim.Trace.event) ->
      Format.printf "  t=%-5d %a decides %d@." e.time Sim.Pid.pp e.pid e.value)
    trace.Sim.Trace.outputs;

  let consensus = Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals in
  (match Cons.Spec.check consensus fp trace.Sim.Trace.outputs with
  | Ok () -> Format.printf "@.Consensus spec: OK@."
  | Error e -> Format.printf "@.Consensus spec VIOLATED: %s@." e);
  Format.printf "steps=%d messages=%d latency=%s@." trace.Sim.Trace.steps
    trace.Sim.Trace.messages_sent
    (match Sim.Trace.latency trace with
    | Some l -> string_of_int l
    | None -> "-")
