(* Quittable consensus (the paper's new problem) from its weakest failure
   detector Ψ — Figure 2.

   QC is consensus with an escape hatch: when a failure occurs, processes
   may agree on "Q" (quit) instead of a proposed value, and fall back to a
   default action.  Ψ makes the choice for them: it eventually behaves
   either like (Ω, Σ) — then they reach ordinary consensus — or, only if a
   failure really occurred, like the failure signal FS — then they all
   quit.

     dune exec examples/qc_demo.exe
*)

let run ~title ~fp ~mode ~seed =
  Format.printf "@.── %s@." title;
  let n = Sim.Failure_pattern.n fp in
  let psi = Fd.Oracle.history (Fd.Psi.oracle_forced mode) fp ~seed in
  let proposals = List.map (fun p -> (p, 10 + p)) (Sim.Pid.all n) in
  Format.printf "   proposals: %s@."
    (String.concat ", "
       (List.map (fun (p, v) -> Printf.sprintf "p%d->%d" p v) proposals));
  let cfg =
    Sim.Engine.config ~seed ~max_steps:100_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd:psi fp
  in
  let trace = Sim.Engine.run cfg Qcnbac.Qc_psi.protocol in
  List.iter
    (fun (e : int Qcnbac.Types.qc_decision Sim.Trace.event) ->
      Format.printf "   t=%-5d %a returns %a@." e.time Sim.Pid.pp e.pid
        (Qcnbac.Types.pp_qc_decision Format.pp_print_int)
        e.value)
    trace.Sim.Trace.outputs;
  let qc = Qcnbac.Qc_spec.problem ~pp:Format.pp_print_int ~proposals in
  match Cons.Spec.check qc fp trace.Sim.Trace.outputs with
  | Ok () -> Format.printf "   QC spec: OK@."
  | Error e -> Format.printf "   QC spec VIOLATED: %s@." e

let () =
  Format.printf "Quittable consensus from Ψ (Figure 2).@.";
  run ~title:"Ψ behaves like (Ω,Σ): processes decide a proposed value"
    ~fp:(Sim.Failure_pattern.make ~n:4 [ (2, 60) ])
    ~mode:Fd.Psi.Consensus_mode ~seed:21;
  run
    ~title:
      "Ψ behaves like FS after p1 crashes: processes agree to quit (Q)"
    ~fp:(Sim.Failure_pattern.make ~n:4 [ (1, 15) ])
    ~mode:Fd.Psi.Failure_mode ~seed:22;
  Format.printf
    "@.Note: Ψ may only take the FS branch when a failure occurred — in a \
     failure-free run the (Ω,Σ) branch is forced, so QC then *is* \
     consensus.@."
