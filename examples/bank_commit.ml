(* Distributed transaction commit with NBAC (from QC + FS, Figure 4).

   Four resource managers must atomically commit a money transfer.  We run
   three classic situations and, for contrast, show 2PC blocking where NBAC
   does not.

     dune exec examples/bank_commit.exe
*)

let managers = [| "accounts-db"; "ledger-db"; "audit-log"; "cache" |]

let run_scenario ~title ~fp ~votes ~seed =
  Format.printf "@.── %s@." title;
  Array.iteri
    (fun p name ->
      let vote =
        match List.assoc_opt p votes with
        | Some Qcnbac.Types.Yes -> "votes Yes"
        | Some Qcnbac.Types.No -> "votes No"
        | None -> "crashes before voting"
      in
      Format.printf "   %-12s %s@." name vote)
    managers;
  let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
  let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:(seed + 1) in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:150_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) votes)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun p t -> (psi p t, fs p t))
      fp
  in
  let trace = Sim.Engine.run cfg Qcnbac.Nbac_from_qc.protocol in
  List.iter
    (fun (e : Qcnbac.Types.outcome Sim.Trace.event) ->
      Format.printf "   t=%-5d %-12s returns %a@." e.time
        managers.(e.pid) Qcnbac.Types.pp_outcome e.value)
    trace.Sim.Trace.outputs;
  match
    Cons.Spec.check (Qcnbac.Nbac_spec.problem ~votes) fp trace.Sim.Trace.outputs
  with
  | Ok () -> Format.printf "   NBAC spec: OK@."
  | Error e -> Format.printf "   NBAC spec VIOLATED: %s@." e

let () =
  let n = Array.length managers in
  Format.printf "Atomic commit across %d resource managers, via NBAC on \
                 (Ψ, FS).@." n;

  let yes p = (p, Qcnbac.Types.Yes) in
  run_scenario ~title:"1. Everyone is ready, nothing fails — must Commit"
    ~fp:(Sim.Failure_pattern.failure_free n)
    ~votes:(List.map yes (Sim.Pid.all n))
    ~seed:11;

  run_scenario ~title:"2. The audit log vetoes — must Abort"
    ~fp:(Sim.Failure_pattern.failure_free n)
    ~votes:[ yes 0; yes 1; (2, Qcnbac.Types.No); yes 3 ]
    ~seed:12;

  run_scenario ~title:"3. The cache crashes before voting — Abort, nobody blocks"
    ~fp:(Sim.Failure_pattern.make ~n [ (3, 0) ])
    ~votes:[ yes 0; yes 1; yes 2 ]
    ~seed:13;

  (* The 2PC contrast: same crash, but the coordinator is the one that
     dies. *)
  Format.printf "@.── 4. Two-phase commit with the coordinator crashing@.";
  let fp = Sim.Failure_pattern.make ~n [ (0, 1) ] in
  let votes = List.map yes [ 1; 2; 3 ] in
  let cfg =
    Sim.Engine.config ~seed:14 ~max_steps:20_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) votes)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun _ _ -> ())
      fp
  in
  let trace = Sim.Engine.run cfg Qcnbac.Two_phase_commit.protocol in
  (match trace.Sim.Trace.stopped with
  | `Step_limit ->
    Format.printf
      "   2PC is BLOCKED: %s crashed, the others wait forever.@.   (NBAC in \
       scenario 3 terminated — that gap is exactly what FS buys.)@."
      managers.(0)
  | `Condition | `Quiescent | `Hook ->
    Format.printf "   2PC terminated (unexpected)@.")
