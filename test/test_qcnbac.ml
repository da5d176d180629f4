(* Tests for the QC/NBAC layer: QC from Ψ (Fig 2 / Thm 5) in both Ψ modes,
   NBAC from QC + FS (Fig 4 / Thm 8a), QC from NBAC (Fig 5 / Thm 8b),
   FS from NBAC, and the blocking 2PC baseline. *)

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let inputs_at_zero xs = List.map (fun (p, v) -> (0, p, v)) xs

let qc_check ~proposals fp trace =
  Cons.Spec.check
    (Qcnbac.Qc_spec.problem ~pp:Format.pp_print_int ~proposals)
    fp trace.Sim.Trace.outputs

let nbac_check ~votes fp trace =
  Cons.Spec.check (Qcnbac.Nbac_spec.problem ~votes) fp trace.Sim.Trace.outputs

(* --- QC from Ψ (Figure 2) ------------------------------------------------ *)

let run_qc_psi ?psi_oracle ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let oracle = Option.value psi_oracle ~default:Fd.Psi.oracle in
  let psi = Fd.Oracle.history oracle fp ~seed in
  let rng = Sim.Rng.make (seed + 5) in
  let proposals = List.map (fun p -> (p, Sim.Rng.int rng 2)) (Sim.Pid.all n) in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:100_000
      ~inputs:(inputs_at_zero proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd:psi fp
  in
  (proposals, Sim.Engine.run cfg Qcnbac.Qc_psi.protocol)

let test_qc_psi_consensus_mode () =
  for seed = 1 to 15 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
        (Sim.Rng.make (seed * 3))
    in
    let proposals, trace =
      run_qc_psi
        ~psi_oracle:(Fd.Psi.oracle_forced Fd.Psi.Consensus_mode)
        ~seed fp
    in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "qc cons-mode" (qc_check ~proposals fp trace);
    (* In consensus mode no process may quit. *)
    List.iter
      (fun (e : _ Sim.Trace.event) ->
        match e.value with
        | Qcnbac.Types.Quit -> Alcotest.fail "quit in consensus mode"
        | Qcnbac.Types.Value _ -> ())
      trace.outputs
  done

let test_qc_psi_failure_mode () =
  for seed = 1 to 15 do
    let fp = Sim.Failure_pattern.make ~n:4 [ (seed mod 4, 10) ] in
    let proposals, trace =
      run_qc_psi ~psi_oracle:(Fd.Psi.oracle_forced Fd.Psi.Failure_mode) ~seed
        fp
    in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "qc fs-mode" (qc_check ~proposals fp trace);
    (* In failure mode every decision is Q. *)
    List.iter
      (fun (e : _ Sim.Trace.event) ->
        match e.value with
        | Qcnbac.Types.Quit -> ()
        | Qcnbac.Types.Value _ ->
          Alcotest.failf "p%d decided a value in failure mode" e.pid)
      trace.outputs
  done

let test_qc_psi_random_mode () =
  for seed = 1 to 25 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
        (Sim.Rng.make (seed * 7))
    in
    let proposals, trace = run_qc_psi ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "qc random" (qc_check ~proposals fp trace)
  done

let test_qc_psi_multivalued () =
  (* Footnote 6: binary QC generalises to arbitrary domains; our QC is
     polymorphic, so multivalued QC is the same protocol with a larger
     proposal space. *)
  for seed = 1 to 10 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
        (Sim.Rng.make (seed * 29))
    in
    let rng = Sim.Rng.make (seed + 31) in
    let proposals =
      List.map (fun p -> (p, Sim.Rng.int rng 1000)) (Sim.Pid.all 4)
    in
    let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
    let cfg =
      Sim.Engine.config ~seed ~max_steps:100_000
        ~inputs:(inputs_at_zero proposals)
        ~stop:(Sim.Engine.stop_when_all_correct_output fp)
        ~detect_quiescence:false ~fd:psi fp
    in
    let trace = Sim.Engine.run cfg Qcnbac.Qc_psi.protocol in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "multivalued qc" (qc_check ~proposals fp trace)
  done

(* --- NBAC from QC + FS (Figure 4) ---------------------------------------- *)

let nbac_fd ~seed fp =
  let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
  let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:(seed + 1) in
  fun p t -> (psi p t, fs p t)

let run_nbac ?votes ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let votes =
    match votes with
    | Some v -> v
    | None -> List.map (fun p -> (p, Qcnbac.Types.Yes)) (Sim.Pid.all n)
  in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:150_000 ~inputs:(inputs_at_zero votes)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd:(nbac_fd ~seed fp) fp
  in
  (votes, Sim.Engine.run cfg Qcnbac.Nbac_from_qc.protocol)

let all_outcomes trace =
  List.sort_uniq compare
    (List.map (fun (e : _ Sim.Trace.event) -> e.value) trace.Sim.Trace.outputs)

let test_nbac_all_yes_failure_free_commits () =
  for seed = 1 to 10 do
    let fp = Sim.Failure_pattern.failure_free 4 in
    let votes, trace = run_nbac ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "nbac spec"
      (nbac_check ~votes fp trace);
    (* All-Yes and failure-free: Commit is forced (validity b). *)
    Alcotest.(check bool) "committed" true
      (all_outcomes trace = [ Qcnbac.Types.Commit ])
  done

let test_nbac_no_vote_aborts () =
  for seed = 1 to 10 do
    let fp = Sim.Failure_pattern.failure_free 4 in
    let votes =
      [
        (0, Qcnbac.Types.Yes);
        (1, Qcnbac.Types.No);
        (2, Qcnbac.Types.Yes);
        (3, Qcnbac.Types.Yes);
      ]
    in
    let votes, trace = run_nbac ~votes ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "nbac spec"
      (nbac_check ~votes fp trace);
    Alcotest.(check bool) "aborted" true
      (all_outcomes trace = [ Qcnbac.Types.Abort ])
  done

let test_nbac_crash_before_vote_aborts () =
  for seed = 1 to 10 do
    (* Process 2 crashes at time 0, before it can vote. *)
    let fp = Sim.Failure_pattern.make ~n:4 [ (2, 0) ] in
    let votes =
      [ (0, Qcnbac.Types.Yes); (1, Qcnbac.Types.Yes); (3, Qcnbac.Types.Yes) ]
    in
    let votes, trace = run_nbac ~votes ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "nbac spec"
      (nbac_check ~votes fp trace);
    Alcotest.(check bool) "aborted" true
      (all_outcomes trace = [ Qcnbac.Types.Abort ])
  done

let test_nbac_random_runs () =
  for seed = 1 to 20 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
        (Sim.Rng.make (seed * 13))
    in
    let rng = Sim.Rng.make (seed + 3) in
    let votes =
      List.map
        (fun p ->
          (p, if Sim.Rng.int rng 4 = 0 then Qcnbac.Types.No else Qcnbac.Types.Yes))
        (Sim.Pid.all 4)
    in
    let votes, trace = run_nbac ~votes ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "nbac spec"
      (nbac_check ~votes fp trace)
  done

(* --- QC from NBAC (Figure 5) --------------------------------------------- *)

let test_qc_from_nbac () =
  for seed = 1 to 15 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
        (Sim.Rng.make (seed * 19))
    in
    let rng = Sim.Rng.make (seed + 23) in
    let proposals =
      List.map (fun p -> (p, Sim.Rng.int rng 100)) (Sim.Pid.all 4)
    in
    let cfg =
      Sim.Engine.config ~seed ~max_steps:150_000
        ~inputs:(inputs_at_zero proposals)
        ~stop:(Sim.Engine.stop_when_all_correct_output fp)
        ~detect_quiescence:false ~fd:(nbac_fd ~seed fp) fp
    in
    let trace = Sim.Engine.run cfg Qcnbac.Qc_from_nbac.protocol in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    check_ok "qc-from-nbac spec" (qc_check ~proposals fp trace);
    (* If a value was decided it must be the smallest proposal (the
       algorithm returns the smallest of all n proposals). *)
    let smallest =
      List.fold_left (fun acc (_, v) -> min acc v) max_int proposals
    in
    List.iter
      (fun (e : _ Sim.Trace.event) ->
        match e.value with
        | Qcnbac.Types.Value v ->
          Alcotest.(check int) "smallest proposal" smallest v
        | Qcnbac.Types.Quit -> ())
      trace.outputs
  done

(* --- FS from NBAC --------------------------------------------------------- *)

let run_fs_from_nbac ~seed ~max_steps fp =
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~detect_quiescence:false
      ~fd:(nbac_fd ~seed fp) fp
  in
  Sim.Engine.run cfg Qcnbac.Fs_from_nbac.protocol

(* The FS stream, read as a history from [Green] on, judged by the FS
   spec at the run's end. *)
let fs_spec fp (trace : (_, Fd.Fs.output) Sim.Trace.t) =
  Fd.Fs.check fp ~horizon:trace.ticks
    (Fd.Oracle.of_outputs ~init:Fd.Fs.Green trace.outputs)

let test_fs_from_nbac_failure_free_green () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let trace = run_fs_from_nbac ~seed:3 ~max_steps:20_000 fp in
  (* Nobody may ever emit red without a failure. *)
  check_ok "fs spec" (fs_spec fp trace);
  (* And instances must keep committing (progress). *)
  Array.iter
    (fun st ->
      Alcotest.(check bool) "instances advance" true
        (Qcnbac.Fs_from_nbac.instance st > 1))
    trace.Sim.Trace.final_states

let test_fs_from_nbac_turns_red_after_crash () =
  for seed = 1 to 8 do
    let fp = Sim.Failure_pattern.make ~n:3 [ (seed mod 3, 200) ] in
    let trace = run_fs_from_nbac ~seed ~max_steps:60_000 fp in
    (* accuracy: no red before the crash; completeness: every correct
       process ends red *)
    check_ok (Printf.sprintf "fs spec (seed %d)" seed) (fs_spec fp trace)
  done

(* --- NBAC is not consensus (Charron-Bost & Toueg / Guerraoui) ------------ *)

(* A deliberately naive "NBAC" that just runs consensus on each process's
   local guess (all-Yes-so-far?) without a failure signal.  Our NBAC spec
   checker must catch the validity violation this produces: in a
   failure-free all-Yes run, a process whose votes had not all arrived yet
   proposes 0, consensus may pick it, and the system aborts with neither a
   No vote nor a failure — exactly why consensus alone cannot solve NBAC. *)
let test_consensus_is_not_nbac () =
  let fp = Sim.Failure_pattern.failure_free 4 in
  let votes = List.map (fun p -> (p, Qcnbac.Types.Yes)) (Sim.Pid.all 4) in
  (* Simulate the naive reduction: processes propose 0 or 1 depending on an
     arbitrary local cut-off; we model the bad case directly by proposing 0
     at one process. *)
  let proposals = [ (0, 1); (1, 0); (2, 1); (3, 1) ] in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed:7 in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:8 in
  let cfg =
    Sim.Engine.config ~seed:7 ~max_steps:60_000
      ~inputs:(inputs_at_zero proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun p t -> (omega p t, sigma p t))
      fp
  in
  let trace = Sim.Engine.run cfg Cons.Quorum_paxos.protocol in
  let outcomes =
    List.map
      (fun (e : int Sim.Trace.event) ->
        let value =
          if e.value = 1 then Qcnbac.Types.Commit else Qcnbac.Types.Abort
        in
        { e with value })
      trace.Sim.Trace.outputs
  in
  let nbac = Qcnbac.Nbac_spec.problem ~votes in
  (* If consensus picked 0, the NBAC spec must reject the outcome. *)
  match
    List.sort_uniq compare
      (List.map (fun (e : _ Sim.Trace.event) -> e.value) outcomes)
  with
  | [ Qcnbac.Types.Abort ] -> (
    match Cons.Spec.check nbac fp outcomes with
    | Ok () -> Alcotest.fail "spec accepted an abort without cause"
    | Error _ -> ())
  | _ ->
    (* Consensus picked 1 this run: re-run logic is seed-dependent; the
       demonstration still holds whenever 0 wins, so force the bad case by
       checking the checker directly. *)
    (match
       Cons.Spec.check nbac fp
         [ { Sim.Trace.time = 50; pid = 0; value = Qcnbac.Types.Abort } ]
     with
    | Ok () -> Alcotest.fail "spec accepted an abort without cause"
    | Error _ -> ())

(* --- 2PC baseline ---------------------------------------------------------- *)

let run_2pc ?votes ~seed fp ~max_steps =
  let n = Sim.Failure_pattern.n fp in
  let votes =
    match votes with
    | Some v -> v
    | None -> List.map (fun p -> (p, Qcnbac.Types.Yes)) (Sim.Pid.all n)
  in
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~inputs:(inputs_at_zero votes)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun _ _ -> ())
      fp
  in
  (votes, Sim.Engine.run cfg Qcnbac.Two_phase_commit.protocol)

let test_2pc_failure_free () =
  let fp = Sim.Failure_pattern.failure_free 4 in
  let votes, trace = run_2pc ~seed:2 fp ~max_steps:20_000 in
  Alcotest.(check bool) "terminated" true
    (trace.Sim.Trace.stopped = `Condition);
  check_ok "2pc commit path"
    (nbac_check ~votes fp trace);
  Alcotest.(check bool) "committed" true
    (all_outcomes trace = [ Qcnbac.Types.Commit ])

let test_2pc_veto_aborts () =
  let fp = Sim.Failure_pattern.failure_free 4 in
  let votes =
    [
      (0, Qcnbac.Types.Yes);
      (1, Qcnbac.Types.Yes);
      (2, Qcnbac.Types.No);
      (3, Qcnbac.Types.Yes);
    ]
  in
  let _votes, trace = run_2pc ~votes ~seed:2 fp ~max_steps:20_000 in
  Alcotest.(check bool) "aborted" true
    (all_outcomes trace = [ Qcnbac.Types.Abort ])

let test_2pc_blocks_on_coordinator_crash () =
  (* The coordinator crashes before gathering votes: participants block —
     while NBAC in the same scenario terminates. *)
  let fp = Sim.Failure_pattern.make ~n:4 [ (0, 1) ] in
  let _votes, trace_2pc = run_2pc ~seed:4 fp ~max_steps:10_000 in
  Alcotest.(check bool) "2pc blocked" true
    (trace_2pc.Sim.Trace.stopped = `Step_limit);
  let votes, trace_nbac = run_nbac ~seed:4 fp in
  Alcotest.(check bool) "nbac terminated" true
    (trace_nbac.Sim.Trace.stopped = `Condition);
  check_ok "nbac spec"
    (nbac_check ~votes fp trace_nbac)

let prop_nbac_safe =
  QCheck.Test.make ~name:"NBAC outcome satisfies the spec in any environment"
    ~count:25 QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:120
          (Sim.Rng.make (seed * 37))
      in
      let rng = Sim.Rng.make (seed + 41) in
      let votes =
        List.map
          (fun p ->
            ( p,
              if Sim.Rng.int rng 5 = 0 then Qcnbac.Types.No
              else Qcnbac.Types.Yes ))
          (Sim.Pid.all 3)
      in
      let votes, trace = run_nbac ~votes ~seed fp in
      match nbac_check ~votes fp trace with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "qcnbac"
    [
      ( "qc-psi",
        [
          Alcotest.test_case "consensus mode" `Slow test_qc_psi_consensus_mode;
          Alcotest.test_case "failure mode" `Quick test_qc_psi_failure_mode;
          Alcotest.test_case "random mode" `Slow test_qc_psi_random_mode;
          Alcotest.test_case "multivalued (footnote 6)" `Slow
            test_qc_psi_multivalued;
        ] );
      ( "nbac",
        [
          Alcotest.test_case "all-yes failure-free commits" `Quick
            test_nbac_all_yes_failure_free_commits;
          Alcotest.test_case "a No vote aborts" `Quick test_nbac_no_vote_aborts;
          Alcotest.test_case "crash before vote aborts" `Quick
            test_nbac_crash_before_vote_aborts;
          Alcotest.test_case "random runs" `Slow test_nbac_random_runs;
        ] );
      ( "qc-from-nbac",
        [ Alcotest.test_case "spec + smallest proposal" `Slow test_qc_from_nbac ] );
      ( "fs-from-nbac",
        [
          Alcotest.test_case "failure-free stays green" `Quick
            test_fs_from_nbac_failure_free_green;
          Alcotest.test_case "turns red after crash" `Slow
            test_fs_from_nbac_turns_red_after_crash;
        ] );
      ( "incomparability",
        [
          Alcotest.test_case "consensus alone is not NBAC" `Quick
            test_consensus_is_not_nbac;
        ] );
      ( "2pc",
        [
          Alcotest.test_case "failure-free commits" `Quick test_2pc_failure_free;
          Alcotest.test_case "veto aborts" `Quick test_2pc_veto_aborts;
          Alcotest.test_case "blocks on coordinator crash" `Quick
            test_2pc_blocks_on_coordinator_crash;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_nbac_safe ]);
    ]
