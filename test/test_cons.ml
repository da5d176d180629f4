(* Tests for the consensus layer: the spec checker, Disk Paxos on shared
   memory (registers + Ω, [19]), its transport over ABD (Corollary 2 as the
   paper composes it), native (Ω,Σ) quorum Paxos, the Chandra–Toueg ◇S
   baseline (works with a correct majority, blocks without one), and the
   binary→multivalued lift. *)

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

(* --- spec checker -------------------------------------------------------- *)

let test_spec_checker () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (2, 5) ] in
  let proposals = [ (0, 1); (1, 0); (2, 1) ] in
  check_ok "valid outcome"
    (Cons.Spec.check ~proposals ~decisions:[ (0, 1); (1, 1) ] fp);
  (match Cons.Spec.check ~proposals ~decisions:[ (0, 1); (1, 0) ] fp with
  | Ok () -> Alcotest.fail "accepted disagreement"
  | Error _ -> ());
  (match Cons.Spec.check ~proposals ~decisions:[ (0, 7); (1, 7) ] fp with
  | Ok () -> Alcotest.fail "accepted invalid value"
  | Error _ -> ());
  match Cons.Spec.check ~proposals ~decisions:[ (0, 1) ] fp with
  | Ok () -> Alcotest.fail "accepted missing decision"
  | Error _ -> ()

(* --- helpers ------------------------------------------------------------- *)

let proposals_for ~n ~rng = List.map (fun p -> (p, Sim.Rng.int rng 2)) (Sim.Pid.all n)

let inputs_of_proposals proposals =
  List.map (fun (p, v) -> (0, p, v)) proposals

let run_and_check ~name ~fp ~proposals trace =
  let decisions = Cons.Spec.decisions_of_trace trace in
  check_ok name (Cons.Spec.check ~proposals ~decisions fp)

(* --- Disk Paxos on shared memory ---------------------------------------- *)

let run_disk_paxos ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let rng = Sim.Rng.make (seed + 17) in
  let proposals = proposals_for ~n ~rng in
  let cfg =
    Regs.Shm.config ~seed ~max_steps:80_000
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:omega fp
  in
  let trace =
    Regs.Shm.run
      ~registers:(Cons.Disk_paxos.registers ~n)
      cfg Cons.Disk_paxos.proto
  in
  (proposals, trace)

let test_disk_paxos_failure_free () =
  for seed = 1 to 15 do
    let fp = Sim.Failure_pattern.failure_free 4 in
    let proposals, trace = run_disk_paxos ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"disk paxos ff" ~fp ~proposals trace
  done

let test_disk_paxos_any_environment () =
  for seed = 1 to 25 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:300
        (Sim.Rng.make (seed * 7))
    in
    let proposals, trace = run_disk_paxos ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"disk paxos any-env" ~fp ~proposals trace
  done

let test_disk_paxos_minority_correct () =
  (* 1 of 5 correct: impossible for ◇S+majority, fine for registers+Ω. *)
  let fp =
    Sim.Failure_pattern.make ~n:5 [ (0, 30); (1, 60); (2, 90); (3, 120) ]
  in
  for seed = 1 to 10 do
    let proposals, trace = run_disk_paxos ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"disk paxos minority" ~fp ~proposals trace
  done

(* --- round-based (adopt-commit) consensus on registers + Ω --------------- *)

let run_round_consensus ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let max_rounds = 64 in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let rng = Sim.Rng.make (seed + 17) in
  let proposals = proposals_for ~n ~rng in
  let cfg =
    Regs.Shm.config ~seed ~max_steps:120_000
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:omega fp
  in
  let trace =
    Regs.Shm.run
      ~registers:(Cons.Round_consensus.registers ~n ~max_rounds)
      cfg
      (Cons.Round_consensus.proto ~max_rounds)
  in
  (proposals, trace)

let test_round_consensus_any_environment () =
  for seed = 1 to 20 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:300
        (Sim.Rng.make (seed * 19))
    in
    let proposals, trace = run_round_consensus ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"round consensus" ~fp ~proposals trace
  done

let test_round_consensus_minority_correct () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40); (1, 80); (2, 120) ] in
  for seed = 1 to 8 do
    let proposals, trace = run_round_consensus ~seed fp in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"round consensus minority" ~fp ~proposals trace
  done

let test_round_consensus_rounds_bounded () =
  (* With a promptly-stabilizing Ω the algorithm should need few rounds. *)
  let fp = Sim.Failure_pattern.failure_free 4 in
  let max_rounds = 64 in
  let omega = Fd.Oracle.history Fd.Omega.oracle_instant fp ~seed:3 in
  let proposals = [ (0, 1); (1, 0); (2, 1); (3, 0) ] in
  let cfg =
    Regs.Shm.config ~seed:3 ~max_steps:120_000
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:omega fp
  in
  let trace =
    Regs.Shm.run
      ~registers:(Cons.Round_consensus.registers ~n:4 ~max_rounds)
      cfg
      (Cons.Round_consensus.proto ~max_rounds)
  in
  run_and_check ~name:"round consensus bounded" ~fp ~proposals trace;
  Array.iter
    (fun st ->
      Alcotest.(check bool) "few rounds" true
        (Cons.Round_consensus.round st <= 6))
    trace.Sim.Trace.final_states

(* --- Disk Paxos over ABD: message-passing consensus from (Ω,Σ) ---------- *)

let run_emulated_paxos ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let fd p t = (omega p t, sigma p t) in
  let rng = Sim.Rng.make (seed + 17) in
  let proposals = proposals_for ~n ~rng in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:150_000
      ~policy:(Sim.Network.Random_delay { max_delay = 3; lambda_prob = 0.1 })
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd fp
  in
  let proto =
    Regs.Emulate.protocol
      ~registers:(Cons.Disk_paxos.registers ~n)
      Cons.Disk_paxos.proto
  in
  (proposals, Sim.Engine.run cfg proto)

let test_emulated_paxos_corollary2 () =
  (* Corollary 2 as composed in the paper: registers from Σ (ABD), consensus
     from registers + Ω (Disk Paxos) — in any environment. *)
  for seed = 1 to 8 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:200
        (Sim.Rng.make (seed * 13))
    in
    let proposals, trace = run_emulated_paxos ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"emulated disk paxos" ~fp ~proposals trace
  done

(* --- Quorum Paxos (native (Ω,Σ) message passing) ------------------------- *)

let run_quorum_paxos ?(policy = Sim.Network.Fifo) ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let fd p t = (omega p t, sigma p t) in
  let rng = Sim.Rng.make (seed + 17) in
  let proposals = proposals_for ~n ~rng in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:100_000 ~policy
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd fp
  in
  (proposals, Sim.Engine.run cfg Cons.Quorum_paxos.protocol)

let test_quorum_paxos_any_environment () =
  for seed = 1 to 25 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:5 ~horizon:300
        (Sim.Rng.make (seed * 11))
    in
    let proposals, trace = run_quorum_paxos ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"quorum paxos" ~fp ~proposals trace
  done

(* The learner broadcast addresses only processes that may still be
   undecided.  Stepped by hand at n = 4: the leader, deciding when its
   accept round completes, sends Decide to the n-1 others; a process that
   learns the value from q's Decide relays it to the n-2 processes that
   are neither q nor itself; a second Decide sends nothing. *)
let test_quorum_paxos_decide_fanout () =
  let open Cons.Quorum_paxos in
  let n = 4 in
  let sigma = Sim.Pidset.of_list [ 0; 1; 2 ] in
  let ctx self = { Sim.Protocol.self; n; now = 0; fd = (0, sigma) } in
  let step self st recv = protocol.Sim.Protocol.on_step (ctx self) st recv in
  let decide_dsts acts =
    List.concat_map
      (function
        | Sim.Protocol.Send (q, Decide _) -> [ q ]
        | Sim.Protocol.Broadcast (Decide _) -> Sim.Pid.all n
        | Sim.Protocol.Send _ | Sim.Protocol.Broadcast _
        | Sim.Protocol.Output _ ->
          [])
      acts
  in
  let outputs acts =
    List.filter_map
      (function Sim.Protocol.Output v -> Some v | _ -> None)
      acts
  in
  let st = protocol.Sim.Protocol.init ~n 0 in
  let st, _ = protocol.Sim.Protocol.on_input (ctx 0) st 7 in
  let st, acts = step 0 st None in
  let b =
    match acts with
    | [ Sim.Protocol.Broadcast (Prepare b) ] -> b
    | _ -> Alcotest.fail "leader did not start a ballot"
  in
  let st =
    List.fold_left
      (fun st q -> fst (step 0 st (Some (q, Promise (b, None)))))
      st [ 0; 1; 2 ]
  in
  let st, _ = step 0 st (Some (0, Accept b)) in
  let st, _ = step 0 st (Some (1, Accept b)) in
  let _, acts = step 0 st (Some (2, Accept b)) in
  Alcotest.(check (list int)) "leader decides" [ 7 ] (outputs acts);
  Alcotest.(check (list int)) "leader's Decide goes to the n-1 others"
    [ 1; 2; 3 ] (decide_dsts acts);
  let st1 = protocol.Sim.Protocol.init ~n 1 in
  let st1, acts = step 1 st1 (Some (2, Decide 7)) in
  Alcotest.(check (list int)) "learner decides" [ 7 ] (outputs acts);
  Alcotest.(check (list int))
    "learner relays to the n-2 that are neither the sender nor itself"
    [ 0; 3 ] (decide_dsts acts);
  let _, acts = step 1 st1 (Some (0, Decide 7)) in
  Alcotest.(check int) "a second Decide sends nothing" 0 (List.length acts)

let test_quorum_paxos_adversarial_delivery () =
  for seed = 1 to 15 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:300
        (Sim.Rng.make (seed * 17))
    in
    let proposals, trace =
      run_quorum_paxos
        ~policy:(Sim.Network.Random_delay { max_delay = 8; lambda_prob = 0.35 })
        ~seed fp
    in
    Alcotest.(check bool) "terminated" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"quorum paxos adversarial" ~fp ~proposals trace
  done

let test_quorum_paxos_minority_correct () =
  let fp =
    Sim.Failure_pattern.make ~n:5 [ (1, 40); (2, 40); (3, 70); (4, 100) ]
  in
  for seed = 1 to 10 do
    let proposals, trace = run_quorum_paxos ~seed fp in
    Alcotest.(check bool) "terminated with 1/5 correct" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"quorum paxos minority" ~fp ~proposals trace
  done

let test_quorum_paxos_survives_partition () =
  (* A partition that heals at t=400: decisions are delayed but safety and
     termination hold (asynchrony = finite but unbounded delays). *)
  let fp = Sim.Failure_pattern.failure_free 5 in
  let policy =
    Sim.Network.Partition
      {
        groups =
          [ Sim.Pidset.of_list [ 0; 1 ]; Sim.Pidset.of_list [ 2; 3; 4 ] ];
        heal_at = 400;
      }
  in
  for seed = 1 to 6 do
    let proposals, trace = run_quorum_paxos ~policy ~seed fp in
    Alcotest.(check bool) "terminated after heal" true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"quorum paxos partition" ~fp ~proposals trace
  done

(* --- Chandra–Toueg ◇S baseline ------------------------------------------ *)

let run_ct ~seed fp =
  let n = Sim.Failure_pattern.n fp in
  let suspects = Fd.Oracle.history Fd.Suspects.eventually_strong fp ~seed in
  let rng = Sim.Rng.make (seed + 17) in
  let proposals = proposals_for ~n ~rng in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:120_000
      ~inputs:(inputs_of_proposals proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ~fd:suspects fp
  in
  (proposals, Sim.Engine.run cfg Cons.Chandra_toueg.protocol)

let test_ct_majority_correct () =
  for seed = 1 to 20 do
    let fp =
      Sim.Environment.sample Sim.Environment.majority_correct ~n:5 ~horizon:200
        (Sim.Rng.make (seed * 5))
    in
    let proposals, trace = run_ct ~seed fp in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"chandra-toueg" ~fp ~proposals trace
  done

let test_ct_blocks_without_majority () =
  (* 2 of 5 correct: no coordinator can ever gather a majority once the
     crashes hit; CT must block (yet stay safe). *)
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 0); (1, 0); (2, 0) ] in
  let proposals, trace = run_ct ~seed:3 fp in
  Alcotest.(check bool) "blocked" true
    (trace.Sim.Trace.stopped = `Step_limit);
  (* Safety must still hold for whatever decisions exist (none expected). *)
  let decisions = Cons.Spec.decisions_of_trace trace in
  Alcotest.(check int) "no decisions" 0 (List.length decisions);
  ignore proposals

(* --- multivalued --------------------------------------------------------- *)

let test_multivalued () =
  for seed = 1 to 10 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:200
        (Sim.Rng.make (seed * 3))
    in
    let n = Sim.Failure_pattern.n fp in
    let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
    let fd p t = (omega p t, sigma p t) in
    let rng = Sim.Rng.make (seed + 29) in
    let proposals =
      List.map (fun p -> (p, Sim.Rng.int rng 16)) (Sim.Pid.all n)
    in
    let cfg =
      Sim.Engine.config ~seed ~max_steps:250_000
        ~inputs:(inputs_of_proposals proposals)
        ~stop:(Sim.Engine.stop_when_all_correct_output fp)
        ~detect_quiescence:false ~fd fp
    in
    let trace = Sim.Engine.run cfg (Cons.Multivalued.protocol ~width:4) in
    Alcotest.(check bool)
      (Printf.sprintf "terminated (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    run_and_check ~name:"multivalued" ~fp ~proposals trace
  done

let prop_quorum_paxos_safe =
  QCheck.Test.make
    ~name:"quorum paxos: agreement & validity in any environment" ~count:30
    QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:200
          (Sim.Rng.make (seed * 23))
      in
      let proposals, trace = run_quorum_paxos ~seed fp in
      let decisions = Cons.Spec.decisions_of_trace trace in
      match Cons.Spec.check ~proposals ~decisions fp with
      | Ok () -> true
      | Error _ -> false)

let prop_disk_paxos_safe =
  QCheck.Test.make ~name:"disk paxos: agreement & validity in any environment"
    ~count:30 QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:200
          (Sim.Rng.make (seed * 29))
      in
      let proposals, trace = run_disk_paxos ~seed fp in
      let decisions = Cons.Spec.decisions_of_trace trace in
      match Cons.Spec.check ~proposals ~decisions fp with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "cons"
    [
      ("spec", [ Alcotest.test_case "checker" `Quick test_spec_checker ]);
      ( "disk-paxos",
        [
          Alcotest.test_case "failure free" `Quick test_disk_paxos_failure_free;
          Alcotest.test_case "any environment" `Slow
            test_disk_paxos_any_environment;
          Alcotest.test_case "minority correct" `Quick
            test_disk_paxos_minority_correct;
        ] );
      ( "round-consensus",
        [
          Alcotest.test_case "any environment" `Slow
            test_round_consensus_any_environment;
          Alcotest.test_case "minority correct" `Quick
            test_round_consensus_minority_correct;
          Alcotest.test_case "rounds bounded" `Quick
            test_round_consensus_rounds_bounded;
        ] );
      ( "corollary-2",
        [
          Alcotest.test_case "disk paxos over ABD with (Ω,Σ)" `Slow
            test_emulated_paxos_corollary2;
        ] );
      ( "quorum-paxos",
        [
          Alcotest.test_case "any environment" `Slow
            test_quorum_paxos_any_environment;
          Alcotest.test_case "adversarial delivery" `Slow
            test_quorum_paxos_adversarial_delivery;
          Alcotest.test_case "minority correct" `Quick
            test_quorum_paxos_minority_correct;
          Alcotest.test_case "survives partition" `Quick
            test_quorum_paxos_survives_partition;
          Alcotest.test_case "decide reaches only the undecided" `Quick
            test_quorum_paxos_decide_fanout;
        ] );
      ( "chandra-toueg",
        [
          Alcotest.test_case "majority correct" `Slow test_ct_majority_correct;
          Alcotest.test_case "blocks without majority" `Quick
            test_ct_blocks_without_majority;
        ] );
      ( "multivalued",
        [ Alcotest.test_case "width 4, any environment" `Slow test_multivalued ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_quorum_paxos_safe;
          QCheck_alcotest.to_alcotest prop_disk_paxos_safe;
        ] );
    ]
