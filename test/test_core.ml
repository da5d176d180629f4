(* Tests for the umbrella library: scenario builders, the one-call runners
   (which also serve as end-to-end integration tests of the whole stack),
   and the claim catalogue. *)

let test_scenarios_well_formed () =
  List.iter
    (fun n ->
      List.iter
        (fun (sc : Core.Scenario.t) ->
          Alcotest.(check int) "n matches" n
            (Sim.Failure_pattern.n sc.Core.Scenario.fp);
          Alcotest.(check bool) "nonempty name" true
            (String.length sc.Core.Scenario.name > 0);
          (* At least one process stays correct in every scenario. *)
          Alcotest.(check bool) "someone correct" true
            (not
               (Sim.Pidset.is_empty
                  (Sim.Failure_pattern.correct sc.Core.Scenario.fp))))
        (Core.Scenario.gallery ~n))
    [ 3; 4; 5; 7 ]

let test_minority_correct_is_minority () =
  List.iter
    (fun n ->
      let sc = Core.Scenario.minority_correct ~n in
      Alcotest.(check bool)
        (Printf.sprintf "no correct majority at n=%d" n)
        false
        (Sim.Failure_pattern.majority_correct sc.Core.Scenario.fp))
    [ 3; 4; 5; 6; 7 ]

let test_lone_survivor () =
  let sc = Core.Scenario.lone_survivor ~n:5 in
  Alcotest.(check int) "one correct" 1
    (Sim.Pidset.cardinal (Sim.Failure_pattern.correct sc.Core.Scenario.fp))

let test_random_scenario_in_env () =
  for seed = 1 to 20 do
    let sc = Core.Scenario.random Sim.Environment.majority_correct ~n:5 ~seed in
    Alcotest.(check bool) "in env" true
      (Sim.Environment.mem Sim.Environment.majority_correct
         sc.Core.Scenario.fp)
  done

let ok (s : Core.Runner.summary) =
  match s.Core.Runner.spec_ok with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s/%s: %s" s.Core.Runner.algorithm s.Core.Runner.scenario e

(* End-to-end: every consensus algorithm through the runner in its home
   environment, and quorum Paxos with one crash at n = 7 and 9. *)
let test_runner_consensus_matrix () =
  let cases =
    [
      (Core.Runner.Quorum_paxos, Core.Scenario.minority_correct ~n:5, 3);
      (Core.Runner.Disk_paxos_shm, Core.Scenario.lone_survivor ~n:4, 3);
      (Core.Runner.Disk_paxos_abd, Core.Scenario.one_crash ~n:3 ~at:60, 3);
      (Core.Runner.Chandra_toueg, Core.Scenario.one_crash ~n:5 ~at:60, 3);
      (Core.Runner.Multivalued 3, Core.Scenario.one_crash ~n:4 ~at:60, 3);
      (Core.Runner.Quorum_paxos, Core.Scenario.one_crash ~n:7 ~at:50, 11);
      (Core.Runner.Quorum_paxos, Core.Scenario.one_crash ~n:9 ~at:50, 11);
    ]
  in
  List.iter
    (fun (algo, sc, seed) ->
      let s = Core.Runner.run_consensus algo sc ~seed in
      Alcotest.(check bool)
        (Core.Runner.consensus_algo_name algo ^ " terminated")
        true s.Core.Runner.terminated;
      ok s)
    cases

let test_runner_qc_and_nbac () =
  ok (Core.Runner.run_qc (Core.Scenario.failure_free ~n:4) ~seed:5);
  ok
    (Core.Runner.run_qc ~mode:Fd.Psi.Failure_mode
       (Core.Scenario.one_crash ~n:4 ~at:10)
       ~seed:5);
  ok
    (Core.Runner.run_nbac Core.Runner.Nbac_psi_fs
       (Core.Scenario.failure_free ~n:4)
       ~seed:5);
  ok
    (Core.Runner.run_nbac Core.Runner.Two_phase_commit
       (Core.Scenario.failure_free ~n:4)
       ~seed:5)

let test_runner_registers () =
  List.iter
    (fun (sc, seed) ->
      let s = Core.Runner.run_register_workload sc ~seed in
      Alcotest.(check bool) "terminated" true s.Core.Runner.terminated;
      ok s)
    [
      (Core.Scenario.minority_correct ~n:5, 2);
      (Core.Scenario.one_crash ~n:7 ~at:50, 11);
      (Core.Scenario.one_crash ~n:9 ~at:50, 11);
    ];
  (* Majority quorums in the same scenario must block. *)
  let s =
    Core.Runner.run_register_workload ~max_steps:6_000 ~quorums:`Majority
      (Core.Scenario.minority_correct ~n:5)
      ~seed:2
  in
  Alcotest.(check bool) "majority blocked" false s.Core.Runner.terminated

let test_runner_extractions () =
  ok (Core.Runner.run_sigma_extraction ~max_steps:20_000
        (Core.Scenario.one_crash ~n:4 ~at:100)
        ~seed:3);
  ok
    (Core.Runner.run_psi_extraction ~rounds:2 ~chunk:180
       (Core.Scenario.failure_free ~n:3)
       ~seed:3)

let test_run_config_api () =
  (* the historical wrappers are thin aliases of [run]: same workload
     through either entry point must produce the same summary *)
  let sc = Core.Scenario.one_crash ~n:3 ~at:60 in
  let via_wrapper = Core.Runner.run_consensus Core.Runner.Quorum_paxos sc ~seed:7 in
  let via_run =
    Core.Runner.run
      (Core.Run_config.make ~seed:7 ())
      (Core.Runner.Consensus
         { algo = Core.Runner.Quorum_paxos; proposals = None })
      sc
  in
  Alcotest.(check string) "consensus summaries agree"
    (Format.asprintf "%a" Core.Runner.pp_summary via_wrapper)
    (Format.asprintf "%a" Core.Runner.pp_summary via_run);
  let via_wrapper =
    Core.Runner.run_register_workload ~max_steps:6_000 ~quorums:`Majority sc
      ~seed:2
  in
  let via_run =
    Core.Runner.run
      (Core.Run_config.make ~max_steps:6_000 ~seed:2 ())
      (Core.Runner.Registers
         { ops_per_proc = 3; registers = 2; quorums = `Majority })
      sc
  in
  Alcotest.(check string) "register summaries agree"
    (Format.asprintf "%a" Core.Runner.pp_summary via_wrapper)
    (Format.asprintf "%a" Core.Runner.pp_summary via_run)

let test_catalogue () =
  Alcotest.(check int) "five claims" 5 (List.length Core.Catalogue.all);
  List.iter
    (fun (c : Core.Catalogue.claim) ->
      Alcotest.(check bool) "id nonempty" true (String.length c.Core.Catalogue.id > 0);
      let rendered = Format.asprintf "%a" Core.Catalogue.pp_claim c in
      Alcotest.(check bool) "renders" true (String.length rendered > 20))
    Core.Catalogue.all

let test_summary_printing () =
  let s = Core.Runner.run_qc (Core.Scenario.failure_free ~n:3) ~seed:1 in
  let rendered = Format.asprintf "%a" Core.Runner.pp_summary s in
  Alcotest.(check bool) "summary renders" true
    (String.length rendered > 20)

let () =
  Alcotest.run "core"
    [
      ( "scenario",
        [
          Alcotest.test_case "well-formed" `Quick test_scenarios_well_formed;
          Alcotest.test_case "minority-correct is minority" `Quick
            test_minority_correct_is_minority;
          Alcotest.test_case "lone survivor" `Quick test_lone_survivor;
          Alcotest.test_case "random in env" `Quick test_random_scenario_in_env;
        ] );
      ( "runner",
        [
          Alcotest.test_case "consensus matrix" `Slow
            test_runner_consensus_matrix;
          Alcotest.test_case "qc and nbac" `Quick test_runner_qc_and_nbac;
          Alcotest.test_case "registers" `Quick test_runner_registers;
          Alcotest.test_case "extractions" `Slow test_runner_extractions;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "run-config api" `Quick test_run_config_api;
          Alcotest.test_case "claims" `Quick test_catalogue;
          Alcotest.test_case "summary printing" `Quick test_summary_printing;
        ] );
    ]
