(* Tests for the umbrella library: scenario builders, the one-call runners
   (which also serve as end-to-end integration tests of the whole stack),
   and the claim catalogue. *)

let run ?max_steps ~seed workload sc =
  Core.Runner.run ?max_steps ~seed workload sc

let consensus algo = Core.Runner.Consensus { algo; proposals = None }

let registers ?(quorums = `Sigma) () =
  Core.Runner.Registers { ops_per_proc = 3; registers = 2; quorums }

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
      let s = run ~seed (consensus algo) sc in
      Alcotest.(check bool)
        (Core.Runner.consensus_algo_name algo ^ " terminated")
        true s.Core.Runner.terminated;
      ok s)
    cases

let test_runner_qc_and_nbac () =
  ok
    (run ~seed:5
       (Core.Runner.Quittable_consensus { mode = None })
       (Core.Scenario.failure_free ~n:4));
  ok
    (run ~seed:5
       (Core.Runner.Quittable_consensus { mode = Some Fd.Psi.Failure_mode })
       (Core.Scenario.one_crash ~n:4 ~at:10));
  ok
    (run ~seed:5
       (Core.Runner.Nbac { algo = Core.Runner.Nbac_psi_fs; votes = None })
       (Core.Scenario.failure_free ~n:4));
  ok
    (run ~seed:5
       (Core.Runner.Nbac { algo = Core.Runner.Two_phase_commit; votes = None })
       (Core.Scenario.failure_free ~n:4))

let test_runner_registers () =
  List.iter
    (fun (sc, seed) ->
      let s = run ~seed (registers ()) sc in
      Alcotest.(check bool) "terminated" true s.Core.Runner.terminated;
      ok s)
    [
      (Core.Scenario.minority_correct ~n:5, 2);
      (Core.Scenario.one_crash ~n:7 ~at:50, 11);
      (Core.Scenario.one_crash ~n:9 ~at:50, 11);
    ];
  (* Majority quorums in the same scenario must block. *)
  let s =
    run ~max_steps:6_000 ~seed:2
      (registers ~quorums:`Majority ())
      (Core.Scenario.minority_correct ~n:5)
  in
  Alcotest.(check bool) "majority blocked" false s.Core.Runner.terminated

let test_runner_extractions () =
  ok
    (run ~max_steps:20_000 ~seed:3 Core.Runner.Sigma_extraction
       (Core.Scenario.one_crash ~n:4 ~at:100));
  ok
    (run ~seed:3
       (Core.Runner.Psi_extraction { rounds = 2; chunk = 180 })
       (Core.Scenario.failure_free ~n:3))

(* Ids are unique, every claim backs a theorem of the table, and every
   theorem has a claim for each direction. *)
let test_claims () =
  let ids = List.map (fun (c : Core.Claims.t) -> c.id) Core.Claims.all in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let names =
    List.map (fun (t : Core.Claims.theorem) -> t.name) Core.Claims.theorems
  in
  List.iter
    (fun (c : Core.Claims.t) ->
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) (c.id ^ " backs " ^ name) true (List.mem name names))
        c.backs)
    Core.Claims.all;
  List.iter
    (fun name ->
      List.iter
        (fun (dir, label) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has a %s claim" name label)
            true
            (List.exists
               (fun (c : Core.Claims.t) -> List.mem (name, dir) c.backs)
               Core.Claims.all))
        [ (Core.Claims.Sufficiency, "sufficiency"); (Core.Claims.Necessity, "necessity") ])
    [ "Thm 1"; "Cor 4"; "Cor 7"; "Thm 8"; "Cor 10" ]

let test_simulator_claims () =
  List.iter
    (fun (c : Core.Claims.t) ->
      match (Core.Claims.check c).verdict with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" c.id e)
    Core.Claims.simulator

let test_summary_printing () =
  let s =
    run ~seed:1
      (Core.Runner.Quittable_consensus { mode = None })
      (Core.Scenario.failure_free ~n:3)
  in
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
          Alcotest.test_case "claims" `Quick test_claims;
          Alcotest.test_case "simulator claims pass" `Quick
            test_simulator_claims;
          Alcotest.test_case "summary printing" `Quick test_summary_printing;
        ] );
    ]
