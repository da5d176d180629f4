(* Tests for the necessity constructions: Figure 1 (Σ extraction from a
   register implementation) and Figure 3 (Ψ extraction from a QC algorithm),
   plus the underlying pure-simulation machinery. *)

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

(* --- Simconfig ------------------------------------------------------------ *)

(* A trivial protocol for exercising the pure simulator: every process
   broadcasts "hello" on its first step and outputs the number of distinct
   greeters it has heard (including itself) at each subsequent step. *)
module Count_proto = struct
  type st = { greeted : bool; heard : Sim.Pidset.t }
  type msg = Hello

  let proto : (st, msg, unit, unit, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ self -> { greeted = false; heard = Sim.Pidset.singleton self });
      on_step =
        (fun _ctx st recv ->
          let st =
            match recv with
            | Some (from, Hello) -> { st with heard = Sim.Pidset.add from st.heard }
            | None -> st
          in
          if not st.greeted then
            ({ st with greeted = true }, [ Sim.Protocol.Broadcast Hello ])
          else (st, [ Sim.Protocol.Output (Sim.Pidset.cardinal st.heard) ]));
      on_input = Sim.Protocol.no_input;
    }
end

let test_simconfig_basics () =
  let cfg =
    Extract.Simconfig.initial Count_proto.proto ~n:3 ~fd0:() ~inputs:[]
  in
  Alcotest.(check int) "empty" 0 (Extract.Simconfig.length cfg);
  (* Everybody greets; then p0 steps consuming messages. *)
  let cfg =
    List.fold_left
      (fun cfg pid ->
        Extract.Simconfig.step Count_proto.proto cfg ~pid ~fd:()
          ~delivery:Extract.Simconfig.Oldest)
      cfg [ 0; 1; 2 ]
  in
  let cfg =
    List.fold_left
      (fun cfg _ ->
        Extract.Simconfig.step Count_proto.proto cfg ~pid:0 ~fd:()
          ~delivery:Extract.Simconfig.Oldest)
      cfg [ (); (); () ]
  in
  (match List.rev (Extract.Simconfig.outputs cfg) with
  | (_, k) :: _ -> Alcotest.(check int) "heard all three" 3 k
  | [] -> Alcotest.fail "p0 produced no output");
  Alcotest.(check (option int)) "first output is 1" (Some 1)
    (Extract.Simconfig.first_output cfg 0);
  Alcotest.(check int) "steppers" 3
    (Sim.Pidset.cardinal (Extract.Simconfig.steppers cfg))

let test_simconfig_lambda_skips_delivery () =
  let cfg =
    Extract.Simconfig.initial Count_proto.proto ~n:2 ~fd0:() ~inputs:[]
  in
  let cfg =
    Extract.Simconfig.step Count_proto.proto cfg ~pid:1 ~fd:()
      ~delivery:Extract.Simconfig.Oldest
  in
  (* p0 steps with λ twice: it must not have heard p1's greeting. *)
  let cfg =
    Extract.Simconfig.step Count_proto.proto cfg ~pid:0 ~fd:()
      ~delivery:Extract.Simconfig.Lambda
  in
  let cfg =
    Extract.Simconfig.step Count_proto.proto cfg ~pid:0 ~fd:()
      ~delivery:Extract.Simconfig.Lambda
  in
  Alcotest.(check (option int)) "only itself" (Some 1)
    (Extract.Simconfig.first_output cfg 0)

(* --- Dag ------------------------------------------------------------------ *)

let test_dag_skips_crashed () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (1, 10) ] in
  let h _p t = t in
  let samples = Extract.Dag.build fp h ~horizon:30 in
  Array.iter
    (fun (s : int Extract.Dag.sample) ->
      if s.time >= 10 then
        Alcotest.(check bool) "no samples from crashed" false (s.pid = 1))
    samples;
  (* Before the crash, p1 does sample. *)
  Alcotest.(check bool) "p1 sampled early" true
    (Array.exists
       (fun (s : int Extract.Dag.sample) -> s.pid = 1 && s.time < 10)
       samples)

let test_dag_suffix () =
  let fp = Sim.Failure_pattern.failure_free 2 in
  let samples = Extract.Dag.build fp (fun _ t -> t) ~horizon:20 in
  let i = Extract.Dag.suffix_from samples ~time:10 in
  Alcotest.(check int) "suffix index" 10 i;
  Alcotest.(check int) "suffix sample time" 10 samples.(i).Extract.Dag.time

(* --- Figure 1: Σ extraction ---------------------------------------------- *)

let run_sigma_extraction ?(oracle = Fd.Sigma.oracle) ~seed ~max_steps fp =
  let sigma = Fd.Oracle.history oracle fp ~seed in
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~detect_quiescence:false ~fd:sigma fp
  in
  Sim.Engine.run cfg Extract.Sigma_extraction.protocol

let test_sigma_extraction_failure_free () =
  let fp = Sim.Failure_pattern.failure_free 4 in
  let trace = run_sigma_extraction ~seed:3 ~max_steps:30_000 fp in
  Alcotest.(check bool) "some outputs" true
    (List.length trace.Sim.Trace.outputs > 8);
  check_ok "sigma extraction spec"
    (Fd.Sigma.check fp trace.outputs)

let test_sigma_extraction_with_crashes () =
  for seed = 1 to 8 do
    let fp = Sim.Failure_pattern.make ~n:4 [ (seed mod 4, 120) ] in
    let trace = run_sigma_extraction ~seed ~max_steps:60_000 fp in
    Alcotest.(check bool)
      (Printf.sprintf "outputs exist (seed %d)" seed)
      true
      (List.length trace.Sim.Trace.outputs > 4);
    check_ok "sigma extraction spec"
      (Fd.Sigma.check fp trace.outputs);
    (* Every correct process must keep refreshing its output (the paper's
       "permanently updated" property): it must complete several cycles. *)
    Sim.Pidset.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "p%d cycles (seed %d)" p seed)
          true
          (Extract.Sigma_extraction.cycles trace.Sim.Trace.final_states.(p) >= 2))
      (Sim.Failure_pattern.correct fp)
  done

let test_sigma_extraction_minority_correct () =
  (* Even with 3 of 5 crashed, the extraction keeps producing legal Σ
     output — because the underlying registers (ABD over Σ) stay live. *)
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 150); (1, 300); (2, 450) ] in
  let trace = run_sigma_extraction ~seed:5 ~max_steps:80_000 fp in
  check_ok "sigma extraction spec"
    (Fd.Sigma.check fp trace.outputs)

(* --- Figure 3: Ψ extraction ---------------------------------------------- *)

(* Each extraction's stream, read as a history, is judged by its target
   detector's own spec at the last round's horizon. *)
let psi_spec fp (r : Extract.Psi_extraction.result) =
  Fd.Psi.check fp ~horizon:r.horizon
    (Fd.Oracle.of_outputs ~init:Fd.Psi.Bot r.outputs)

let test_psi_extraction_failure_free () =
  (* No failure: Ψ oracles are forcibly in (Ω,Σ) mode, the simulated runs
     decide values, the real execution decides 1, and the extraction must
     produce (Ω,Σ). *)
  for seed = 1 to 5 do
    let fp = Sim.Failure_pattern.failure_free 3 in
    let result = Extract.Psi_extraction.run ~fp ~seed ~rounds:3 ~chunk:220 () in
    Alcotest.(check bool)
      (Printf.sprintf "cons mode (seed %d)" seed)
      true (result.mode = `Cons);
    check_ok "psi extraction spec" (psi_spec fp result)
  done

let test_psi_extraction_with_crash () =
  for seed = 1 to 8 do
    let fp = Sim.Failure_pattern.make ~n:3 [ ((seed mod 3), 30) ] in
    let result = Extract.Psi_extraction.run ~fp ~seed ~rounds:3 ~chunk:220 () in
    check_ok
      (Printf.sprintf "psi extraction spec (seed %d)" seed)
      (psi_spec fp result)
  done

let test_psi_extraction_rounds_shape () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let result = Extract.Psi_extraction.run ~fp ~seed:2 ~rounds:4 ~chunk:220 () in
  Alcotest.(check int) "horizon" 880 result.horizon;
  (* one output per process per round, stamped at the round's horizon:
     nothing before the first (the ⊥ round) *)
  Alcotest.(check (list int)) "stamps"
    (List.concat_map (fun h -> [ h; h; h ]) [ 220; 440; 660; 880 ])
    (List.map (fun (e : _ Sim.Trace.event) -> e.time) result.outputs)

(* --- Omega from consensus (CHT [3], used by Corollary 3) ----------------- *)

(* Ω may output any pid before it stabilises *)
let omega_spec fp (r : Extract.Omega_extraction.result) =
  Fd.Omega.check fp ~horizon:r.horizon (Fd.Oracle.of_outputs ~init:0 r.outputs)

let test_omega_extraction_failure_free () =
  for seed = 1 to 5 do
    let fp = Sim.Failure_pattern.failure_free 3 in
    check_ok
      (Printf.sprintf "omega extraction (seed %d)" seed)
      (omega_spec fp
         (Extract.Omega_extraction.run ~fp ~seed ~rounds:3 ~chunk:200))
  done

let test_omega_extraction_with_crash () =
  for seed = 1 to 6 do
    let fp = Sim.Failure_pattern.make ~n:3 [ (seed mod 3, 50) ] in
    check_ok
      (Printf.sprintf "omega extraction crash (seed %d)" seed)
      (omega_spec fp
         (Extract.Omega_extraction.run ~fp ~seed ~rounds:3 ~chunk:200))
  done

let prop_sigma_extraction_conforms =
  QCheck.Test.make
    ~name:"Figure 1 outputs satisfy the Sigma spec across environments"
    ~count:6 QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:150
          (Sim.Rng.make (seed * 43))
      in
      let trace = run_sigma_extraction ~seed ~max_steps:50_000 fp in
      match Fd.Sigma.check fp trace.outputs with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "extract"
    [
      ( "simconfig",
        [
          Alcotest.test_case "basics" `Quick test_simconfig_basics;
          Alcotest.test_case "lambda skips delivery" `Quick
            test_simconfig_lambda_skips_delivery;
        ] );
      ( "dag",
        [
          Alcotest.test_case "skips crashed" `Quick test_dag_skips_crashed;
          Alcotest.test_case "suffix" `Quick test_dag_suffix;
        ] );
      ( "figure-1",
        [
          Alcotest.test_case "failure free" `Quick
            test_sigma_extraction_failure_free;
          Alcotest.test_case "with crashes" `Slow
            test_sigma_extraction_with_crashes;
          Alcotest.test_case "minority correct" `Quick
            test_sigma_extraction_minority_correct;
        ] );
      ( "figure-3",
        [
          Alcotest.test_case "failure free" `Slow
            test_psi_extraction_failure_free;
          Alcotest.test_case "with crash" `Slow test_psi_extraction_with_crash;
          Alcotest.test_case "rounds shape" `Quick
            test_psi_extraction_rounds_shape;
        ] );
      ( "omega-from-consensus",
        [
          Alcotest.test_case "failure free" `Slow
            test_omega_extraction_failure_free;
          Alcotest.test_case "with crash" `Slow
            test_omega_extraction_with_crash;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sigma_extraction_conforms ] );
    ]
