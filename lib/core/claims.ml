type direction = Sufficiency | Necessity

type theorem = {
  name : string;
  problem : string;
  detector : string;
  sufficiency : string;
  necessity : string;
}

let theorems =
  [
    { name = "Thm 1"; problem = "atomic register"; detector = "Σ";
      sufficiency = "`Regs.Abd` (ABD with Σ quorums)";
      necessity = "`Extract.Sigma_extraction` (Figure 1)" };
    { name = "Cor 4"; problem = "consensus"; detector = "(Ω, Σ)";
      sufficiency =
        "`Cons.Quorum_paxos`; `Regs.Emulate` over `Cons.Disk_paxos`, as in \
         the paper";
      necessity = "consensus implements registers [17, 21] + Figure 1; Ω per [3]" };
    { name = "Cor 7"; problem = "quittable consensus"; detector = "Ψ";
      sufficiency = "`Qcnbac.Qc_psi` (Figure 2)";
      necessity = "`Extract.Psi_extraction` (Figure 3)" };
    { name = "Thm 8"; problem = "NBAC ⇔ QC + FS"; detector = "FS (as the bridge)";
      sufficiency = "`Qcnbac.Nbac_from_qc` (Figure 4)";
      necessity = "`Qcnbac.Qc_from_nbac` (Figure 5) + `Qcnbac.Fs_from_nbac`" };
    { name = "Cor 10"; problem = "non-blocking atomic commit"; detector = "(Ψ, FS)";
      sufficiency = "`Qcnbac.Nbac_from_qc` over (Ψ, FS)";
      necessity = "via Thm 8 and Cor 7" };
  ]

type table = { caption : string; header : string list; rows : string list list }
type outcome = { tables : table list; verdict : (unit, string) result }

type t = {
  id : string;
  paper : string;
  backs : (string * direction) list;
  title : string;
  run : unit -> outcome;
}

let claim ?(backs = []) id paper title run = { id; paper; backs; title; run }

(* [Error] naming the first failed condition *)
let verdict conds =
  match List.find_opt (fun (ok, _) -> not ok) conds with
  | None -> Ok ()
  | Some (_, why) -> Error why

(* ------------------------------------------------------------------ *)
(* Simulator runs: one [Runner.run] each, kept with the system size its
   table row prints. *)

let run ?max_steps ~seed workload (sc : Scenario.t) =
  (sc.n, Runner.run (Run_config.make ?max_steps ~seed ()) workload sc)

let registers quorums =
  Runner.Registers { ops_per_proc = 3; registers = 2; quorums }

let consensus ?proposals algo = Runner.Consensus { algo; proposals }
let qc mode = Runner.Quittable_consensus { mode }
let nbac ?votes algo = Runner.Nbac { algo; votes }
let psi_extraction = Runner.Psi_extraction { rounds = 3; chunk = 220 }
let ok (_, (s : Runner.summary)) = s.terminated && s.spec_ok = Ok ()
let spec_holds (_, (s : Runner.summary)) = s.spec_ok = Ok ()

let describe (n, (s : Runner.summary)) =
  Printf.sprintf "%s on %s (n=%d)" s.algorithm s.scenario n

let all_ok runs = List.map (fun r -> (ok r, describe r ^ " is not done and ok")) runs

let is_blocked ((_, (s : Runner.summary)) as r) =
  (not s.terminated, describe r ^ " did not block")

let summaries ?(caption = "") runs =
  {
    caption;
    header =
      [ "algorithm"; "detector"; "scenario"; "n"; "run"; "spec"; "decision";
        "latency"; "steps"; "msgs" ];
    rows =
      List.map
        (fun (n, (s : Runner.summary)) ->
          [ s.algorithm; s.detector; s.scenario; string_of_int n;
            (if s.terminated then "done" else "BLOCKED");
            (match s.spec_ok with Ok () -> "ok" | Error _ -> "VIOLATION");
            s.decision;
            (match s.latency with Some l -> string_of_int l | None -> "-");
            string_of_int s.steps; string_of_int s.messages ])
        runs;
  }

(* runs that must all be done and ok, one table per caption *)
let all_done groups =
  {
    tables = List.map (fun (caption, runs) -> summaries ~caption runs) groups;
    verdict = verdict (all_ok (List.concat_map snd groups));
  }

(* a conformance claim: conditions only, no table *)
let judged ?backs id paper title conds =
  claim ?backs id paper title (fun () ->
      { tables = []; verdict = verdict (conds ()) })

(* ... over seeds 1–3, every run passing [judge] *)
let over_seeds ?backs ?(judge = ok) id paper title runs =
  judged ?backs id paper title (fun () ->
      List.map
        (fun r -> (judge r, describe r ^ " failed"))
        (List.concat_map runs [ 1; 2; 3 ]))

let gallery = Scenario.gallery ~n:5
let yes p = (p, Qcnbac.Types.Yes)

let coord_crash =
  { (Scenario.failure_free ~n:4) with
    name = "coord-crash"; fp = Sim.Failure_pattern.make ~n:4 [ (0, 1) ] }

(* E4's second registers + Ω algorithm: adopt-commit rounds *)
let adopt_commit (sc : Scenario.t) =
  let max_rounds = 64 and fp = sc.fp and n = sc.n in
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed:4 in
  let proposals = List.map (fun p -> (p, p mod 2)) (Sim.Pid.all n) in
  let cfg =
    Regs.Shm.config ~seed:4 ~max_steps:120_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:omega fp
  in
  let trace =
    Regs.Shm.run
      ~registers:(Cons.Round_consensus.registers ~n ~max_rounds)
      cfg
      (Cons.Round_consensus.proto ~max_rounds)
  in
  ( n,
    Runner.decision_summary ~algorithm:"adopt-commit/shm" ~detector:"Omega" sc
      (Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals)
      trace )

(* one table of judged rows: the verdict names the first row not ok *)
let judged_rows header runs =
  {
    tables = [ { caption = ""; header; rows = List.map snd runs } ];
    verdict =
      verdict (List.map (fun (ok, row) -> (ok, String.concat " " row)) runs);
  }

(* E5: Σ "ex nihilo" — the join-quorum emulation's outputs, judged *)
let e5 () =
  let observer : (unit, unit, Sim.Pidset.t, unit, Sim.Pidset.t) Sim.Protocol.t
      =
    {
      init = (fun ~n:_ _ -> ());
      on_step = (fun ctx () _ -> ((), [ Sim.Protocol.Output ctx.fd ]));
      on_input = Sim.Protocol.no_input;
    }
  in
  let emulate ?policy fp =
    Sim.Engine.run
      (Sim.Engine.config ~seed:5 ~max_steps:8_000 ?policy
         ~detect_quiescence:false
         ~fd:(fun _ _ -> ())
         fp)
      (Sim.Layered.with_detector Fd.Emulated.Sigma_majority.detector observer)
  in
  let majority name crashes =
    let fp = Sim.Failure_pattern.make ~n:5 crashes in
    let trace =
      emulate
        ~policy:(Sim.Network.Random_delay { max_delay = 4; lambda_prob = 0.2 })
        fp
    in
    match Fd.Sigma.check fp trace.outputs with
    | Ok () -> (true, [ name; "conforms to Sigma" ])
    | Error e -> (false, [ name; "VIOLATES Sigma: " ^ e ])
  in
  (* Minority-correct: the emulation's quorums go stale (they keep naming
     crashed processes), violating completeness — as the paper predicts:
     the quorums intersect, yet the spec fails. *)
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40); (1, 40); (2, 40) ] in
  let trace = emulate fp in
  let stale =
    Fd.Sigma.safety trace.outputs = Ok ()
    && Fd.Sigma.check fp trace.outputs <> Ok ()
  in
  judged_rows [ "run"; "join-quorum emulation" ]
    [ majority "one-crash (maj.)" [ (0, 50) ];
      majority "two-crash (maj.)" [ (0, 50); (1, 90) ];
      ( stale,
        [ "minority-correct";
          (if stale then
             "stale quorums (completeness FAILS — Sigma is not free here)"
           else "unexpectedly complete") ] ) ]

(* E9: QC from NBAC, and FS from NBAC *)
let e9 () =
  let nbac_fd fp =
    let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed:9 in
    let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:10 in
    fun p t -> (psi p t, fs p t)
  in
  let fp = Sim.Failure_pattern.make ~n:4 [ (2, 60) ] in
  let proposals = List.map (fun p -> (p, 40 + p)) (Sim.Pid.all 4) in
  let trace =
    Sim.Engine.run
      (Sim.Engine.config ~seed:9 ~max_steps:150_000
         ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
         ~stop:(Sim.Engine.stop_when_all_correct_output fp)
         ~detect_quiescence:false ~fd:(nbac_fd fp) fp)
      Qcnbac.Qc_from_nbac.protocol
  in
  let qc = Qcnbac.Qc_spec.problem ~pp:Format.pp_print_int ~proposals in
  let qc_spec = Cons.Spec.check qc fp trace.outputs in
  (* FS over repeated NBAC instances: accurate (green until the first
     crash) and complete (red after it) *)
  let fs name fp =
    let trace =
      Sim.Engine.run
        (Sim.Engine.config ~seed:9 ~max_steps:60_000 ~detect_quiescence:false
           ~fd:(nbac_fd fp) fp)
        Qcnbac.Fs_from_nbac.protocol
    in
    let first_red =
      List.find_map
        (fun (e : Fd.Fs.output Sim.Trace.event) ->
          match e.value with Fd.Fs.Red -> Some e.time | Fd.Fs.Green -> None)
        trace.outputs
    in
    let instances =
      Array.fold_left
        (fun acc st -> max acc (Qcnbac.Fs_from_nbac.instance st))
        0 trace.final_states
    in
    let spec =
      Fd.Fs.check fp ~horizon:trace.ticks
        (Fd.Oracle.of_outputs ~init:Fd.Fs.Green trace.outputs)
    in
    let signal =
      match (spec, Sim.Failure_pattern.first_crash fp, first_red) with
      | Error e, _, _ -> "VIOLATION: " ^ e
      | Ok (), Some t0, Some t ->
        Printf.sprintf "red at t=%d (crash at %d) — complete & accurate" t t0
      | Ok (), _, _ -> "stays green (accurate)"
    in
    ( spec = Ok (),
      [ "fs-from-nbac"; name; Printf.sprintf "instances=%d" instances; signal ] )
  in
  judged_rows [ "algorithm"; "scenario"; "result"; "verdict" ]
    [ ( qc_spec = Ok (),
        [ "qc-from-nbac"; "one-crash";
          "decisions "
          ^ String.concat ","
              (List.map
                 (fun (e : _ Sim.Trace.event) ->
                   Format.asprintf "%a" qc.pp e.value)
                 trace.outputs);
          (match qc_spec with Ok () -> "spec ok" | Error e -> "spec VIOLATED: " ^ e) ] );
      fs "failure-free" (Sim.Failure_pattern.failure_free 3);
      fs "one-crash" (Sim.Failure_pattern.make ~n:3 [ (1, 150) ]) ]

(* E12: detector-quality ablation *)
let e12 () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40) ] in
  let run name omega_oracle sigma_oracle =
    let omega = Fd.Oracle.history omega_oracle fp ~seed:12 in
    let sigma = Fd.Oracle.history sigma_oracle fp ~seed:13 in
    let proposals = List.map (fun p -> (p, p mod 2)) (Sim.Pid.all 5) in
    let cfg =
      Sim.Engine.config ~seed:12 ~max_steps:150_000
        ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
        ~stop:(Sim.Engine.stop_when_all_correct_output fp)
        ~detect_quiescence:false
        ~fd:(fun p t -> (omega p t, sigma p t))
        fp
    in
    let trace = Sim.Engine.run cfg Cons.Quorum_paxos.protocol in
    let spec =
      Cons.Spec.check
        (Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals)
        fp trace.outputs
    in
    ( spec = Ok (),
      [ name;
        (match Sim.Trace.latency trace with Some l -> string_of_int l | None -> "-");
        string_of_int trace.messages_sent;
        Printf.sprintf "<=%d"
          (Array.fold_left
             (fun acc st -> max acc (Cons.Quorum_paxos.ballots_started st))
             0 trace.final_states);
        (match spec with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e) ] )
  in
  let slow = Fd.Omega.oracle_with ~leader:2 ~stabilize_at:300 in
  judged_rows [ "configuration"; "latency"; "messages"; "ballots"; "spec" ]
    [ run "Omega instant + Sigma exact" Fd.Omega.oracle_instant Fd.Sigma.oracle_exact;
      run "Omega instant + Sigma noisy" Fd.Omega.oracle_instant Fd.Sigma.oracle;
      run "Omega slow (stab 300) + Sigma exact" slow Fd.Sigma.oracle_exact;
      run "Omega slow (stab 300) + Sigma noisy" slow Fd.Sigma.oracle ]

let simulator =
  [
    claim "E1" "Theorem 1 (sufficiency)" ~backs:[ ("Thm 1", Sufficiency) ]
      "ABD registers from Σ in any environment; fixed majorities block"
      (fun () ->
        let sigma = List.map (run ~seed:1 (registers `Sigma)) gallery in
        let control =
          run ~seed:1 (registers `Majority) (Scenario.minority_correct ~n:5)
        in
        { tables =
            [ summaries sigma;
              summaries ~caption:"The same workload with fixed majority quorums:"
                [ control ] ];
          verdict = verdict (all_ok sigma @ [ is_blocked control ]) });
    claim "E2" "Theorem 1 (necessity), Figure 1" ~backs:[ ("Thm 1", Necessity) ]
      "Figure 1 extracts Σ from registers"
      (fun () ->
        all_done
          [ ( "",
              List.map (run ~seed:2 Runner.Sigma_extraction)
                [ Scenario.failure_free ~n:4; Scenario.one_crash ~n:4 ~at:150;
                  Scenario.minority_correct ~n:5 ] ) ]);
    claim "E3" "Corollary 2" ~backs:[ ("Cor 4", Sufficiency) ]
      "consensus from (Ω, Σ) in any environment"
      (fun () ->
        all_done [ ("", List.map (run ~seed:3 (consensus Runner.Quorum_paxos)) gallery) ]);
    claim "E4" "Lo–Hadzilacos [19]" ~backs:[ ("Cor 4", Sufficiency) ]
      "consensus from registers + Ω, by two algorithms and over ABD"
      (fun () ->
        all_done
          [ ( "Disk Paxos on the shared-memory engine:",
              List.map (run ~seed:4 (consensus Runner.Disk_paxos_shm)) gallery );
            ( "The same automaton over ABD registers:",
              List.map
                (run ~seed:4 (consensus Runner.Disk_paxos_abd))
                [ Scenario.failure_free ~n:3; Scenario.one_crash ~n:3 ~at:60 ] );
            ( "Adopt-commit rounds on the shared-memory engine:",
              List.map adopt_commit gallery ) ]);
    claim "E5" "Section 1"
      "Σ is free with a correct majority and impossible without one" e5;
    claim "E6" "Figure 2, Theorem 5" ~backs:[ ("Cor 7", Sufficiency) ]
      "quittable consensus from Ψ"
      (fun () ->
        all_done
          [ ( "",
              [ run ~seed:6 (qc (Some Fd.Psi.Consensus_mode))
                  (Scenario.one_crash ~n:4 ~at:50);
                run ~seed:6 (qc (Some Fd.Psi.Failure_mode))
                  (Scenario.one_crash ~n:4 ~at:20);
                run ~seed:6 (qc None) (Scenario.failure_free ~n:4);
                run ~seed:6 (qc None) (Scenario.minority_correct ~n:5) ] ) ]);
    claim "E7" "Figure 3, Theorem 6" ~backs:[ ("Cor 7", Necessity) ]
      "Figure 3 extracts Ψ from a QC algorithm"
      (fun () ->
        all_done
          [ ( "",
              List.map (run ~seed:7 psi_extraction)
                [ Scenario.failure_free ~n:3; Scenario.one_crash ~n:3 ~at:30;
                  Scenario.one_crash ~n:3 ~at:100 ] ) ]);
    claim "E8" "Figure 4, Theorem 8a"
      ~backs:[ ("Thm 8", Sufficiency); ("Cor 10", Sufficiency) ]
      "NBAC from QC + FS"
      (fun () ->
        let ff = Scenario.failure_free ~n:4 in
        let psi_fs ?votes sc = run ~seed:8 (nbac ?votes Runner.Nbac_psi_fs) sc in
        all_done
          [ ( "",
              [ psi_fs ff;
                psi_fs ~votes:[ yes 0; (1, Qcnbac.Types.No); yes 2; yes 3 ]
                  { ff with name = "veto" };
                psi_fs ~votes:[ yes 0; yes 1; yes 2 ]
                  { ff with name = "crash-before-vote";
                            fp = Sim.Failure_pattern.make ~n:4 [ (3, 0) ] };
                psi_fs (Scenario.one_crash ~n:4 ~at:80) ] ) ]);
    claim "E9" "Figure 5, Theorem 8b"
      ~backs:[ ("Thm 8", Necessity); ("Cor 10", Necessity) ]
      "QC from NBAC, and an accurate, complete FS from NBAC" e9;
    claim "E10" "Baselines"
      "◇S with a majority and 2PC block where (Ω, Σ) and (Ψ, FS) decide"
      (fun () ->
        let votes = [ yes 1; yes 2; yes 3 ] in
        let minority = Scenario.minority_correct ~n:5 in
        let one_crash = Scenario.one_crash ~n:5 ~at:50 in
        let ct = run ~seed:10 (consensus Runner.Chandra_toueg) one_crash in
        let ct_minority =
          run ~max_steps:60_000 ~seed:10 (consensus Runner.Chandra_toueg) minority
        in
        let paxos = run ~seed:10 (consensus Runner.Quorum_paxos) minority in
        let proposals = List.map (fun p -> (p, 3 + p)) (Sim.Pid.all 5) in
        let lift = run ~seed:10 (consensus ~proposals (Runner.Multivalued 4)) one_crash in
        let two_pc =
          run ~max_steps:20_000 ~seed:10 (nbac ~votes Runner.Two_phase_commit) coord_crash
        in
        let psi_fs = run ~seed:10 (nbac ~votes Runner.Nbac_psi_fs) coord_crash in
        { tables =
            [ summaries ~caption:"Consensus, majority-correct vs minority-correct:"
                [ ct; ct_minority; paxos ];
              summaries ~caption:"Multivalued lift [20]:" [ lift ];
              summaries ~caption:"Atomic commit:" [ two_pc; psi_fs ] ];
          verdict =
            verdict
              ([ is_blocked ct_minority; is_blocked two_pc ]
              @ all_ok [ ct; paxos; lift; psi_fs ]) });
    claim "E11" "Scaling" "consensus and registers stay correct from n = 3 to n = 13"
      (fun () ->
        let sized w =
          List.map (fun n -> run ~seed:11 w (Scenario.one_crash ~n ~at:50)) [ 3; 5; 7; 9; 13 ]
        in
        all_done
          [ ("Consensus (quorum Paxos on (Ω, Σ)):", sized (consensus Runner.Quorum_paxos));
            ("Registers (ABD workload, 3 ops/process):", sized (registers `Sigma)) ]);
    claim "E12" "Ablation" "detector quality moves latency and ballots, never safety" e12;
    over_seeds "T1-suff" "Theorem 1" ~backs:[ ("Thm 1", Sufficiency) ]
      "ABD+Σ linearizable in every gallery scenario" (fun seed ->
        List.map (run ~seed (registers `Sigma)) gallery);
    judged "T1-ctrl" "Theorem 1" "majority quorums block when no majority survives"
      (fun () ->
        [ is_blocked
            (run ~max_steps:8_000 ~seed:1 (registers `Majority)
               (Scenario.minority_correct ~n:5)) ]);
    (* extraction runs never stop on their own: judge the spec alone *)
    over_seeds "T1-nec" "Theorem 1" ~backs:[ ("Thm 1", Necessity) ] ~judge:spec_holds
      "Figure 1 extracts spec-conforming Σ" (fun seed ->
        List.map
          (run ~max_steps:40_000 ~seed Runner.Sigma_extraction)
          [ Scenario.failure_free ~n:4; Scenario.one_crash ~n:4 ~at:120 ]);
    over_seeds "C2-msg" "Corollaries 2, 4" ~backs:[ ("Cor 4", Sufficiency) ]
      "quorum Paxos decides in every gallery scenario" (fun seed ->
        List.map (run ~seed (consensus Runner.Quorum_paxos)) gallery);
    over_seeds "C2-comp" "Corollaries 2, 4" ~backs:[ ("Cor 4", Sufficiency) ]
      "the paper's composition (ABD + Disk Paxos) decides" (fun seed ->
        [ run ~seed (consensus Runner.Disk_paxos_abd) (Scenario.one_crash ~n:3 ~at:60) ]);
    judged "C3-omega" "Corollaries 2, 4" ~backs:[ ("Cor 4", Necessity) ]
      "Ω is extractable from the consensus algorithm [3]"
      (fun () ->
        let fp = Sim.Failure_pattern.make ~n:3 [ (0, 50) ] in
        List.map
          (fun seed ->
            let r =
              Extract.Omega_extraction.run ~fp ~seed ~rounds:3 ~chunk:200
            in
            (* Ω may output any pid before it stabilises *)
            ( Fd.Omega.check fp ~horizon:r.horizon
                (Fd.Oracle.of_outputs ~init:0 r.outputs)
              = Ok (),
              Printf.sprintf "no correct leader extracted (seed %d)" seed ))
          [ 1; 2; 3 ]);
    over_seeds "T5" "Theorem 5, Corollary 7" ~backs:[ ("Cor 7", Sufficiency) ]
      "Ψ solves QC in both branches" (fun seed ->
        [ run ~seed (qc (Some Fd.Psi.Consensus_mode)) (Scenario.one_crash ~n:4 ~at:50);
          run ~seed (qc (Some Fd.Psi.Failure_mode)) (Scenario.one_crash ~n:4 ~at:20) ]);
    over_seeds "T6" "Theorem 6, Corollary 7" ~backs:[ ("Cor 7", Necessity) ]
      ~judge:spec_holds "Figure 3 extracts spec-conforming Ψ" (fun seed ->
        List.map (run ~seed psi_extraction)
          [ Scenario.failure_free ~n:3; Scenario.one_crash ~n:3 ~at:30 ]);
    (* all vote Yes: the failure-free run must commit *)
    over_seeds "T8a" "Theorem 8, Corollary 10"
      ~backs:[ ("Thm 8", Sufficiency); ("Cor 10", Sufficiency) ]
      ~judge:(fun ((_, s) as r) ->
        ok r && (s.scenario <> "failure-free" || s.decision = "Commit"))
      "NBAC from QC+FS terminates with the right outcomes" (fun seed ->
        List.map
          (run ~seed (nbac Runner.Nbac_psi_fs))
          [ Scenario.failure_free ~n:4; Scenario.one_crash ~n:4 ~at:30 ]);
    judged "T8b" "Corollary 10" "2PC blocks where NBAC terminates" (fun () ->
        let votes = [ yes 1; yes 2; yes 3 ] in
        is_blocked
          (run ~max_steps:10_000 ~seed:1 (nbac ~votes Runner.Two_phase_commit)
             coord_crash)
        :: all_ok [ run ~seed:1 (nbac ~votes Runner.Nbac_psi_fs) coord_crash ]);
  ]

(* ------------------------------------------------------------------ *)
(* The rows of BENCH_weakest_fd.json: E13 and E15–E21.  Every value is
   a count in the model's own units — schedules, steps, rounds, frames,
   consensus instances and invariant verdicts — so two runs on any host
   write byte-identical JSON.  Each group of rows runs once, the first
   time a claim or the JSON writer forces it. *)

type json =
  | Int of int
  | Num of string  (** a float as its row prints it *)
  | Bool of bool
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec json_text = function
  | Int i -> string_of_int i
  | Num s -> s
  | Bool b -> string_of_bool b
  | Str s -> Obs.Jsonl.str s
  | Arr l -> "[" ^ String.concat ", " (List.map json_text l) ^ "]"
  | Obj fields ->
    let field (k, v) = Obs.Jsonl.str k ^ ": " ^ json_text v in
    "{ " ^ String.concat ", " (List.map field fields) ^ " }"

let num fmt x = Num (Printf.sprintf fmt x)

(* a row is the fields of one JSON object, "name" first *)
let name row = match List.assoc "name" row with Str s -> s | _ -> ""

let find_row group row_name =
  List.find (fun r -> name r = row_name) (Lazy.force group)

let get group row_name key = List.assoc key (find_row group row_name)

let number = function
  | Int i -> float_of_int i
  | Num s -> float_of_string s
  | _ -> invalid_arg "number"

let count group row key = number (get group row key)
let flag group row key = get group row key = Bool true

(* Every closed loop and settling loop fails with its row's name after
   this many rounds, so a liveness bug fails the run instead of hanging
   it. *)
let max_rounds = 100_000

let percentile sorted q =
  let len = Array.length sorted in
  let i = int_of_float (ceil (q *. float_of_int len)) - 1 in
  sorted.(max 0 (min (len - 1) i))

(* latency percentiles, in rounds *)
let latency_rounds lat =
  let s = Array.copy lat in
  Array.sort compare s;
  Obj (List.map (fun (k, q) -> (k, Int (percentile s q))) [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99) ])

let per a b = float_of_int a /. float_of_int b

let chaos_schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> failwith e

(* E13/E19: the model checker.  One exploration per row: its schedule
   and step counts, whether it found a violation, and whether it
   exhausted its space within budget.  Every count is a search metric
   (Mc.Parallel's report is bit-identical at every domain count). *)

let parallel (r : Mc.Crash_adversary.report) =
  (r.schedules, r.steps, r.counterexample <> None, r.complete)

let ff n = Sim.Failure_pattern.failure_free n

(* One explorer under the failure-free pattern, with the whole budget. *)
let failure_free explorer ~budget target ~n =
  parallel
    (Mc.Parallel.search
       ~opts:
         { Mc.Harness.default_opts with
           explorer; budget; inner_budget = budget; shrink = false }
       ~fps:[ ff n ] target ~n)

let mc_workloads =
  [
    ( "mc_exhaustive_quorum_paxos_n2",
      fun () ->
        failure_free `Exhaustive ~budget:50_000 (Mc.Targets.quorum_paxos ~n:2)
          ~n:2 );
    ( "mc_exhaustive_abd_n2",
      fun () ->
        failure_free `Exhaustive ~budget:50_000 (Mc.Targets.abd ~n:2) ~n:2 );
    (* the DPOR rows pair with mc_exhaustive_abd_n2: same target, same
       verdict, and the schedule count is the reduction; n=3 — out of the
       plain explorer's reach — completes *)
    ( "mc_dpor_abd_n2",
      fun () -> failure_free `Dpor ~budget:50_000 (Mc.Targets.abd ~n:2) ~n:2 );
    ( "mc_dpor_abd_n3",
      fun () -> failure_free `Dpor ~budget:200_000 (Mc.Targets.abd ~n:3) ~n:3 );
    (* PCT runs under one failure pattern: the whole budget goes to it *)
    ( "mc_pct_quorum_paxos_n3",
      fun () ->
        failure_free `Pct ~budget:200 (Mc.Targets.quorum_paxos ~n:3) ~n:3 );
    (* the crash adversary must find 2PC's blocking run *)
    ( "mc_crash_adversary_2pc_n3",
      fun () ->
        parallel
          (Mc.Parallel.search
             ~opts:
               { Mc.Harness.default_opts with budget = 50_000; shrink = false }
             (Mc.Targets.two_phase_commit ~n:3) ~n:3) );
  ]
  (* the full crash-adversary ABD sweep (15 failure patterns) at 1, 2 and
     4 domains: every domain count must explore the same 478 schedules.
     CI times the same sweep through mc.exe for the scaling check. *)
  @ List.map
      (fun domains ->
        ( Printf.sprintf "mc_exhaustive_abd_n2_domains%d" domains,
          fun () ->
            let opts =
              { Mc.Harness.default_opts with
                domains; budget = 50_000; inner_budget = 50_000;
                max_crashes = 1; horizon = 6; stride = 1; shrink = false }
            in
            parallel (Mc.Parallel.search ~opts (Mc.Targets.abd ~n:2) ~n:2) ))
      [ 1; 2; 4 ]

let mc_rows =
  lazy
    (List.map
       (fun (name, work) ->
         let schedules, steps, violation, complete = work () in
         [ ("name", Str name); ("schedules_per_run", Int schedules);
           ("steps_per_run", Int steps);
           ("verdict", Str (if violation then "violation" else "clean"));
           ("complete", Bool complete) ])
       mc_workloads)

(* The closed loop behind E15–E18.  [clients] independent loops share
   the same rounds: each keeps up to [outstanding] of its [count]
   commands in flight, and after each round ([step]) retires what
   [applied j] reports.  A client's commands apply in submission order
   (one origin, consecutive seqs), so command i's latency is the round at
   which the client's applied count first exceeds i, minus the round it
   was submitted in.  Returns the rounds taken and every latency. *)
let closed_loop ~name ?(clients = 1) ~count ~outstanding ~submit ~step
    ~applied () =
  let submitted_at = Array.make_matrix clients count 0 in
  let lat = Array.make (clients * count) 0 in
  let submitted = Array.make clients 0 and retired = Array.make clients 0 in
  let round = ref 0 in
  while Array.exists (fun r -> r < count) retired do
    if !round >= max_rounds then
      failwith
        (Printf.sprintf "%s: %d of %d commands applied after %d rounds" name
           (Array.fold_left ( + ) 0 retired)
           (clients * count) max_rounds);
    for j = 0 to clients - 1 do
      while
        submitted.(j) < count && submitted.(j) - retired.(j) < outstanding
      do
        let i = submitted.(j) in
        submitted_at.(j).(i) <- !round;
        submit j i;
        submitted.(j) <- i + 1
      done
    done;
    step ();
    incr round;
    for j = 0 to clients - 1 do
      let a = min (applied j) count in
      while retired.(j) < a do
        let i = retired.(j) in
        lat.((j * count) + i) <- !round - submitted_at.(j).(i);
        retired.(j) <- i + 1
      done
    done
  done;
  (!round, lat)

let smr_applied t p =
  Cons.Smr.applied (Net.Smr_node.smr_state (Net.Local.cluster_state t p))

let smr_instances t p =
  Cons.Smr.applied_instances (Net.Smr_node.smr_state (Net.Local.cluster_state t p))

(* [count] commands submitted at replica 0 of a fresh loopback cluster,
   after a 200-round warm-up, [tick] running before every round: rounds
   taken, frames sent and consensus instances applied per command, and
   the latencies. *)
let smr_loop ~name ~n ?window ?batch_max ?wrap ?(tick = ignore) ~outstanding
    ~count () =
  let t = Net.Local.create ~period:16 ?window ?batch_max ?wrap ~n () in
  let step () =
    tick ();
    Net.Local.cluster_step t
  in
  for _ = 1 to 200 do
    step ()
  done;
  let hub = Net.Local.cluster_hub t in
  let s0 = Net.Loopback.sent hub and i0 = smr_instances t 0 in
  let rounds, lat =
    closed_loop ~name ~count ~outstanding
      ~submit:(fun _ i -> Net.Local.cluster_submit t 0 (Printf.sprintf "cmd-%d" i))
      ~step
      ~applied:(fun _ -> smr_applied t 0)
      ()
  in
  ( rounds,
    per (Net.Loopback.sent hub - s0) count,
    per (smr_instances t 0 - i0) count,
    lat )

(* E15: the net runtime — SMR (Cons.Smr under emulated (Ω,Σ)) over the
   deterministic loopback transport, one command at a time; and the idle
   row: what the links carry (heartbeats + Σ join rounds) when no client
   is talking. *)
let net_rows =
  lazy
    (let smr_row ~n ~count =
       let name = Printf.sprintf "net_smr_loopback_n%d" n in
       let rounds, frames, instances, lat =
         smr_loop ~name ~n ~outstanding:1 ~count ()
       in
       [ ("name", Str name); ("commands", Int count); ("rounds", Int rounds);
         ("frames_per_cmd", num "%.4f" frames);
         ("instances_per_cmd", num "%.4f" instances);
         ("latency_rounds", latency_rounds lat) ]
     in
     let idle_row ~n ~rounds =
       let t = Net.Local.create ~period:16 ~n () in
       (* let Σ's initial join rounds settle so the window is steady-state *)
       Net.Local.cluster_run t ~rounds:200;
       let d0 = Net.Loopback.delivered (Net.Local.cluster_hub t) in
       Net.Local.cluster_run t ~rounds;
       let frames = Net.Loopback.delivered (Net.Local.cluster_hub t) - d0 in
       [ ("name", Str (Printf.sprintf "net_detector_idle_n%d" n));
         ("rounds", Int rounds); ("frames_delivered", Int frames);
         ("frames_per_round", num "%.3f" (per frames rounds)) ]
     in
     [ smr_row ~n:3 ~count:200; smr_row ~n:5 ~count:200; idle_row ~n:3 ~rounds:5_000 ])

(* E18: the batched + pipelined hot path.  Same cluster as E15 — the hub
   carries real encoded frames — but up to [outstanding] commands in
   flight at replica 0, drained into batches of up to [batch_max] over
   [window] pipelined instances.  The n=3 row also carries the
   power-of-two latency histogram ({!Obs.Metrics} buckets), so the tail
   is visible. *)
let batch_rows =
  lazy
    (let window = 16 and batch_max = 1024 and outstanding = 512 in
     let row ~n ~count ~hist =
       let name = Printf.sprintf "net_smr_batch_n%d" n in
       let rounds, frames, instances, lat =
         smr_loop ~name ~n ~window ~batch_max ~outstanding ~count ()
       in
       let hist_field =
         if not hist then []
         else begin
           let m = Obs.Metrics.create () in
           Array.iter (Obs.Metrics.observe m "bench.latency_rounds") lat;
           let h = Option.get (Obs.Metrics.histogram m "bench.latency_rounds") in
           let last = ref 0 in
           Array.iteri (fun i c -> if c > 0 then last := i) h.Obs.Metrics.buckets;
           [ ( "latency_rounds_hist",
               Obj
                 [ ("count", Int h.h_count); ("min", Int h.h_min);
                   ("max", Int h.h_max);
                   ( "buckets_pow2",
                     Arr (List.init (!last + 1) (fun i -> Int h.buckets.(i))) ) ] ) ]
         end
       in
       [ ("name", Str name); ("commands", Int count); ("window", Int window);
         ("batch_max", Int batch_max); ("outstanding", Int outstanding);
         ("rounds", Int rounds);
         ("commands_per_round", num "%.2f" (per count rounds));
         ("frames_per_cmd", num "%.4f" frames);
         ("instances_per_cmd", num "%.4f" instances);
         ("latency_rounds", latency_rounds lat) ]
       @ hist_field
     in
     [ row ~n:3 ~count:20_000 ~hist:true; row ~n:5 ~count:20_000 ~hist:false;
       row ~n:7 ~count:20_000 ~hist:false ])

(* E16: the E15 closed loop with the nemesis dropping frames (Rel
   retransmitting around it), and one scripted partition+heal run
   reporting the measured Ω reconvergence latency. *)
let chaos_rows =
  lazy
    (let lossy_row ~n ~drop ~count =
       let name = Printf.sprintf "net_chaos_smr_loss%g_n%d" (100. *. drop) n in
       let h =
         Net.Chaos.create ~seed:1 ~n
           (chaos_schedule (Printf.sprintf "at 0 drop * %g" drop))
       in
       let ctrl = Net.Chaos.ctrl h 0 in
       let rounds, _, _, lat =
         smr_loop ~name ~n ~wrap:(Net.Chaos.wrap h 0)
           ~tick:(fun () -> Net.Nemesis.tick ctrl)
           ~outstanding:1 ~count ()
       in
       [ ("name", Str name); ("commands", Int count); ("drop_rate", num "%g" drop);
         ("frames_dropped", Int (Net.Nemesis.stats ctrl).n_dropped);
         ("rounds", Int rounds); ("latency_rounds", latency_rounds lat) ]
     in
     let partition_row ~n =
       let cfg =
         { (Net.Chaos.default ~n
              ~schedule:(chaos_schedule "at 300 partition 0 1 | 2\nat 900 heal"))
           with Net.Chaos.rounds = 2_000; cmds = 20; cmd_every = 80 }
       in
       let r = Net.Chaos.run cfg in
       let heal =
         match r.Net.Chaos.heals with
         | { Net.Chaos.reconverged_in = Some d; _ } :: _ -> d
         | _ -> -1
       in
       [ ("name", Str (Printf.sprintf "net_chaos_partition_heal_n%d" n));
         ("rounds", Int r.rounds_run); ("heal_reconverge_rounds", Int heal);
         ("frames_dropped", Int r.nemesis.n_dropped);
         ("rel_retransmits", Int r.rel_retransmits);
         ("invariants_ok", Bool (Net.Chaos.ok r)) ]
     in
     [ lossy_row ~n:3 ~drop:0.01 ~count:100; lossy_row ~n:3 ~drop:0.05 ~count:100;
       partition_row ~n:3 ])

(* E17: the sharded service (docs/SHARDING.md).  All groups step
   together, one round each per [Shard.Cluster.step], while every shard
   runs its own closed loop of Zipfian writes (one in flight, keys
   salted per shard) — S loops per round where net_smr_loopback_n3 runs
   one.  The reconfig row is a full chaos run: per-shard partition+heal
   and a membership rotation, every epoch-handoff invariant checked. *)
let shard_rows =
  lazy
    (let zipf_row ~shards ~count =
       let name = Printf.sprintf "net_shard_zipf_s%d_n3" shards in
       let c = Shard.Cluster.create ~period:16 ~shards ~replicas:3 ~spares:0 () in
       Shard.Cluster.run c ~rounds:200;
       let group = Array.init shards (Shard.Cluster.group c) in
       let base = Array.map Shard.Cluster.applied_max group in
       let zipf =
         Array.init shards (fun s ->
             Shard.Zipf.create ~seed:(17 + s) ~prefix:(Printf.sprintf "s%d-" s)
               ~keys:256 ())
       in
       let each = count / shards in
       let rounds, lat =
         closed_loop ~name ~clients:shards ~count:each ~outstanding:1
           ~submit:(fun s i ->
             let key = Shard.Zipf.next_key zipf.(s) in
             if
               not
                 (Shard.Cluster.submit_any group.(s)
                    (Shard.Replica.App { key; value = Printf.sprintf "v%d" i }))
             then failwith (name ^ ": no live member"))
           ~step:(fun () -> Shard.Cluster.step c)
           ~applied:(fun s -> Shard.Cluster.applied_max group.(s) - base.(s))
           ()
       in
       let total = each * shards in
       [ ("name", Str name); ("shards", Int shards); ("commands", Int total);
         ("rounds", Int rounds);
         ("commands_per_round", num "%.2f" (per total rounds));
         ("latency_rounds", latency_rounds lat) ]
     in
     let reconfig_row () =
       let cfg =
         { (Shard.Chaos.default ~shards:4 ~replicas:3
              ~schedule:(chaos_schedule "at 300 partition 0 1 | 2 3\nat 700 heal"))
           with
           Shard.Chaos.rounds = 2_400; cmds = 12; cmd_every = 60;
           reconfig_at = Some 1_200; reads = 4; seed = 1 }
       in
       let r = Shard.Chaos.run cfg in
       [ ("name", Str "net_shard_reconfig_n3"); ("shards", Int cfg.Shard.Chaos.shards);
         ("rounds", Int r.Net.Chaos.rounds_run);
         ("reconfig_done", Bool r.detail.reconfig_done);
         ("final_epochs", Arr (List.map (fun e -> Int e) (Array.to_list r.detail.epochs)));
         ("reads_ok", Int r.detail.reads_ok);
         ("frames_dropped", Int r.nemesis.n_dropped);
         ("invariants_ok", Bool (Net.Chaos.ok r)) ]
     in
     [ zipf_row ~shards:4 ~count:400; zipf_row ~shards:8 ~count:400; reconfig_row () ])

(* E20: the mixed-consistency cluster under full isolation.  One
   Ec.Chaos run yields both rows: the partition row reads the EC write
   rate inside the cut window (with the SMR freeze as its foil), the
   convergence row the measured heal bound. *)
let ec_rows =
  lazy
    (let n = 3 in
     let cfg = Ec.Chaos.default ~n ~schedule:(Ec.Chaos.default_schedule n) in
     let r = Ec.Chaos.run cfg in
     let cut_rounds =
       match Ec.Chaos.cut_window cfg.Ec.Chaos.schedule with
       | Some (c, h) -> h - c
       | None -> 0
     in
     let d = r.Net.Chaos.detail in
     [
       [ ("name", Str (Printf.sprintf "net_ec_partition_n%d" n));
         ("rounds", Int r.rounds_run); ("cut_rounds", Int cut_rounds);
         ("ec_puts_in_partition", Int d.ec_puts_in_partition);
         ( "ec_puts_per_kround_in_partition",
           num "%.0f" (1000. *. per d.ec_puts_in_partition (max 1 cut_rounds)) );
         ("smr_frozen", Bool d.smr_frozen_in_partition);
         ("invariants_ok", Bool (Net.Chaos.ok r)) ];
       [ ("name", Str (Printf.sprintf "net_ec_converge_n%d" n));
         ("ec_puts_total", Int (Array.fold_left ( + ) 0 d.ec_puts));
         ( "converged_rounds_after_last_write",
           Int (Option.value d.converged_in ~default:(-1)) );
         ("rel_retransmits", Int r.rel_retransmits);
         ("frames_dropped", Int r.nemesis.n_dropped);
         ("invariants_ok", Bool (Net.Chaos.ok r)) ];
     ])

(* E21: detector cost at scale and crash-to-new-leader latency
   (docs/DETECTORS.md; EXPERIMENTS.md E21 has the method).  The detector
   layer runs bare — [(Omega.detector ~kind ~period).proto] over
   [Local.make] with the binary codec, no SMR on top — so the frames
   counted are detector frames and nothing else, and n = 1000 is
   feasible.  Frames are counted on the send side: a delivered-side
   count saturates at 1 frame/round/process and would flatter the
   all-to-all detector.  At n = 1000 the heartbeat baseline is analytic
   ((n-1)/period).  The heartbeat detector's failover period stretches
   with n (≥ 2(n-1)) to stay inside the one-receive-per-step budget. *)

let detector_classify = function
  | Fd.Emulated.Omega.H _ -> Some "heartbeat"
  | Fd.Emulated.Omega.R _ -> Some "ring"

(* warmed-up idle measurement on loopback: (sent frames/round/process,
   sent frames, fd.frames{detector=kind} delivered delta) *)
let detector_idle ~kind ~n ~rounds =
  let period = 16 in
  let m = Obs.Metrics.create () in
  let det = Fd.Emulated.Omega.detector ~kind ~period in
  let c =
    Net.Local.make ~codec:Net.Codecs.omega_msg ~metrics:m
      ~classify:detector_classify ~n det.Sim.Layered.proto
  in
  Net.Local.cluster_run c ~rounds:(2 * period);
  let labels = [ ("detector", Fd.Emulated.Omega.kind_name kind) ] in
  let s0 = Net.Loopback.sent (Net.Local.cluster_hub c) in
  let m0 = Obs.Metrics.counter_l m "fd.frames" ~labels in
  Net.Local.cluster_run c ~rounds;
  let frames = Net.Loopback.sent (Net.Local.cluster_hub c) - s0 in
  ( per frames rounds /. float_of_int n,
    frames,
    Obs.Metrics.counter_l m "fd.frames" ~labels - m0 )

let detector_scaling_row ~n ~rounds ~hb =
  let ring_fpp, frames, metered =
    detector_idle ~kind:Fd.Emulated.Omega.Ring ~n ~rounds
  in
  let hb_fpp, hb_how =
    match hb with
    | `Measured hb_rounds ->
      let fpp, _, _ =
        detector_idle ~kind:Fd.Emulated.Omega.Heartbeat ~n ~rounds:hb_rounds
      in
      (fpp, "measured")
    | `Analytic -> (float_of_int (n - 1) /. 16., "analytic")
  in
  [ ("name", Str (Printf.sprintf "net_detector_ring_n%d" n));
    ("rounds", Int rounds); ("frames_sent", Int frames);
    ("fd_frames_metric", Int metered);
    ("frames_per_round_per_process", num "%.4f" ring_fpp);
    ("heartbeat_frames_per_round_per_process", num "%.4f" hb_fpp);
    ("heartbeat_baseline", Str hb_how);
    ("ratio_vs_all_to_all", num "%.4f" (ring_fpp /. hb_fpp)) ]

(* crash pid 0 once the leader has settled; count rounds until every
   survivor's leader estimate is the new lowest live id *)
let detector_failover_row ~kind ~n =
  let period =
    match kind with
    | Fd.Emulated.Omega.Ring -> 8
    | Fd.Emulated.Omega.Heartbeat -> max 8 (2 * (n - 1))
  in
  let tag = Fd.Emulated.Omega.kind_name kind in
  let det = Fd.Emulated.Omega.detector ~kind ~period in
  let c =
    Net.Local.make ~codec:Net.Codecs.omega_msg ~n det.Sim.Layered.proto
  in
  Net.Local.cluster_run c ~rounds:(8 * period);
  let live = List.tl (Sim.Pid.all n) in
  let leader_everywhere l =
    List.for_all
      (fun p -> Fd.Emulated.Omega.current (Net.Local.cluster_state c p) = l)
      live
  in
  if not (leader_everywhere 0) then
    failwith
      (Printf.sprintf "detector failover bench (%s n=%d): leader 0 did not \
                       settle" tag n);
  Net.Local.cluster_crash c 0;
  let rec go r =
    if leader_everywhere 1 then r
    else if r > max_rounds then
      failwith
        (Printf.sprintf "detector failover bench (%s n=%d): no re-agreement"
           tag n)
    else begin
      Net.Local.cluster_step c;
      go (r + 1)
    end
  in
  let rounds = go 0 in
  [ ("name", Str (Printf.sprintf "detector_failover_%s_n%d" tag n));
    ("period", Int period); ("crash_to_new_leader_rounds", Int rounds);
    ("crash_to_new_leader_periods", num "%.1f" (per rounds period)) ]

(* same idle measurement over real Unix-domain stream sockets: one
   {!Net.Tcp} transport per node, all in this process, stepped
   round-robin; send counts come from each transport's own stats.  The
   sockets live in a fresh temporary directory, removed with the row. *)
let rec detector_mkdtemp k =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wfd-det-%d-%d" (Unix.getpid ()) k)
  in
  match Unix.mkdir path 0o700 with
  | () -> path
  | exception Unix.Unix_error (EEXIST, _, _) -> detector_mkdtemp (k + 1)

let detector_socket_row ~n =
  let name = Printf.sprintf "net_detector_ring_sockets_n%d" n in
  let period = 16 in
  let dir = detector_mkdtemp 0 in
  let measure kind ~rounds =
    let tag = Fd.Emulated.Omega.kind_name kind in
    let addrs =
      Array.init n (fun i ->
          Unix.ADDR_UNIX
            (Filename.concat dir (Printf.sprintf "%s-%d.sock" tag i)))
    in
    let m = Obs.Metrics.create () in
    let det = Fd.Emulated.Omega.detector ~kind ~period in
    let nodes =
      Array.init n (fun i ->
          Net.Node.create ~codec:Net.Codecs.omega_msg ~metrics:m
            ~classify:detector_classify
            ~transport:(Net.Tcp.create ~self:i ~addrs ())
            det.Sim.Layered.proto)
    in
    let step_all () =
      Array.iter (fun nd -> ignore (Net.Node.step ~timeout_ms:0 nd)) nodes
    in
    let sent_total () =
      Array.fold_left
        (fun acc nd ->
          acc + ((Net.Node.transport nd).Net.Transport.stats ()).Net.Transport.sent)
        0 nodes
    in
    (* warm up until the mesh is connected and frames flow end to end *)
    let labels = [ ("detector", tag) ] in
    let warm = ref 0 in
    while Obs.Metrics.counter_l m "fd.frames" ~labels < n do
      if !warm >= max_rounds then
        failwith
          (Printf.sprintf "%s: %s mesh not connected after %d rounds" name tag
             max_rounds);
      step_all ();
      incr warm
    done;
    for _ = 1 to 2 * period do
      step_all ()
    done;
    let s0 = sent_total () in
    for _ = 1 to rounds do
      step_all ()
    done;
    let frames = sent_total () - s0 in
    Array.iter
      (fun nd -> (Net.Node.transport nd).Net.Transport.close ())
      nodes;
    per frames rounds /. float_of_int n
  in
  let rounds = 20 * period in
  let ring_fpp = measure Fd.Emulated.Omega.Ring ~rounds in
  let hb_fpp = measure Fd.Emulated.Omega.Heartbeat ~rounds in
  (* closing a transport unlinks its socket, so the directory is empty *)
  Unix.rmdir dir;
  [ ("name", Str name); ("transport", Str "unix-socket"); ("rounds", Int rounds);
    ("frames_per_round_per_process", num "%.4f" ring_fpp);
    ("heartbeat_frames_per_round_per_process", num "%.4f" hb_fpp);
    ("ratio_vs_all_to_all", num "%.4f" (ring_fpp /. hb_fpp)) ]

let detector_rows =
  lazy
    ([ detector_scaling_row ~n:3 ~rounds:4_800 ~hb:(`Measured 4_800);
       detector_scaling_row ~n:10 ~rounds:1_600 ~hb:(`Measured 1_600);
       detector_scaling_row ~n:100 ~rounds:800 ~hb:(`Measured 320);
       detector_scaling_row ~n:1000 ~rounds:160 ~hb:`Analytic ]
    @ List.map
        (fun n -> detector_failover_row ~kind:Fd.Emulated.Omega.Ring ~n)
        [ 3; 10; 100; 1000 ]
    @ List.map
        (fun n -> detector_failover_row ~kind:Fd.Emulated.Omega.Heartbeat ~n)
        [ 3; 10; 100 ]
    @ List.map (fun n -> detector_socket_row ~n) [ 3; 8; 14; 20 ])

let bench_json () =
  Printf.sprintf "{\n  \"suite\": \"weakest-fd-mc\",\n  \"workloads\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.concat_map
          (fun group -> List.map (fun row -> "    " ^ json_text (Obj row)) (Lazy.force group))
          [ mc_rows; net_rows; batch_rows; chaos_rows; shard_rows; ec_rows; detector_rows ]))

(* A claim over rows of the file: its tables show the rows named in
   [only] (every row of [group] by default), one table per run of rows
   with the same fields; its conditions may read any row. *)
let bench_claim id paper title ?only group conds =
  let fields r = List.map fst (List.tl r) in
  let cell = function Str s -> s | v -> json_text v in
  let add r tables =
    let line = name r :: List.map (fun (_, v) -> cell v) (List.tl r) in
    match tables with
    | t :: rest when t.header = "row" :: fields r -> { t with rows = line :: t.rows } :: rest
    | _ -> { caption = ""; header = "row" :: fields r; rows = [ line ] } :: tables
  in
  claim id paper title (fun () ->
      let shown =
        List.filter
          (fun r -> match only with None -> true | Some names -> List.mem (name r) names)
          (Lazy.force group)
      in
      { tables = List.fold_right add shown []; verdict = verdict (conds ()) })

let runtime =
  [
    bench_claim "E13" "Model checking"
      "exhaustive quorum Paxos at n = 2 is clean; the crash adversary finds \
       2PC's blocking run"
      ~only:[ "mc_exhaustive_quorum_paxos_n2"; "mc_pct_quorum_paxos_n3";
              "mc_crash_adversary_2pc_n3" ]
      mc_rows
      (fun () ->
        let qp = "mc_exhaustive_quorum_paxos_n2" in
        [ ( get mc_rows qp "verdict" = Str "clean" && flag mc_rows qp "complete",
            "exhaustive quorum Paxos at n = 2 is not clean and complete" );
          ( get mc_rows "mc_crash_adversary_2pc_n3" "verdict" = Str "violation",
            "the crash adversary missed 2PC's blocking run" ) ]);
    claim "E14" "Observability" "tracing a run changes none of its counts" (fun () ->
        let sc = Scenario.one_crash ~n:4 ~at:40 in
        let w = consensus Runner.Quorum_paxos in
        let path = Filename.temp_file "claims" ".jsonl" in
        let traced =
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () -> Runner.run (Run_config.make ~trace:path ~seed:3 ()) w sc)
        in
        let n, untraced = run ~seed:3 w sc in
        { tables =
            [ summaries ~caption:"With a collector installed:" [ (n, traced) ];
              summaries ~caption:"Without:" [ (n, untraced) ] ];
          verdict =
            verdict
              [ ( { traced with metrics = [] } = untraced,
                  "tracing changed the run's summary" );
                ( List.assoc_opt "net.sent" traced.metrics = Some traced.messages,
                  "the net.sent metric does not count the run's messages" ) ] });
    bench_claim "E15" "Corollary 3 (net runtime)"
      "SMR over the loopback cluster: one consensus instance per command" net_rows
      (fun () ->
        List.map
          (fun row ->
            (count net_rows row "instances_per_cmd" = 1., row ^ " spends extra instances"))
          [ "net_smr_loopback_n3"; "net_smr_loopback_n5" ]);
    bench_claim "E16" "Chaos" "SMR survives loss and a partition with every invariant held"
      chaos_rows
      (fun () ->
        [ ( flag chaos_rows "net_chaos_partition_heal_n3" "invariants_ok",
            "an invariant failed under partition+heal" ) ]);
    bench_claim "E17" "Sharding"
      "the sharded service rotates membership with every invariant held" shard_rows
      (fun () ->
        let row = "net_shard_reconfig_n3" in
        [ (flag shard_rows row "invariants_ok", "an epoch-handoff invariant failed");
          (flag shard_rows row "reconfig_done", "the rotation did not install");
          (count shard_rows row "reads_ok" = 4., "a quorum read missed the last write") ]);
    bench_claim "E18" "Batching"
      "batching cuts frames and instances per command ≥ 5×; n = 3 → 7 costs < 9×"
      batch_rows
      (fun () ->
        let b3 = "net_smr_batch_n3" in
        let hist key =
          match get batch_rows b3 "latency_rounds_hist" with
          | Obj h -> List.assoc key h
          | _ -> invalid_arg "latency_rounds_hist"
        in
        let buckets = match hist "buckets_pow2" with Arr l -> l | _ -> [] in
        let per_round row = count batch_rows row "commands_per_round" in
        List.map
          (fun f ->
            ( 5. *. count batch_rows b3 f <= count net_rows "net_smr_loopback_n3" f,
              "batching must cut " ^ f ^ " at least 5×" ))
          [ "frames_per_cmd"; "instances_per_cmd" ]
        @ [ ( number (hist "count") = count batch_rows b3 "commands"
              && List.fold_left (fun acc b -> acc +. number b) 0. buckets
                 = number (hist "count"),
              "the latency histogram does not add up to the commands" );
            ( per_round b3 /. per_round "net_smr_batch_n7" < 9.,
              "n = 3 → n = 7 costs 9× or more in commands per round" ) ]);
    bench_claim "E19" "Model checking at scale"
      "DPOR explores ≥ 3× fewer schedules and completes n = 3; every domain \
       count explores the same space"
      ~only:[ "mc_exhaustive_abd_n2"; "mc_dpor_abd_n2"; "mc_dpor_abd_n3";
              "mc_exhaustive_abd_n2_domains1"; "mc_exhaustive_abd_n2_domains2";
              "mc_exhaustive_abd_n2_domains4" ]
      mc_rows
      (fun () ->
        let schedules row = count mc_rows row "schedules_per_run" in
        (* a domain row's fields, its name aside *)
        let domains d =
          List.tl (find_row mc_rows (Printf.sprintf "mc_exhaustive_abd_n2_domains%d" d))
        in
        [ ( 3. *. schedules "mc_dpor_abd_n2" <= schedules "mc_exhaustive_abd_n2",
            "DPOR must explore at least 3× fewer schedules than exhaustive" );
          ( schedules "mc_dpor_abd_n3" > 0. && flag mc_rows "mc_dpor_abd_n3" "complete",
            "DPOR did not complete ABD at n = 3" );
          ( domains 2 = domains 1 && domains 4 = domains 1,
            "the domain counts explored different spaces" ) ]);
    bench_claim "E20" "Eventual consistency"
      "EC writes flow through a full isolation while SMR freezes, then converge"
      ec_rows
      (fun () ->
        let p = "net_ec_partition_n3" and c = "net_ec_converge_n3" in
        [ ( flag ec_rows p "invariants_ok" && flag ec_rows c "invariants_ok",
            "an invariant of the mixed-consistency run failed" );
          (count ec_rows p "ec_puts_in_partition" > 0., "no EC write inside the cut");
          (flag ec_rows p "smr_frozen", "SMR applied commands inside the cut");
          ( count ec_rows c "converged_rounds_after_last_write" >= 0.,
            "the replicas did not converge" ) ]);
    bench_claim "E21" "Detector scaling"
      "the ring detector stays ≤ 1.1 frames/round/process, below all-to-all, \
       and fails over in constant periods"
      detector_rows
      (fun () ->
        let fpp row = count detector_rows row "frames_per_round_per_process" in
        let periods n =
          count detector_rows
            (Printf.sprintf "detector_failover_ring_n%d" n)
            "crash_to_new_leader_periods"
        in
        List.concat_map
          (fun n ->
            let ring = Printf.sprintf "net_detector_ring_n%d" n in
            [ (fpp ring <= 1.1, ring ^ " is too chatty");
              ( fpp ring < count detector_rows ring "heartbeat_frames_per_round_per_process",
                ring ^ " does not beat all-to-all" );
              ( periods n <= 3. *. periods 3,
                Printf.sprintf "ring failover at n=%d takes over 3× n=3's periods" n ) ])
          [ 3; 10; 100; 1000 ]
        @ List.map
            (fun n ->
              let row = Printf.sprintf "net_detector_ring_sockets_n%d" n in
              (fpp row <= 1.1, row ^ " is too chatty"))
            [ 3; 8; 14; 20 ]);
  ]

let all = simulator @ runtime

let check c =
  try c.run () with e -> { tables = []; verdict = Error (Printexc.to_string e) }

let markdown outcomes =
  let b = Buffer.create 65_536 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let status (o : outcome) =
    match o.verdict with Ok () -> "PASS" | Error e -> "FAIL: " ^ e
  in
  let link c = Printf.sprintf "[%s](#%s)" c.id (String.lowercase_ascii c.id) in
  let backing r dir =
    List.filter (fun (c, _) -> List.mem (r.name, dir) c.backs) outcomes
    |> List.map (fun (c, _) -> link c)
    |> String.concat ", "
  in
  let table t =
    if t.caption <> "" then line "%s\n" t.caption;
    line "| %s |" (String.concat " | " t.header);
    line "|%s" (String.concat "" (List.map (fun _ -> "---|") t.header));
    List.iter (fun r -> line "| %s |" (String.concat " | " r)) t.rows;
    line ""
  in
  line
    "# CLAIMS — every paper claim, checked\n\n\
     Generated by `dune exec bin/check_paper.exe` with `BENCH_weakest_fd.json`;\n\
     CI regenerates both and diffs them, so do not edit by hand.\n\
     EXPERIMENTS.md explains each claim. `done` = every correct process\n\
     produced its output; `BLOCKED` = the step budget ran out with correct\n\
     processes still waiting; `ok` = the specification checker accepted the run.\n\n\
     ## The paper's result\n\n\
     The weakest failure detector for each problem, in every environment,\n\
     and the claims that check each direction.\n";
  table
    { caption = "";
      header = [ "result"; "problem"; "weakest detector"; "sufficiency"; "necessity" ];
      rows =
        List.map
          (fun r ->
            [ r.name; r.problem; r.detector;
              r.sufficiency ^ ": " ^ backing r Sufficiency;
              r.necessity ^ ": " ^ backing r Necessity ])
          theorems };
  line "## Claims\n";
  table
    { caption = ""; header = [ "claim"; "paper"; "checks"; "verdict" ];
      rows = List.map (fun (c, o) -> [ link c; c.paper; c.title; status o ]) outcomes };
  List.iter
    (fun (c, o) ->
      line "### %s\n\n%s: %s. **%s**\n" c.id c.paper c.title (status o);
      List.iter table o.tables)
    outcomes;
  Buffer.contents b
