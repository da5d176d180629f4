(* Tier-1 tests for the model-checking subsystem: the exhaustive explorer
   proves small instances of the paper's algorithms correct, and the same
   machinery catches planted bugs (broken validity) and the classical 2PC
   blocking scenario with replayable, shrunk counterexamples. *)

let ff n = Sim.Failure_pattern.failure_free n

(* ---- schedules round-trip ----------------------------------------- *)

let test_schedule_roundtrip () =
  let cases =
    [
      Mc.Schedule.empty;
      Mc.Schedule.make [ 1; 0; 2; 0 ];
      Mc.Schedule.make ~crashes:[ (0, 3) ] [];
      Mc.Schedule.make ~crashes:[ (2, 0); (0, 7) ] [ 0; 0; 1 ];
    ]
  in
  List.iter
    (fun s ->
      let s' = Mc.Schedule.of_string (Mc.Schedule.to_string s) in
      Alcotest.(check string)
        "schedule round-trips"
        (Mc.Schedule.to_string s)
        (Mc.Schedule.to_string s'))
    cases;
  Alcotest.check_raises "malformed schedule rejected"
    (Invalid_argument "Schedule.of_string: cannot parse nonsense") (fun () ->
      ignore (Mc.Schedule.of_string "nonsense"))

(* ---- the verification direction: no violations exist ---------------- *)

let test_exhaustive_quorum_paxos () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Exhaustive.schedules > 1)

let test_exhaustive_quorum_paxos_with_crash () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Exhaustive ~budget:50_000 t ~n:2
  in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "no violation under any failure pattern" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "several patterns tried" true
    (r.Mc.Crash_adversary.patterns > 1)

let test_exhaustive_abd () =
  let t = Mc.Targets.abd ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "every schedule linearizable" true
    (r.Mc.Exhaustive.counterexample = None)

(* ---- the falsification direction: planted bugs are caught ----------- *)

let test_exhaustive_catches_broken_validity () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let r = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "planted validity bug not found"
  | Some c ->
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names validity" true
      (String.length c.Mc.Harness.reason >= 8
      && String.sub c.Mc.Harness.reason 0 8 = "validity");
    (* the serialized schedule replays to the same violation *)
    let s = Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule) in
    Alcotest.(check bool) "replay reproduces the violation" true
      (Mc.Harness.violates t ~n:2 s)

let test_pct_catches_broken_validity () =
  let t = Mc.Targets.broken_validity ~n:3 in
  let r = Mc.Pct.search ~budget:200 ~d:3 t ~fp:(ff 3) in
  match r.Mc.Pct.counterexample with
  | None -> Alcotest.fail "PCT did not find the planted validity bug"
  | Some c ->
    Alcotest.(check bool) "replay reproduces" true
      (Mc.Harness.violates t ~n:3 c.Mc.Harness.schedule)

let test_crash_adversary_finds_2pc_blocking () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Exhaustive ~budget:50_000 t ~n:2
  in
  match r.Mc.Crash_adversary.counterexample with
  | None -> Alcotest.fail "2PC blocking not found by the crash adversary"
  | Some c ->
    Alcotest.(check bool)
      "the blocking run needs a crash" true
      (c.Mc.Harness.schedule.Mc.Schedule.crashes <> []);
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names termination" true
      (String.length c.Mc.Harness.reason >= 11
      && String.sub c.Mc.Harness.reason 0 11 = "termination");
    (* round-trip through the textual form, then replay *)
    let s = Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule) in
    let rep = Mc.Harness.replay t ~n:2 s in
    Alcotest.(check bool) "replay reproduces the blocking" true
      (rep.Mc.Harness.violation <> None)

let test_qc_psi_survives_crash_adversary () =
  (* the same adversary that breaks 2PC: QC from Psi must stay clean —
     with a failure it may Quit, without one it must decide a proposal *)
  let t = Mc.Targets.qc_psi ~n:2 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Random ~budget:600 ~inner_budget:100 t ~n:2
  in
  (match r.Mc.Crash_adversary.counterexample with
  | None -> ()
  | Some c ->
    Alcotest.failf "QC violated: %s"
      (Format.asprintf "%a" Mc.Harness.pp_counterexample c));
  Alcotest.(check bool) "several patterns tried" true
    (r.Mc.Crash_adversary.patterns > 1)

(* ---- shrinking ------------------------------------------------------ *)

let test_shrinker_minimizes () =
  let t = Mc.Targets.broken_validity ~n:2 in
  (* pad a violating schedule with junk choices and a redundant crash on
     process 1 (the bug lives in process 0's output) *)
  let noisy =
    Mc.Schedule.make ~crashes:[ (1, 4) ] [ 1; 1; 1; 0; 1; 0; 1; 1; 0; 1 ]
  in
  Alcotest.(check bool) "noisy schedule violates" true
    (Mc.Harness.violates t ~n:2 noisy);
  let shrunk, replays = Mc.Shrink.minimize
      ~violates:(fun s -> Mc.Harness.violates t ~n:2 s)
      noisy
  in
  Alcotest.(check bool) "shrunk schedule still violates" true
    (Mc.Harness.violates t ~n:2 shrunk);
  Alcotest.(check (list (pair int int))) "redundant crash dropped" []
    shrunk.Mc.Schedule.crashes;
  Alcotest.(check int) "all junk choices dropped" 0
    (Mc.Schedule.length shrunk);
  Alcotest.(check bool) "within replay budget" true (replays <= 400)

(* Quality contract on what the searches actually hand the user: a shrunk
   counterexample (1) still violates, (2) replays byte-identically — every
   field of the report, the rendered outputs included — and (3) is a fixed
   point of the shrinker, so re-shrinking a reported schedule never
   changes it. *)
let bytes_of_report (r : Mc.Harness.run_report) =
  Marshal.to_bytes
    (r.violation, r.choices, r.stopped, r.steps, Lazy.force r.outputs)
    []

let check_shrink_quality name t ~n (c : Mc.Harness.counterexample) =
  let s = c.Mc.Harness.schedule in
  Alcotest.(check bool) (name ^ ": shrunk still violates") true
    (Mc.Harness.violates t ~n s);
  let r1 = Mc.Harness.replay t ~n s and r2 = Mc.Harness.replay t ~n s in
  Alcotest.(check bool)
    (name ^ ": replay is byte-identical")
    true
    (Bytes.equal (bytes_of_report r1) (bytes_of_report r2));
  let s', _ =
    Mc.Shrink.minimize ~violates:(fun x -> Mc.Harness.violates t ~n x) s
  in
  Alcotest.(check string)
    (name ^ ": shrinking is idempotent")
    (Mc.Schedule.to_string s)
    (Mc.Schedule.to_string s')

let test_shrunk_counterexample_quality () =
  (let t = Mc.Targets.broken_validity ~n:2 in
   let r = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
   match r.Mc.Exhaustive.counterexample with
   | None -> Alcotest.fail "broken validity not found"
   | Some c -> check_shrink_quality "broken-validity" t ~n:2 c);
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Exhaustive ~budget:50_000 t ~n:2
  in
  match r.Mc.Crash_adversary.counterexample with
  | None -> Alcotest.fail "2pc blocking not found"
  | Some c -> check_shrink_quality "2pc-blocking" t ~n:2 c

let test_shrink_idempotent_under_noise () =
  (* Sweep random noisy violating schedules: minimization must land on a
     fixed point every time, not just on the hand-picked example above. *)
  let t = Mc.Targets.broken_validity ~n:2 in
  let violates s = Mc.Harness.violates t ~n:2 s in
  let exercised = ref 0 in
  for seed = 1 to 12 do
    let rng = Sim.Rng.make (seed * 37) in
    let noise =
      List.init (5 + Sim.Rng.int rng 10) (fun _ -> Sim.Rng.int rng 2)
    in
    let crashes = if Sim.Rng.bool rng then [ (1, Sim.Rng.int rng 6) ] else [] in
    let noisy = Mc.Schedule.make ~crashes noise in
    if violates noisy then begin
      incr exercised;
      let s1, _ = Mc.Shrink.minimize ~violates noisy in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: minimized still violates" seed)
        true (violates s1);
      let s2, _ = Mc.Shrink.minimize ~violates s1 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: minimization is a fixed point" seed)
        (Mc.Schedule.to_string s1)
        (Mc.Schedule.to_string s2)
    end
  done;
  Alcotest.(check bool) "sweep exercised violating schedules" true
    (!exercised > 0)

(* ---- core integration ----------------------------------------------- *)

let opts = Core.Runner.mc_default_opts

let test_runner_model_check () =
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.budget = 50_000 }
       "cons.quorum_paxos" ~n:2
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "quorum paxos clean" true
      (s.Core.Runner.counterexample = None);
    Alcotest.(check bool) "exhausted" true s.Core.Runner.exhausted);
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.explorer = `Random }
       "no.such.target" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown target accepted");
  match
    Core.Runner.model_check_scenario
      ~opts:{ opts with Core.Runner.budget = 5_000 }
      "cons.broken_validity"
      (Core.Scenario.failure_free ~n:2)
  with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    match s.Core.Runner.counterexample with
    | None -> Alcotest.fail "scenario model check missed the planted bug"
    | Some c ->
      let r =
        Core.Runner.mc_replay "cons.broken_validity" ~n:2 ~seed:1
          ~schedule:(Mc.Schedule.to_string c.Mc.Harness.schedule)
      in
      (match r with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        Alcotest.(check bool) "CLI-level replay reproduces" true
          (rep.Core.Runner.re_violation <> None)))

(* ---- parallel exploration ------------------------------------------- *)

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

(* The whole determinism contract in one string: pattern/schedule/step
   counts, exhaustion, and the (shrunk) counterexample. *)
let summary_string name ~n o =
  match Core.Runner.model_check ~opts:o name ~n with
  | Error e -> Alcotest.fail e
  | Ok s -> Format.asprintf "%a" Core.Runner.pp_mc_summary s

let check_domain_independent ?(domains = [ 2; 4 ]) name ~n o =
  let reference = summary_string name ~n { o with Core.Runner.domains = 1 } in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "%s: domains=%d == domains=1" name k)
        reference
        (summary_string name ~n { o with Core.Runner.domains = k }))
    domains;
  reference

let test_parallel_matches_sequential_2pc () =
  (* exhaustive crash adversary finds the 2PC blocking counterexample;
     every domain count must report the same one, byte for byte *)
  let s =
    check_domain_independent "qcnbac.two_phase_commit" ~n:2
      { opts with Core.Runner.budget = 50_000 }
  in
  Alcotest.(check bool) "blocking found" true
    (contains s "VIOLATION")

let test_parallel_matches_sequential_broken_validity () =
  let s =
    check_domain_independent "cons.broken_validity" ~n:2
      { opts with Core.Runner.budget = 10_000 }
  in
  Alcotest.(check bool) "planted bug found" true
    (contains s "VIOLATION")

let test_parallel_matches_sequential_clean_exhausted () =
  (* no-counterexample direction: patterns/schedules counts of a fully
     exhausted space must also be domain-count independent *)
  let s =
    check_domain_independent "cons.quorum_paxos" ~n:2
      { opts with Core.Runner.budget = 50_000 }
  in
  Alcotest.(check bool) "space exhausted" true
    (contains s "exhausted")

let test_parallel_sampled_explorers () =
  ignore
    (check_domain_independent "cons.broken_validity" ~n:3
       { opts with Core.Runner.explorer = `Pct; d = Some 3; budget = 400 });
  ignore
    (check_domain_independent "cons.broken_validity" ~n:2
       { opts with Core.Runner.explorer = `Random; budget = 400 })

let test_parallel_cancellation_stress () =
  (* first-counterexample cancellation must never lose a violation that a
     single-domain search reports: sweep seeds so cancellation lands at
     different points relative to in-flight speculative work *)
  List.iter
    (fun seed ->
      let o =
        { opts with Core.Runner.explorer = `Random; budget = 300; seed }
      in
      let reference =
        summary_string "cons.broken_validity" ~n:2
          { o with Core.Runner.domains = 1 }
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: single-domain search finds the bug" seed)
        true
        (contains reference "VIOLATION");
      Alcotest.(check string)
        (Printf.sprintf "seed %d: domains=4 reports the same violation" seed)
        reference
        (summary_string "cons.broken_validity" ~n:2
           { o with Core.Runner.domains = 4 }))
    (List.init 12 (fun i -> i + 1))

let test_opts_validation () =
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.d = Some 3 }
       "cons.quorum_paxos" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "PCT depth with exhaustive explorer accepted");
  (match
     Core.Runner.model_check
       ~opts:{ opts with Core.Runner.explorer = `Random; d = Some 2 }
       "cons.quorum_paxos" ~n:2
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "PCT depth with random explorer accepted");
  match
    Core.Runner.model_check
      ~opts:{ opts with Core.Runner.domains = 0 }
      "cons.quorum_paxos" ~n:2
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "domains=0 accepted"

(* ---- dpor: partial-order reduction, identical verdicts -------------- *)

let test_dpor_abd_reduction () =
  let t = Mc.Targets.abd ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "exhaustive complete" true ex.Mc.Exhaustive.complete;
  Alcotest.(check bool) "dpor complete" true dp.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool)
    (Printf.sprintf "dpor explores >= 3x fewer schedules (%d vs %d)"
       dp.Mc.Exhaustive.schedules ex.Mc.Exhaustive.schedules)
    true
    (dp.Mc.Exhaustive.schedules * 3 <= ex.Mc.Exhaustive.schedules)

let test_dpor_paxos_parity () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "both complete" true
    (ex.Mc.Exhaustive.complete && dp.Mc.Exhaustive.complete);
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "dpor explores a subset" true
    (dp.Mc.Exhaustive.schedules <= ex.Mc.Exhaustive.schedules)

let test_dpor_broken_validity_same_cex () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:10_000 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:10_000 t ~fp:(ff 2) in
  match (ex.Mc.Exhaustive.counterexample, dp.Mc.Exhaustive.counterexample) with
  | Some ec, Some dc ->
    Alcotest.(check string)
      "identical violation reason" ec.Mc.Harness.reason dc.Mc.Harness.reason;
    Alcotest.(check bool) "dpor counterexample replays" true
      (Mc.Harness.violates t ~n:2 dc.Mc.Harness.schedule)
  | _ -> Alcotest.fail "planted bug missed by one of the explorers"

let test_dpor_2pc_adversary_parity () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let search inner =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2 ~inner
      ~budget:50_000 t ~n:2
  in
  let ex = search `Exhaustive and dp = search `Dpor in
  match
    (ex.Mc.Crash_adversary.counterexample, dp.Mc.Crash_adversary.counterexample)
  with
  | Some ec, Some dc ->
    Alcotest.(check string)
      "identical blocking reason" ec.Mc.Harness.reason dc.Mc.Harness.reason;
    Alcotest.(check bool) "dpor explores fewer-or-equal schedules" true
      (dp.Mc.Crash_adversary.schedules <= ex.Mc.Crash_adversary.schedules);
    Alcotest.(check bool)
      "blocking needs a crash" true
      (dc.Mc.Harness.schedule.Mc.Schedule.crashes <> [])
  | _ -> Alcotest.fail "2PC blocking missed by one of the explorers"

let test_dpor_time_varying_fd_degenerates () =
  (* Psi's sampled history is time-varying ([time_invariant_fd = false]),
     which disables the reduction's soundness precondition: DPOR must
     degenerate to exactly the exhaustive search, same counts and all. *)
  let t = Mc.Targets.qc_psi ~n:2 in
  let ex = Mc.Exhaustive.search ~budget:100 t ~fp:(ff 2) in
  let dp = Mc.Dpor.search ~budget:100 t ~fp:(ff 2) in
  Alcotest.(check int)
    "identical schedule count" ex.Mc.Exhaustive.schedules
    dp.Mc.Exhaustive.schedules;
  Alcotest.(check int)
    "identical step count" ex.Mc.Exhaustive.steps dp.Mc.Exhaustive.steps;
  Alcotest.(check bool)
    "identical verdict" true
    (ex.Mc.Exhaustive.counterexample = None
    && dp.Mc.Exhaustive.counterexample = None)

(* Soundness of the independence relation, property-style: for random
   (target, failure pattern) configurations, DPOR and exhaustive search
   must agree on completeness and verdict, and DPOR must never explore
   more schedules.  A reduction that swapped two dependent steps would
   show up here as a verdict mismatch. *)
let prop_dpor_verdict_parity =
  QCheck.Test.make ~name:"dpor: verdict parity on random crash patterns"
    ~count:12
    QCheck.(triple (0 -- 2) (0 -- 1) (0 -- 6))
    (fun (ti, pid, time) ->
      let name =
        List.nth
          [ "regs.abd"; "cons.quorum_paxos"; "qcnbac.two_phase_commit" ]
          ti
      in
      let fp =
        if time = 6 then ff 2 else Sim.Failure_pattern.make ~n:2 [ (pid, time) ]
      in
      match Mc.Targets.find name ~n:2 with
      | None -> false
      | Some (Mc.Targets.Packed t) ->
        let ex = Mc.Exhaustive.search ~budget:2_000 ~shrink:false t ~fp in
        let dp = Mc.Dpor.search ~budget:2_000 ~shrink:false t ~fp in
        if ex.Mc.Exhaustive.complete then
          dp.Mc.Exhaustive.complete
          && (ex.Mc.Exhaustive.counterexample = None)
             = (dp.Mc.Exhaustive.counterexample = None)
          && dp.Mc.Exhaustive.schedules <= ex.Mc.Exhaustive.schedules
        else true)

(* ---- unordered (bug-hunting) mode ----------------------------------- *)

let test_unordered_sampled_accounting () =
  (* Step/schedule accounting must count the canonical search, not racing
     artifacts: a clean sampled drain reports exactly its budget at every
     domain count. *)
  List.iter
    (fun domains ->
      match
        Core.Runner.model_check
          ~opts:
            {
              opts with
              Core.Runner.explorer = `Random;
              budget = 300;
              ordered = false;
              domains;
            }
          "cons.quorum_paxos" ~n:2
      with
      | Error e -> Alcotest.fail e
      | Ok s ->
        Alcotest.(check int)
          (Printf.sprintf "domains=%d: schedules == budget" domains)
          300 s.Core.Runner.schedules)
    [ 1; 4 ]

let test_unordered_exhaustive_verdicts () =
  (* which counterexample unordered mode reports may vary with timing;
     whether one exists, and whether a clean space drains, may not *)
  (match
     Core.Runner.model_check
       ~opts:
         {
           opts with
           Core.Runner.budget = 10_000;
           ordered = false;
           domains = 4;
         }
       "cons.broken_validity" ~n:2
   with
  | Error e -> Alcotest.fail e
  | Ok s -> (
    match s.Core.Runner.counterexample with
    | None -> Alcotest.fail "unordered search missed the planted bug"
    | Some c ->
      Alcotest.(check bool) "unordered counterexample replays" true
        (Mc.Harness.violates (Mc.Targets.broken_validity ~n:2) ~n:2
           c.Mc.Harness.schedule)));
  match
    Core.Runner.model_check
      ~opts:
        {
          opts with
          Core.Runner.budget = 50_000;
          ordered = false;
          domains = 4;
        }
      "cons.quorum_paxos" ~n:2
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "clean space drains completely" true
      s.Core.Runner.exhausted;
    Alcotest.(check bool) "no violation" true
      (s.Core.Runner.counterexample = None)

let test_unordered_dpor_rejected () =
  match
    Core.Runner.model_check
      ~opts:{ opts with Core.Runner.explorer = `Dpor; ordered = false }
      "cons.quorum_paxos" ~n:2
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unordered dpor accepted"

(* ---- the production net stack, model-checked ------------------------ *)

let test_net_raw_reorder_caught_and_shrunk () =
  (* positive control: without an ARQ the reordering hub violates the
     link axiom, and the harness finds, shrinks and replays it *)
  let t = Mc.Net_targets.seq_raw_reorder ~n:2 ~m:2 in
  let r = Mc.Net_harness.search ~budget:2_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "raw reordering hub passed the link axiom"
  | Some c ->
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    Alcotest.(check bool)
      "reason names the delivery order" true
      (contains c.Mc.Harness.reason "delivered");
    Alcotest.(check bool) "shrunk schedule still violates" true
      (Mc.Net_harness.violates t c.Mc.Harness.schedule);
    (* round-trip through the serialized form, then replay *)
    let s =
      Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule)
    in
    let rep = Mc.Net_harness.replay t s in
    Alcotest.(check bool) "replay reproduces the violation" true
      (rep.Mc.Net_harness.violation <> None)

let test_net_broken_arq_loses_message () =
  (* the planted net-layer bug: acking the highest sequence seen instead
     of cumulatively loses the dropped frame forever *)
  let t = Mc.Net_targets.seq_broken_arq ~n:2 ~m:2 in
  let r = Mc.Net_harness.search ~budget:2_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "broken ARQ passed the link axiom"
  | Some c ->
    Alcotest.(check bool)
      "reason names the lost message" true
      (contains c.Mc.Harness.reason "lost in the link layer");
    Alcotest.(check bool) "counterexample was shrunk" true c.Mc.Harness.shrunk;
    let rep = Mc.Net_harness.replay t c.Mc.Harness.schedule in
    Alcotest.(check bool) "replay reproduces the loss" true
      (rep.Mc.Net_harness.violation <> None)

let test_net_rel_restores_link_axiom () =
  (* the production ARQ under reordering, a dropped frame and a
     duplicated frame: every schedule satisfies the link axiom *)
  let t = Mc.Net_targets.seq_rel ~n:2 ~m:1 in
  let r = Mc.Net_harness.search ~budget:5_000 t in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 100)

let test_net_abd_over_node_rel_linearizable () =
  (* the paper's register algorithm through the real wire path: Node main
     loop, marshal codec, Rel ARQ, a dropped frame forcing a resend *)
  let t = Mc.Net_targets.abd_rel ~n:2 in
  let r = Mc.Net_harness.search ~budget:20_000 t in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "linearizable in every schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 1_000)

(* ---- the eventually-consistent store -------------------------------- *)

let test_ec_store_exhausted () =
  (* two replicas write the same key concurrently; every delivery
     schedule must drain to equal fingerprints *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r = Mc.Exhaustive.search ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Exhaustive.complete;
  Alcotest.(check bool)
    "every schedule converges" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Exhaustive.schedules > 1)

let test_ec_store_crash_adversary () =
  (* a crashed replica's write may be lost, but the survivors must still
     agree among themselves — crash runs never quiesce (the survivors
     keep backed-off digesting the corpse), so this also exercises the
     step-bound liveness deadline *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Exhaustive ~budget:20_000 t ~n:2
  in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "survivors converge under every crash" true
    (r.Mc.Crash_adversary.counterexample = None)

(* ---- the ring detector ---------------------------------------------- *)

let test_fd_ring_exhausted () =
  (* eventual leader agreement of the chain-ordered ◇S implementation,
     exhaustively at n=3 under the crash adversary: whatever the round
     interleaving and whichever single process crashes (on the default
     time grid), every correct process must settle on the smallest
     correct id within the step budget *)
  let t = Mc.Targets.fd_ring ~n:3 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Exhaustive ~budget:200_000 ~inner_budget:100_000 t ~n:3
  in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "leader agreement under every crash" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 1_000)

let test_fd_ring_dpor_parity () =
  (* DPOR must reach the same (clean) verdict on a much smaller schedule
     set — the ring's point-to-point heartbeats commute aggressively *)
  let t = Mc.Targets.fd_ring ~n:3 in
  let r =
    Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
      ~inner:`Dpor ~budget:200_000 ~inner_budget:100_000 t ~n:3
  in
  Alcotest.(check bool) "exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool) "clean" true
    (r.Mc.Crash_adversary.counterexample = None)

let test_net_ec_converge () =
  (* three replicas over the raw reordering hub with a dropped and a
     duplicated frame: no ARQ, anti-entropy masks the loss itself *)
  let t = Mc.Net_targets.ec_converge ~n:3 in
  let r = Mc.Net_harness.search ~budget:3_000 t in
  Alcotest.(check bool)
    "no divergence in any schedule" true
    (r.Mc.Exhaustive.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Exhaustive.schedules > 100)

let test_net_ec_no_sync_caught () =
  (* positive control: with anti-entropy off the writes never propagate
     and the checker reports divergent stores on the first schedule *)
  let t = Mc.Net_targets.ec_no_sync ~n:3 in
  let r = Mc.Net_harness.search ~budget:1_000 t in
  match r.Mc.Exhaustive.counterexample with
  | None -> Alcotest.fail "divergent stores not caught"
  | Some c ->
    Alcotest.(check bool)
      "reason names convergence" true
      (contains c.Mc.Harness.reason "convergence violated");
    let rep = Mc.Net_harness.replay t c.Mc.Harness.schedule in
    Alcotest.(check bool) "replay reproduces the divergence" true
      (rep.Mc.Net_harness.violation <> None)

(* ---- pinned explorer counts ----------------------------------------- *)

(* Schedule, prune and step counts of searches whose every pruning
   decision hangs on a state digest.  When and how often the explorers
   compute digests must not move a single decision, so these must not
   move; a change to the digest itself moves them on purpose. *)
let check_counts name (r : Mc.Exhaustive.report) ~schedules ~pruned ~steps =
  Alcotest.(check bool) (name ^ ": complete") true r.complete;
  Alcotest.(check bool) (name ^ ": clean") true (r.counterexample = None);
  Alcotest.(check (list int))
    (name ^ ": schedules, pruned, steps")
    [ schedules; pruned; steps ]
    [ r.schedules; r.pruned; r.steps ]

let test_pinned_explorer_counts () =
  let ring = Mc.Targets.fd_ring ~n:3 in
  check_counts "exhaustive fd.ring n=3 failure-free"
    (Mc.Exhaustive.search ~budget:100_000 ring ~fp:(ff 3))
    ~schedules:6 ~pruned:0 ~steps:18;
  check_counts "exhaustive fd.ring n=3 crashes=0@0"
    (Mc.Exhaustive.search ~budget:100_000 ring
       ~fp:(Sim.Failure_pattern.make ~n:3 [ (0, 0) ]))
    ~schedules:2_272 ~pruned:2_020 ~steps:58_528;
  check_counts "dpor regs.abd n=2"
    (Mc.Dpor.search ~budget:50_000 (Mc.Targets.abd ~n:2) ~fp:(ff 2))
    ~schedules:34 ~pruned:10 ~steps:1_027;
  check_counts "net-harness abd over node+rel n=2"
    (Mc.Net_harness.search ~budget:20_000 (Mc.Net_targets.abd_rel ~n:2))
    ~schedules:6_593 ~pruned:6_577 ~steps:165_802

let () =
  Alcotest.run "mc"
    [
      ( "schedule",
        [ Alcotest.test_case "round-trip" `Quick test_schedule_roundtrip ] );
      ( "exhaustive",
        [
          Alcotest.test_case "quorum-paxos n=2 clean" `Quick
            test_exhaustive_quorum_paxos;
          Alcotest.test_case "quorum-paxos n=2 clean under crashes" `Quick
            test_exhaustive_quorum_paxos_with_crash;
          Alcotest.test_case "abd n=2 linearizable" `Quick test_exhaustive_abd;
          Alcotest.test_case "broken validity caught + replay" `Quick
            test_exhaustive_catches_broken_validity;
        ] );
      ( "pct",
        [
          Alcotest.test_case "broken validity caught" `Quick
            test_pct_catches_broken_validity;
        ] );
      ( "crash-adversary",
        [
          Alcotest.test_case "2pc blocking found + replay" `Quick
            test_crash_adversary_finds_2pc_blocking;
          Alcotest.test_case "qc from psi survives" `Quick
            test_qc_psi_survives_crash_adversary;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "greedy minimization" `Quick
            test_shrinker_minimizes;
          Alcotest.test_case "shrunk counterexample quality" `Quick
            test_shrunk_counterexample_quality;
          Alcotest.test_case "idempotent under noise" `Quick
            test_shrink_idempotent_under_noise;
        ] );
      ( "core",
        [ Alcotest.test_case "runner integration" `Quick test_runner_model_check ] );
      ( "parallel",
        [
          Alcotest.test_case "2pc blocking domain-independent" `Quick
            test_parallel_matches_sequential_2pc;
          Alcotest.test_case "broken validity domain-independent" `Quick
            test_parallel_matches_sequential_broken_validity;
          Alcotest.test_case "clean exhaustion domain-independent" `Quick
            test_parallel_matches_sequential_clean_exhausted;
          Alcotest.test_case "pct/random domain-independent" `Quick
            test_parallel_sampled_explorers;
          Alcotest.test_case "cancellation loses no violation" `Quick
            test_parallel_cancellation_stress;
          Alcotest.test_case "opts validation" `Quick test_opts_validation;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "abd n=2: >=3x reduction, clean" `Quick
            test_dpor_abd_reduction;
          Alcotest.test_case "quorum-paxos n=2 parity" `Quick
            test_dpor_paxos_parity;
          Alcotest.test_case "broken validity: same counterexample" `Quick
            test_dpor_broken_validity_same_cex;
          Alcotest.test_case "2pc blocking via crash adversary" `Quick
            test_dpor_2pc_adversary_parity;
          Alcotest.test_case "time-varying fd degenerates to exhaustive"
            `Quick test_dpor_time_varying_fd_degenerates;
          QCheck_alcotest.to_alcotest prop_dpor_verdict_parity;
        ] );
      ( "unordered",
        [
          Alcotest.test_case "sampled accounting == budget" `Quick
            test_unordered_sampled_accounting;
          Alcotest.test_case "exhaustive verdict parity" `Quick
            test_unordered_exhaustive_verdicts;
          Alcotest.test_case "dpor rejected" `Quick test_unordered_dpor_rejected;
        ] );
      ( "net-harness",
        [
          Alcotest.test_case "raw reorder: caught + shrunk + replay" `Quick
            test_net_raw_reorder_caught_and_shrunk;
          Alcotest.test_case "broken arq: lost message caught" `Quick
            test_net_broken_arq_loses_message;
          Alcotest.test_case "rel restores the link axiom" `Quick
            test_net_rel_restores_link_axiom;
          Alcotest.test_case "abd over node+rel linearizable" `Quick
            test_net_abd_over_node_rel_linearizable;
        ] );
      ( "ec",
        [
          Alcotest.test_case "store n=2 exhausted, converges" `Quick
            test_ec_store_exhausted;
          Alcotest.test_case "store survives the crash adversary" `Quick
            test_ec_store_crash_adversary;
          Alcotest.test_case "converges over the raw reordering hub" `Quick
            test_net_ec_converge;
          Alcotest.test_case "no-sync divergence caught + replay" `Quick
            test_net_ec_no_sync_caught;
        ] );
      ( "fd-ring",
        [
          Alcotest.test_case "n=3 crash adversary exhausted, agrees" `Quick
            test_fd_ring_exhausted;
          Alcotest.test_case "dpor parity" `Quick test_fd_ring_dpor_parity;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "explorer counts" `Quick
            test_pinned_explorer_counts;
        ] );
    ]
