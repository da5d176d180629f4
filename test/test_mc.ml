(* Tier-1 tests for the model-checking subsystem: the exhaustive explorer
   proves small instances of the paper's algorithms correct, and the same
   machinery catches planted bugs (broken validity) and the classical 2PC
   blocking scenario with replayable, shrunk counterexamples. *)

let ff n = Sim.Failure_pattern.failure_free n

(* Crash-adversary searches go through [Mc.Parallel.search] at one
   domain, from these defaults: at most one crash on the time grid
   0, 2, 4, the exhaustive explorer under each pattern. *)
let mc = Mc.Harness.default_opts

(* One explorer under the one failure pattern [fp], which gets the whole
   budget. *)
let search ?(budget = 10_000) ?(shrink = true) explorer t ~fp =
  Mc.Parallel.search
    ~opts:{ mc with explorer; budget; inner_budget = budget; shrink }
    ~fps:[ fp ] t ~n:(Sim.Failure_pattern.n fp)

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
  let r = search `Exhaustive ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Crash_adversary.schedules > 1)

let test_exhaustive_quorum_paxos_with_crash () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let r = Mc.Parallel.search ~opts:{ mc with budget = 50_000 } t ~n:2 in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "no violation under any failure pattern" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "several patterns tried" true
    (r.Mc.Crash_adversary.patterns > 1)

let test_exhaustive_abd () =
  let t = Mc.Targets.abd ~n:2 in
  let r = search `Exhaustive ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "every schedule linearizable" true
    (r.Mc.Crash_adversary.counterexample = None)

(* ---- the falsification direction: planted bugs are caught ----------- *)

let test_exhaustive_catches_broken_validity () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let r = search `Exhaustive ~budget:10_000 t ~fp:(ff 2) in
  match r.Mc.Crash_adversary.counterexample with
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
  let r =
    Mc.Parallel.search
      ~opts:
        { mc with explorer = `Pct; d = Some 3; budget = 200; inner_budget = 200 }
      ~fps:[ ff 3 ] t ~n:3
  in
  match r.Mc.Crash_adversary.counterexample with
  | None -> Alcotest.fail "PCT did not find the planted validity bug"
  | Some c ->
    Alcotest.(check bool) "replay reproduces" true
      (Mc.Harness.violates t ~n:3 c.Mc.Harness.schedule)

let test_crash_adversary_finds_2pc_blocking () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r = Mc.Parallel.search ~opts:{ mc with budget = 50_000 } t ~n:2 in
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
    Mc.Parallel.search
      ~opts:{ mc with explorer = `Random; budget = 600; inner_budget = 100 }
      t ~n:2
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
   let r = search `Exhaustive ~budget:10_000 t ~fp:(ff 2) in
   match r.Mc.Crash_adversary.counterexample with
   | None -> Alcotest.fail "broken validity not found"
   | Some c -> check_shrink_quality "broken-validity" t ~n:2 c);
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let r = Mc.Parallel.search ~opts:{ mc with budget = 50_000 } t ~n:2 in
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

(* ---- registry, scenario search, serialized replay ---------------- *)

(* The [mc] CLI's path through the library: a name finds a target (or
   nothing), a search under one fixed failure pattern catches the planted
   bug, and its serialized schedule, parsed back, replays the violation. *)
let test_registry_scenario_replay () =
  Alcotest.(check bool) "unknown target" true
    (Mc.Targets.find "no.such.target" ~n:2 = None);
  match Mc.Targets.find "cons.broken_validity" ~n:2 with
  | None -> Alcotest.fail "cons.broken_validity not registered"
  | Some (Mc.Targets.Packed t) -> (
    let r = search `Exhaustive ~budget:5_000 t ~fp:(ff 2) in
    match r.Mc.Crash_adversary.counterexample with
    | None -> Alcotest.fail "scenario search missed the planted bug"
    | Some c ->
      let sched =
        Mc.Schedule.of_string (Mc.Schedule.to_string c.Mc.Harness.schedule)
      in
      Alcotest.(check bool) "parsed replay reproduces" true
        ((Mc.Harness.replay t ~n:2 sched).Mc.Harness.violation <> None))

(* A lookup builds only the target it names: an unknown name is [None]
   even at a size no target can be built at, and a known name builds its
   target at the size asked for.  [names] lists the registry in order. *)
let test_registry_find () =
  Alcotest.(check bool) "unknown name at n = -2" true
    (Mc.Targets.find "no.such.target" ~n:(-2) = None);
  (match Mc.Targets.find "cons.quorum_paxos" ~n:3 with
  | None -> Alcotest.fail "cons.quorum_paxos not registered"
  | Some (Mc.Targets.Packed t) ->
    Alcotest.(check string) "the named target" "cons.quorum_paxos"
      t.Mc.Harness.name;
    Alcotest.(check int) "built at n = 3" 3
      (List.length (t.Mc.Harness.make_inputs (ff 3))));
  Alcotest.(check (list string)) "names follow the registry"
    (List.map fst (Mc.Targets.all ~n:3))
    Mc.Targets.names

(* ---- resuming from round snapshots ---------------------------------- *)

(* [Mc.Parallel] resumes each exhaustive job from a round-boundary
   snapshot, which is sound only if every target's states are values.
   For each registered target at n = 3 under one crash pattern (the
   leader crashes at time 10, late enough for every target to run three
   rounds or more): record a seeded random run with a snapshot per
   round, resume it from each snapshot with the choices made after it,
   and compare verdict, steps, outputs, choices and the digests of the
   later rounds.  A protocol that mutates a state it was given — say, a
   timeout array updated in place — fails here. *)
let test_resume_every_target () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (0, 10) ] in
  List.iter
    (fun (name, Mc.Targets.Packed t) ->
      let run ?resume ?save sched =
        let digests = ref [] in
        let round_hook ~now:_ ~digest ~steps:_ =
          digests := digest () :: !digests;
          true
        in
        let r = Mc.Harness.run ?resume ?save ~round_hook t ~fp sched in
        (r, List.rev !digests)
      in
      let sched, consumed =
        Sim.Scheduler.counting (Sim.Scheduler.random (Sim.Rng.make 3))
      in
      let snaps = ref [] in
      let save s = snaps := (consumed (), s) :: !snaps in
      let full, digests = run ~save sched in
      Alcotest.(check bool) (name ^ ": several rounds") true
        (List.length !snaps >= 3);
      List.iteri
        (fun r (c, snap) ->
          let before, after =
            ( List.filteri (fun i _ -> i < c) full.Mc.Harness.choices,
              List.filteri (fun i _ -> i >= c) full.Mc.Harness.choices )
          in
          let t, ds =
            run ~resume:snap
              (Sim.Scheduler.replay after ~rest:Sim.Scheduler.first)
          in
          let at = Printf.sprintf "%s resumed after round %d" name r in
          Alcotest.(check (option string))
            (at ^ ": verdict") full.violation t.Mc.Harness.violation;
          Alcotest.(check int) (at ^ ": steps") full.steps t.steps;
          Alcotest.(check bool) (at ^ ": stopped") true (full.stopped = t.stopped);
          Alcotest.(check string)
            (at ^ ": outputs") (Lazy.force full.outputs) (Lazy.force t.outputs);
          Alcotest.(check (list int))
            (at ^ ": choices") full.choices (before @ t.choices);
          Alcotest.(check (list int))
            (at ^ ": digests of the later rounds")
            (List.filteri (fun i _ -> i > r) digests)
            ds)
        (List.rev !snaps))
    (Mc.Targets.all ~n:3)

(* ---- parallel exploration ------------------------------------------- *)

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

(* The whole determinism contract in one value: pattern, schedule,
   pruned-run and step counts, exhaustion, and the (shrunk)
   counterexample. *)
let report =
  Alcotest.testable
    (fun fmt (r : Mc.Crash_adversary.report) ->
      Format.fprintf fmt "patterns=%d schedules=%d pruned=%d steps=%d %b %a"
        r.patterns r.schedules r.pruned r.steps r.complete
        (Format.pp_print_option Mc.Harness.pp_counterexample)
        r.counterexample)
    ( = )

let search_target name ~n opts =
  match Mc.Targets.find name ~n with
  | None -> Alcotest.failf "unknown target %s" name
  | Some (Mc.Targets.Packed t) -> Mc.Parallel.search ~opts t ~n

let check_domain_independent ?(domains = [ 2; 4 ]) name ~n o =
  let reference = search_target name ~n { o with domains = 1 } in
  List.iter
    (fun k ->
      Alcotest.check report
        (Printf.sprintf "%s: domains=%d == domains=1" name k)
        reference
        (search_target name ~n { o with domains = k }))
    domains;
  reference

let test_parallel_matches_sequential_2pc () =
  (* the exhaustive and DPOR crash adversaries find the 2PC blocking
     counterexample; every domain count must report the same one *)
  List.iter
    (fun explorer ->
      let r =
        check_domain_independent "qcnbac.two_phase_commit" ~n:2
          { mc with explorer; budget = 50_000 }
      in
      Alcotest.(check bool) "blocking found" true (r.counterexample <> None))
    [ `Exhaustive; `Dpor ]

let test_parallel_matches_sequential_broken_validity () =
  let r =
    check_domain_independent "cons.broken_validity" ~n:2
      { mc with budget = 10_000 }
  in
  Alcotest.(check bool) "planted bug found" true (r.counterexample <> None)

let test_parallel_matches_sequential_clean_exhausted () =
  (* no-counterexample direction: patterns/schedules counts of a fully
     exhausted space must also be domain-count independent *)
  let r =
    check_domain_independent "cons.quorum_paxos" ~n:2
      { mc with budget = 50_000 }
  in
  Alcotest.(check bool) "space exhausted" true r.complete;
  let r =
    check_domain_independent "cons.quorum_paxos" ~n:3
      { mc with explorer = `Dpor; budget = 50_000 }
  in
  Alcotest.(check bool) "dpor space exhausted" true r.complete

let test_parallel_sampled_explorers () =
  ignore
    (check_domain_independent "cons.broken_validity" ~n:3
       { mc with explorer = `Pct; d = Some 3; budget = 400 });
  ignore
    (check_domain_independent "cons.broken_validity" ~n:2
       { mc with explorer = `Random; budget = 400 })

let test_parallel_cancellation_stress () =
  (* first-counterexample cancellation must never lose a violation that a
     single-domain search reports: sweep seeds so cancellation lands at
     different points relative to the helpers' in-flight runs *)
  List.iter
    (fun seed ->
      let o = { mc with explorer = `Random; budget = 300; seed } in
      let reference =
        search_target "cons.broken_validity" ~n:2 { o with domains = 1 }
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: single-domain search finds the bug" seed)
        true (reference.counterexample <> None);
      Alcotest.check report
        (Printf.sprintf "seed %d: domains=4 reports the same violation" seed)
        reference
        (search_target "cons.broken_validity" ~n:2 { o with domains = 4 }))
    (List.init 12 (fun i -> i + 1))

let test_parallel_sampled_accounting () =
  (* Step/schedule accounting must count the canonical search, not racing
     artifacts: a clean sampled drain reports exactly its budget at every
     domain count. *)
  List.iter
    (fun domains ->
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: schedules == budget" domains)
        300
        (search_target "cons.quorum_paxos" ~n:2
           { mc with explorer = `Random; budget = 300; domains })
          .schedules)
    [ 1; 4 ]

let test_parallel_budget_reaches_crash_patterns () =
  (* The failure-free 2PC space is 7 schedules: with the whole budget
     allowed to one pattern, the search must still move on to the crash
     patterns and find the blocking run, at every domain count. *)
  List.iter
    (fun domains ->
      let r =
        search_target "qcnbac.two_phase_commit" ~n:2
          { mc with budget = 2_000; inner_budget = 2_000; domains }
      in
      Alcotest.(check int)
        (Printf.sprintf "domains=%d: schedules" domains)
        8 r.schedules;
      match r.counterexample with
      | None -> Alcotest.failf "domains=%d: 2PC blocking not found" domains
      | Some c ->
        Alcotest.(check string)
          (Printf.sprintf "domains=%d: counterexample" domains)
          "crashes=0@0;choices="
          (Mc.Schedule.to_string c.Mc.Harness.schedule))
    [ 1; 2 ];
  (* the budget cuts an exhaustive search in the middle of its first
     pattern: every domain count stops at the same schedule *)
  let r = check_domain_independent "regs.abd" ~n:3 { mc with budget = 1_600 } in
  Alcotest.(check bool) "regs.abd n=3 budget-bounded" false r.complete;
  (* the same for DPOR, whose children go right after their parent *)
  let r =
    check_domain_independent "regs.abd" ~n:3
      { mc with explorer = `Dpor; budget = 3_000 }
  in
  Alcotest.(check bool) "dpor regs.abd n=3 budget-bounded" false r.complete

(* Every clause of [validate_opts] rejects its case, and each bound's
   least legal value passes. *)
let test_opts_validation () =
  List.iter
    (fun (what, o) ->
      match Mc.Harness.validate_opts o with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" what)
    [
      ("PCT depth with the exhaustive explorer", { mc with d = Some 3 });
      ("PCT depth with the random explorer", { mc with explorer = `Random; d = Some 2 });
      ("domains=0", { mc with domains = 0 });
      ("budget=0", { mc with budget = 0 });
      ("inner_budget=0", { mc with inner_budget = 0 });
      ("max_crashes=-1", { mc with max_crashes = -1 });
      ("horizon=-1", { mc with horizon = -1 });
      ("stride=0", { mc with stride = 0 });
    ];
  List.iter
    (fun (what, o) ->
      match Mc.Harness.validate_opts o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" what e)
    [
      ("the defaults", mc);
      ("PCT depth with the pct explorer", { mc with explorer = `Pct; d = Some 3 });
      ( "the least legal values",
        {
          mc with
          domains = 1;
          budget = 1;
          inner_budget = 1;
          max_crashes = 0;
          horizon = 0;
          stride = 1;
        } );
    ]

(* ---- dpor: partial-order reduction, identical verdicts -------------- *)

let test_dpor_abd_reduction () =
  let t = Mc.Targets.abd ~n:2 in
  let ex = search `Exhaustive ~budget:50_000 t ~fp:(ff 2) in
  let dp = search `Dpor ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "exhaustive complete" true
    ex.Mc.Crash_adversary.complete;
  Alcotest.(check bool) "dpor complete" true dp.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Crash_adversary.counterexample = None
    && dp.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool)
    (Printf.sprintf "dpor explores >= 3x fewer schedules (%d vs %d)"
       dp.Mc.Crash_adversary.schedules ex.Mc.Crash_adversary.schedules)
    true
    (dp.Mc.Crash_adversary.schedules * 3 <= ex.Mc.Crash_adversary.schedules)

let test_dpor_paxos_parity () =
  let t = Mc.Targets.quorum_paxos ~n:2 in
  let ex = search `Exhaustive ~budget:50_000 t ~fp:(ff 2) in
  let dp = search `Dpor ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "both complete" true
    (ex.Mc.Crash_adversary.complete && dp.Mc.Crash_adversary.complete);
  Alcotest.(check bool)
    "both clean" true
    (ex.Mc.Crash_adversary.counterexample = None
    && dp.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "dpor explores a subset" true
    (dp.Mc.Crash_adversary.schedules <= ex.Mc.Crash_adversary.schedules)

let test_dpor_broken_validity_same_cex () =
  let t = Mc.Targets.broken_validity ~n:2 in
  let ex = search `Exhaustive ~budget:10_000 t ~fp:(ff 2) in
  let dp = search `Dpor ~budget:10_000 t ~fp:(ff 2) in
  match
    (ex.Mc.Crash_adversary.counterexample, dp.Mc.Crash_adversary.counterexample)
  with
  | Some ec, Some dc ->
    Alcotest.(check string)
      "identical violation reason" ec.Mc.Harness.reason dc.Mc.Harness.reason;
    Alcotest.(check bool) "dpor counterexample replays" true
      (Mc.Harness.violates t ~n:2 dc.Mc.Harness.schedule)
  | _ -> Alcotest.fail "planted bug missed by one of the explorers"

let test_dpor_2pc_adversary_parity () =
  let t = Mc.Targets.two_phase_commit ~n:2 in
  let search explorer =
    Mc.Parallel.search ~opts:{ mc with explorer; budget = 50_000 } t ~n:2
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
     which disables the reduction's soundness precondition: DPOR must be
     exactly the exhaustive search — same schedules, steps, pruned runs
     and verdict — under every failure pattern of the default crash
     adversary at n = 2 and n = 3. *)
  List.iter
    (fun n ->
      let t = Mc.Targets.qc_psi ~n in
      List.iter
        (fun fp ->
          let ex = search `Exhaustive ~budget:10_000 t ~fp in
          let dp = search `Dpor ~budget:10_000 t ~fp in
          let counts (r : Mc.Crash_adversary.report) =
            [ r.schedules; r.steps; r.pruned ]
          in
          let name = Format.asprintf "n=%d %a" n Sim.Failure_pattern.pp fp in
          Alcotest.(check (list int))
            (name ^ ": schedules, steps, pruned")
            (counts ex) (counts dp);
          Alcotest.(check bool)
            (name ^ ": exhausted, no violation")
            true
            (ex.complete && dp.complete && ex.counterexample = None
            && dp.counterexample = None))
        (Mc.Crash_adversary.patterns ~n ~max_crashes:mc.max_crashes
           ~horizon:mc.horizon ~stride:mc.stride))
    [ 2; 3 ]

(* DPOR's race analysis resumes with its run.  For each time-invariant
   target at n = 3 under one crash (the leader at time 10): record a
   seeded random run with the analysis state at every round boundary,
   resume it from each boundary with the choices made after it, and
   compare the resumed run's requests with the from-zero run's requests
   at those choices. *)
let test_dpor_resumed_analysis () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (0, 10) ] in
  List.iter
    (fun (name, Mc.Targets.Packed t) ->
      if t.Mc.Harness.time_invariant_fd then begin
        let sched, consumed =
          Sim.Scheduler.counting (Sim.Scheduler.random (Sim.Rng.make 3))
        in
        let bounds = ref [] in
        let save b = bounds := (consumed (), b) :: !bounds in
        let run =
          Mc.Dpor.run ~seed:1 ~round_hook:(fun ~now:_ ~digest:_ ~steps:_ -> true)
        in
        let full, requests = run ~save t ~fp sched in
        Alcotest.(check bool) (name ^ ": several rounds") true
          (List.length !bounds >= 3);
        List.iter
          (fun (c, b) ->
            let after =
              List.filteri (fun i _ -> i >= c) full.Mc.Harness.choices
            in
            let _, resumed =
              run ~resume:b t ~fp
                (Sim.Scheduler.replay after ~rest:Sim.Scheduler.first)
            in
            Alcotest.(check (list (pair int int)))
              (Printf.sprintf "%s resumed after %d choices" name c)
              (List.filter (fun (g, _) -> g >= c) requests)
              resumed)
          (List.rev !bounds)
      end)
    (Mc.Targets.all ~n:3)

(* Soundness of the independence relation, property-style: for random
   (target, failure pattern) configurations, DPOR and exhaustive search
   must agree on completeness and verdict, and DPOR must never explore
   more schedules of a clean space.  A search that found a violation
   ended there, so it is judged like a complete one, but not by its
   schedule count: where a search stops depends on its list order
   (exhaustive appends at the tail, DPOR goes depth-first).  A reduction
   that swapped two dependent steps would show up here as a verdict
   mismatch. *)
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
        let ex = search `Exhaustive ~budget:2_000 ~shrink:false t ~fp in
        let dp = search `Dpor ~budget:2_000 ~shrink:false t ~fp in
        let settled (r : Mc.Crash_adversary.report) =
          r.complete || r.counterexample <> None
        in
        if settled ex then
          settled dp
          && (ex.Mc.Crash_adversary.counterexample = None)
             = (dp.Mc.Crash_adversary.counterexample = None)
          && (ex.Mc.Crash_adversary.counterexample <> None
             || dp.Mc.Crash_adversary.schedules
                <= ex.Mc.Crash_adversary.schedules)
        else true)

(* ---- the production net stack, model-checked ------------------------ *)

let test_net_raw_reorder_caught_and_shrunk () =
  (* positive control: without an ARQ the reordering hub violates the
     link axiom, and the harness finds, shrinks and replays it *)
  let t = Mc.Net_targets.seq_raw_reorder ~n:2 ~m:2 in
  let r = Mc.Net_harness.search ~budget:2_000 t in
  match r.Mc.Crash_adversary.counterexample with
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
  match r.Mc.Crash_adversary.counterexample with
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
  Alcotest.(check bool) "space exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "no violation in any schedule" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 100)

let test_net_abd_over_node_rel_linearizable () =
  (* the paper's register algorithm through the real wire path: Node main
     loop, marshal codec, Rel ARQ, a dropped frame forcing a resend *)
  let t = Mc.Net_targets.abd_rel ~n:2 in
  let r = Mc.Net_harness.search ~budget:20_000 t in
  Alcotest.(check bool) "space exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "linearizable in every schedule" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 1_000)

(* ---- the eventually-consistent store -------------------------------- *)

let test_ec_store_exhausted () =
  (* two replicas write the same key concurrently; every delivery
     schedule must drain to equal fingerprints *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r = search `Exhaustive ~budget:50_000 t ~fp:(ff 2) in
  Alcotest.(check bool) "space exhausted" true r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "every schedule converges" true
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "explored more than one schedule" true
    (r.Mc.Crash_adversary.schedules > 1)

let test_ec_store_crash_adversary () =
  (* a crashed replica's write may be lost, but the survivors must still
     agree among themselves — crash runs never quiesce (the survivors
     keep backed-off digesting the corpse), so this also exercises the
     step-bound liveness deadline *)
  let t = Mc.Targets.ec_store ~n:2 in
  let r = Mc.Parallel.search ~opts:mc t ~n:2 in
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
    Mc.Parallel.search
      ~opts:{ mc with budget = 200_000; inner_budget = 100_000 }
      t ~n:3
  in
  Alcotest.(check bool) "all patterns exhausted" true
    r.Mc.Crash_adversary.complete;
  Alcotest.(check bool)
    "leader agreement under every crash" true
    (r.Mc.Crash_adversary.counterexample = None);
  (* the counts the mc_ring_sweep benchmark workload pins *)
  Alcotest.(check (list int))
    "schedules, steps" [ 55_609; 1_576_160 ]
    [ r.Mc.Crash_adversary.schedules; r.Mc.Crash_adversary.steps ]

let test_fd_ring_dpor_parity () =
  (* DPOR must reach the same (clean) verdict on a much smaller schedule
     set — the ring's point-to-point heartbeats commute aggressively *)
  let t = Mc.Targets.fd_ring ~n:3 in
  let r =
    Mc.Parallel.search
      ~opts:
        { mc with explorer = `Dpor; budget = 200_000; inner_budget = 100_000 }
      t ~n:3
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
    (r.Mc.Crash_adversary.counterexample = None);
  Alcotest.(check bool) "nontrivial exploration" true
    (r.Mc.Crash_adversary.schedules > 100)

let test_net_ec_no_sync_caught () =
  (* positive control: with anti-entropy off the writes never propagate
     and the checker reports divergent stores on the first schedule *)
  let t = Mc.Net_targets.ec_no_sync ~n:3 in
  let r = Mc.Net_harness.search ~budget:1_000 t in
  match r.Mc.Crash_adversary.counterexample with
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
let check_counts name (r : Mc.Crash_adversary.report) ~schedules ~pruned
    ~steps =
  Alcotest.(check bool) (name ^ ": complete") true r.complete;
  Alcotest.(check bool) (name ^ ": clean") true (r.counterexample = None);
  Alcotest.(check (list int))
    (name ^ ": schedules, pruned, steps")
    [ schedules; pruned; steps ]
    [ r.schedules; r.pruned; r.steps ]

let test_pinned_explorer_counts () =
  let ring = Mc.Targets.fd_ring ~n:3 in
  check_counts "exhaustive fd.ring n=3 failure-free"
    (search `Exhaustive ~budget:100_000 ring ~fp:(ff 3))
    ~schedules:6 ~pruned:0 ~steps:18;
  check_counts "exhaustive fd.ring n=3 crashes=0@0"
    (search `Exhaustive ~budget:100_000 ring
       ~fp:(Sim.Failure_pattern.make ~n:3 [ (0, 0) ]))
    ~schedules:2_272 ~pruned:2_020 ~steps:58_528;
  check_counts "dpor regs.abd n=2"
    (search `Dpor ~budget:50_000 (Mc.Targets.abd ~n:2) ~fp:(ff 2))
    ~schedules:34 ~pruned:10 ~steps:1_027;
  check_counts "net-harness abd over node+rel n=2"
    (Mc.Net_harness.search ~budget:20_000 (Mc.Net_targets.abd_rel ~n:2))
    ~schedules:6_593 ~pruned:6_577 ~steps:165_802

(* DPOR's schedules, pruned runs, steps and verdict under each default
   crash pattern at n = 2, in [Crash_adversary.patterns] order: failure-
   free, then p0 and p1 crashing at times 0, 2 and 4.  Every
   time-invariant target has a row. *)
let dpor_pins =
  [
    ( "cons.quorum_paxos",
      [ (10, 6, 118, false); (1, 0, 5, false); (2, 0, 13, false);
        (3, 1, 21, false); (1, 0, 5, false); (2, 0, 13, false);
        (3, 1, 22, false) ] );
    ( "cons.broken_validity",
      [ (1, 0, 13, true); (1, 0, 5, false); (2, 0, 13, false);
        (3, 1, 21, false); (1, 0, 5, true); (1, 0, 7, true); (1, 0, 8, true) ]
    );
    ( "regs.abd",
      [ (34, 10, 1_027, false); (1, 0, 9, false); (2, 0, 22, false);
        (2, 0, 24, false); (1, 0, 9, false); (2, 0, 22, false);
        (2, 0, 24, false) ] );
    ( "qcnbac.two_phase_commit",
      [ (4, 0, 24, false); (1, 0, 2, true); (1, 0, 3, true); (1, 0, 4, true);
        (1, 0, 2, true); (2, 0, 7, false); (3, 0, 12, false) ] );
    ( "ec.store",
      [ (18, 0, 264, false); (1, 0, 3, false); (2, 0, 8, false);
        (4, 0, 24, false); (1, 0, 3, false); (2, 0, 8, false);
        (4, 0, 24, false) ] );
    ( "fd.ring",
      [ (2, 0, 4, false); (1, 0, 32, false); (2, 0, 64, false);
        (4, 0, 128, false); (1, 0, 1, false); (2, 0, 3, false);
        (2, 0, 3, false) ] );
  ]

let test_pinned_dpor_counts () =
  let fps =
    Mc.Crash_adversary.patterns ~n:2 ~max_crashes:mc.max_crashes
      ~horizon:mc.horizon ~stride:mc.stride
  in
  List.iter
    (fun (name, Mc.Targets.Packed t) ->
      if t.Mc.Harness.time_invariant_fd then
        match List.assoc_opt name dpor_pins with
        | None -> Alcotest.failf "%s: no pinned DPOR counts" name
        | Some pins ->
          List.iter2
            (fun fp (schedules, pruned, steps, violation) ->
              let r = search `Dpor ~shrink:false t ~fp in
              let at =
                Format.asprintf "dpor %s %a" name Sim.Failure_pattern.pp fp
              in
              Alcotest.(check (list int))
                (at ^ ": schedules, pruned, steps")
                [ schedules; pruned; steps ]
                [ r.schedules; r.pruned; r.steps ];
              Alcotest.(check bool)
                (at ^ ": violation") violation (r.counterexample <> None);
              Alcotest.(check bool)
                (at ^ ": complete") (not violation) r.complete)
            fps pins)
    (Mc.Targets.all ~n:2);
  check_counts "dpor cons.quorum_paxos n=3 crashes=0@2"
    (search `Dpor ~shrink:false (Mc.Targets.quorum_paxos ~n:3)
       ~fp:(Sim.Failure_pattern.make ~n:3 [ (0, 2) ]))
    ~schedules:37 ~pruned:12 ~steps:523

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
          Alcotest.test_case "sampled accounting == budget" `Quick
            test_parallel_sampled_accounting;
          Alcotest.test_case "budget reaches the crash patterns" `Quick
            test_parallel_budget_reaches_crash_patterns;
          Alcotest.test_case "opts validation" `Quick test_opts_validation;
          Alcotest.test_case "lookup, scenario search, replay" `Quick
            test_registry_scenario_replay;
          Alcotest.test_case "lookup builds only the named target" `Quick
            test_registry_find;
          Alcotest.test_case "every target resumes from round snapshots"
            `Quick test_resume_every_target;
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
          Alcotest.test_case "resumed analysis matches the run from time 0"
            `Quick test_dpor_resumed_analysis;
          QCheck_alcotest.to_alcotest prop_dpor_verdict_parity;
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
          Alcotest.test_case "dpor counts" `Quick test_pinned_dpor_counts;
        ] );
    ]
