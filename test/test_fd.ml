(* Tests for the failure detector library: every oracle must generate
   histories that its own spec checker accepts, across randomized failure
   patterns; a control table of hand-built output streams pins every
   clause of the four specs; the emulated detectors must converge to
   spec-conforming behaviour in the environments where the paper says
   they exist. *)

let sample_fp ?(env = Sim.Environment.any) ~seed ~n () =
  Sim.Environment.sample env ~n ~horizon:40 (Sim.Rng.make seed)

let check_ok name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let horizon = 400

let test_omega_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    check_ok "omega" (Fd.Omega.check fp ~horizon h)
  done

let test_omega_fixed () =
  let fp = Sim.Failure_pattern.make ~n:4 [ (0, 5) ] in
  let h =
    Fd.Oracle.history (Fd.Omega.oracle_with ~leader:2 ~stabilize_at:30) fp
      ~seed:3
  in
  check_ok "omega fixed" (Fd.Omega.check fp ~horizon h);
  Alcotest.(check int) "leader after stab" 2 (h 1 31)

let test_omega_fixed_rejects_faulty_leader () =
  let fp = Sim.Failure_pattern.make ~n:4 [ (2, 5) ] in
  Alcotest.(check bool) "faulty leader rejected" true
    (try
       let (_ : Fd.Omega.output Fd.Oracle.history) =
         Fd.Oracle.history
           (Fd.Omega.oracle_with ~leader:2 ~stabilize_at:30)
           fp ~seed:3
       in
       false
     with Invalid_argument _ -> true)

let test_sigma_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Sigma.oracle fp ~seed in
    let samples = Fd.Sigma.sample_history fp ~horizon:120 h in
    check_ok "sigma" (Fd.Sigma.check fp samples)
  done

let test_sigma_majority_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~env:Sim.Environment.majority_correct ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Sigma.oracle_majority fp ~seed in
    let samples = Fd.Sigma.sample_history fp ~horizon:120 h in
    check_ok "sigma-majority" (Fd.Sigma.check fp samples)
  done

let test_sigma_majority_rejects_minority () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 1); (1, 1); (2, 1) ] in
  Alcotest.(check bool) "minority-correct rejected" true
    (try
       let (_ : Fd.Sigma.output Fd.Oracle.history) =
         Fd.Oracle.history Fd.Sigma.oracle_majority fp ~seed:1
       in
       false
     with Invalid_argument _ -> true)

let test_fs_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Fs.oracle fp ~seed in
    check_ok "fs" (Fd.Fs.check fp ~horizon h)
  done

let test_fs_failure_free_stays_green () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let h = Fd.Oracle.history Fd.Fs.oracle fp ~seed:5 in
  for t = 0 to 100 do
    List.iter
      (fun p ->
        match h p t with
        | Fd.Fs.Green -> ()
        | Fd.Fs.Red -> Alcotest.fail "red without failure")
      (Sim.Pid.all 3)
  done

let test_psi_oracle () =
  for seed = 1 to 60 do
    let fp = sample_fp ~seed ~n:4 () in
    let h = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
    check_ok "psi" (Fd.Psi.check fp ~horizon h)
  done

let test_psi_forced_modes () =
  let fp = Sim.Failure_pattern.make ~n:4 [ (1, 10) ] in
  let h_fs =
    Fd.Oracle.history (Fd.Psi.oracle_forced Fd.Psi.Failure_mode) fp ~seed:2
  in
  check_ok "psi fs-mode" (Fd.Psi.check fp ~horizon h_fs);
  let h_cons =
    Fd.Oracle.history (Fd.Psi.oracle_forced Fd.Psi.Consensus_mode) fp ~seed:2
  in
  check_ok "psi cons-mode" (Fd.Psi.check fp ~horizon h_cons)

let test_psi_failure_mode_needs_failure () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  Alcotest.(check bool) "fs mode without failure rejected" true
    (try
       let (_ : Fd.Psi.output Fd.Oracle.history) =
         Fd.Oracle.history (Fd.Psi.oracle_forced Fd.Psi.Failure_mode) fp
           ~seed:1
       in
       false
     with Invalid_argument _ -> true)

let test_perfect_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Suspects.perfect fp ~seed in
    check_ok "P" (Fd.Suspects.check_perfect fp ~horizon h)
  done

let test_eventually_strong_oracle () =
  for seed = 1 to 40 do
    let fp = sample_fp ~seed ~n:5 () in
    let h = Fd.Oracle.history Fd.Suspects.eventually_strong fp ~seed in
    check_ok "<>S" (Fd.Suspects.check_eventually_strong fp ~horizon h)
  done

let test_product_oracle () =
  let fp = Sim.Failure_pattern.make ~n:4 [ (3, 7) ] in
  let prod = Fd.Oracle.product Fd.Omega.oracle Fd.Sigma.oracle in
  Alcotest.(check string) "name" "(Omega,Sigma)" (Fd.Oracle.name prod);
  let h = Fd.Oracle.history prod fp ~seed:9 in
  let omega_part p t = fst (h p t) in
  let sigma_part p t = snd (h p t) in
  check_ok "product omega" (Fd.Omega.check fp ~horizon omega_part);
  check_ok "product sigma"
    (Fd.Sigma.check fp (Fd.Sigma.sample_history fp ~horizon:120 sigma_part))

let test_fs_lazy_oracle () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (1, 40) ] in
  let h = Fd.Oracle.history (Fd.Fs.oracle_lazy ~lag:25) fp ~seed:2 in
  check_ok "fs lazy" (Fd.Fs.check fp ~horizon h);
  Alcotest.(check bool) "green just before switch" true
    (Fd.Fs.equal_output (h 0 64) Fd.Fs.Green);
  Alcotest.(check bool) "red at switch" true
    (Fd.Fs.equal_output (h 0 65) Fd.Fs.Red)

let test_eventually_perfect_violates_perfect_spec () =
  (* ◇P's pre-stabilization noise must be caught by the *perfect* checker:
     a negative control showing the checkers separate the classes. *)
  let found_violation = ref false in
  for seed = 1 to 20 do
    let fp = Sim.Failure_pattern.make ~n:4 [ (0, 200) ] in
    let h = Fd.Oracle.history Fd.Suspects.eventually_perfect fp ~seed in
    match Fd.Suspects.check_perfect fp ~horizon h with
    | Error _ -> found_violation := true
    | Ok () -> ()
  done;
  Alcotest.(check bool) "<>P noise caught by P checker" true !found_violation

let test_oracle_const_and_map () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let c = Fd.Oracle.const ~name:"c" 42 in
  let h = Fd.Oracle.history c fp ~seed:1 in
  Alcotest.(check int) "const" 42 (h 2 77);
  let doubled = Fd.Oracle.map ~name:"d" (fun x -> x * 2) c in
  let h2 = Fd.Oracle.history doubled fp ~seed:1 in
  Alcotest.(check int) "map" 84 (h2 0 0);
  Alcotest.(check string) "names" "d" (Fd.Oracle.name doubled)

(* --- The control table ------------------------------------------------- *)

(* Each row is a hand-built output stream, a failure pattern and a
   horizon, judged by one detector's spec (Ω, FS and Ψ read the stream
   through Fd.Oracle.of_outputs); it names the error the spec must
   report, or passes.  Deleting any clause of a spec fails a row. *)
type control = {
  spec : string;  (** the test group: omega, sigma, fs or psi *)
  name : string;
  fp : Sim.Failure_pattern.t;
  horizon : int;
  judge : Sim.Failure_pattern.t -> horizon:int -> (unit, string) result;
  convicts : string option;  (** the error text; [None]: the row passes *)
}

let ev pid time value = { Sim.Trace.time; pid; value }
let at time pids value = List.map (fun p -> ev p time value) pids
let q = Sim.Pidset.of_list

let omega ~init events fp ~horizon =
  Fd.Omega.check fp ~horizon (Fd.Oracle.of_outputs ~init events)

let fs events fp ~horizon =
  Fd.Fs.check fp ~horizon (Fd.Oracle.of_outputs ~init:Fd.Fs.Green events)

let psi events fp ~horizon =
  Fd.Psi.check fp ~horizon (Fd.Oracle.of_outputs ~init:Fd.Psi.Bot events)

let sigma events fp ~horizon:_ = Fd.Sigma.check fp events
let sigma_safety events _ ~horizon:_ = Fd.Sigma.safety events

let controls =
  let ff = Sim.Failure_pattern.failure_free in
  let crash n p t = Sim.Failure_pattern.make ~n [ (p, t) ] in
  let row ?(horizon = 100) ?convicts spec name fp judge =
    { spec; name; fp; horizon; judge; convicts }
  in
  let cons l ps = Fd.Psi.Cons_mode (l, q ps) in
  let red = Fd.Psi.Fs_mode Fd.Fs.Red in
  let disjoint =
    "intersection violated: p0@0 output {p0,p1} vs p1@5 output {p2,p3}"
  in
  [
    (* Ω *)
    row "omega" "checker catches a faulty final leader" (crash 3 0 5)
      (omega ~init:1 (at 0 [ 0; 1; 2 ] 0))
      ~convicts:"final output p0 is not a correct process";
    row "omega" "checker catches disagreement at the horizon" (crash 3 0 5)
      (omega ~init:0 [ ev 1 0 1; ev 2 0 2 ])
      ~convicts:"correct processes disagree at the horizon";
    (* the latest output at the horizon is the one with the latest time,
       wherever it stands in the list *)
    row "omega" "adapter: events out of time order" (crash 3 2 5)
      (omega ~init:2 [ ev 0 90 0; ev 0 10 2; ev 1 90 0; ev 1 10 2 ]);
    (* Σ *)
    row "sigma" "safety catches disjoint" (ff 4)
      (sigma_safety [ ev 0 0 (q [ 0; 1 ]); ev 1 5 (q [ 2; 3 ]) ])
      ~convicts:disjoint;
    row "sigma" "checker catches disjoint" (ff 4)
      (sigma [ ev 0 0 (q [ 0; 1 ]); ev 1 5 (q [ 2; 3 ]) ])
      ~convicts:disjoint;
    row "sigma" "checker catches faulty suffix" (crash 3 2 0)
      (sigma [ ev 0 100 (q [ 2 ]) ])
      ~convicts:
        "completeness violated: p0's last sample (t=100) {p2} contains faulty \
         processes";
    (* E5's shape: majorities that intersect but name crashed processes *)
    row "sigma" "checker catches a stale quorum, minority correct"
      (Sim.Failure_pattern.make ~n:5 [ (0, 40); (1, 40); (2, 40) ])
      (sigma
         [ ev 3 10 (q [ 0; 1; 3 ]); ev 4 20 (q [ 0; 1; 4 ]);
           ev 3 90 (q [ 0; 1; 3 ]) ])
      ~convicts:
        "completeness violated: p3's last sample (t=90) {p0,p1,p3} contains \
         faulty processes";
    (* FS *)
    row "fs" "checker catches early red" (crash 3 0 50)
      (fs (at 10 [ 0; 1; 2 ] Fd.Fs.Red))
      ~convicts:"accuracy violated: p0 red at t=10 with no prior crash";
    row "fs" "checker catches missing red" (crash 3 0 5)
      (fs (at 0 [ 0; 1; 2 ] Fd.Fs.Green))
      ~convicts:
        "completeness violated: correct p1 still green at horizon 100 despite \
         a failure";
    (* red at the crash time itself is accurate *)
    row "fs" "checker passes red after a crash" (crash 3 0 50)
      (fs
         (at 0 [ 0; 1; 2 ] Fd.Fs.Green
         @ [ ev 1 50 Fd.Fs.Red; ev 2 70 Fd.Fs.Red ]));
    row "fs" "checker passes failure-free green" (ff 3)
      (fs (at 0 [ 0; 1; 2 ] Fd.Fs.Green));
    (* red is read from its time on: green, the init, before *)
    row "fs" "adapter: init before the first output" (crash 3 0 50)
      (fs [ ev 1 60 Fd.Fs.Red; ev 2 60 Fd.Fs.Red ]);
    (* Ψ *)
    row "psi" "checker catches red without a failure" (ff 3)
      (psi (at 10 [ 0; 1; 2 ] red))
      ~convicts:"FS mode without any failure";
    (* Figure 3's stream under crash 1@300: red from the first round *)
    row "psi" "checker catches FS before the first crash" (crash 3 1 300)
      ~horizon:660
      (psi
         (at 220 [ 0; 1; 2 ] red @ at 440 [ 0; 2 ] red @ at 660 [ 0; 2 ] red))
      ~convicts:"p0 switched to FS at t=220 before the first crash (t=300)";
    row "psi" "checker catches disjoint quorums" (ff 4)
      (psi
         (at 10 [ 0; 1 ] (cons 0 [ 0; 1 ]) @ at 10 [ 2; 3 ] (cons 0 [ 2; 3 ])))
      ~convicts:
        "intersection violated: p0@10 output {p0,p1} vs p2@10 output {p2,p3}";
    row "psi" "checker catches a faulty final leader" (crash 3 2 5)
      (psi (at 10 [ 0; 1; 2 ] (cons 2 [ 0; 1 ])))
      ~convicts:"eventual leader p2 is faulty";
    row "psi" "checker catches different final leaders" (ff 3)
      (psi
         [ ev 0 10 (cons 0 [ 0; 1 ]); ev 1 10 (cons 1 [ 0; 1 ]);
           ev 2 10 (cons 0 [ 0; 1 ]) ])
      ~convicts:"correct processes disagree on the leader";
    row "psi" "checker catches a faulty process in a final quorum" (crash 3 2 5)
      (psi (at 10 [ 0; 1 ] (cons 0 [ 0; 2 ])))
      ~convicts:
        "completeness violated: p0's last sample (t=100) {p0,p2} contains \
         faulty processes";
    row "psi" "checker catches mode mixing" (crash 2 1 0)
      (psi [ ev 0 5 red; ev 1 5 (cons 0 [ 0 ]) ])
      ~convicts:"processes switched to different modes";
    row "psi" "checker catches ⊥ relapse" (ff 2)
      (psi
         (at 0 [ 0; 1 ] (cons 0 [ 0 ]) @ at 3 [ 0; 1 ] Fd.Psi.Bot
         @ at 4 [ 0; 1 ] (cons 0 [ 0 ])))
      ~convicts:"p0 output ⊥ at t=3 after switching";
    row "psi" "checker catches one process in both modes" (crash 2 1 0)
      (psi [ ev 0 5 red; ev 0 6 (cons 0 [ 0 ]) ])
      ~convicts:"p0 mixed FS and (Ω,Σ) outputs";
    row "psi" "checker catches no switch" (ff 2) (psi [])
      ~convicts:"no process switched within the horizon";
    row "psi" "checker catches green at the horizon in FS mode" (crash 3 0 50)
      (psi (at 60 [ 1; 2 ] (Fd.Psi.Fs_mode Fd.Fs.Green) @ [ ev 1 70 red ]))
      ~convicts:
        "completeness violated: correct p2 still green at horizon 100 despite \
         a failure";
    row "psi" "checker catches no (Ω,Σ) output at the horizon" (crash 3 2 50)
      (psi [ ev 2 10 (cons 0 [ 0; 1 ]) ])
      ~convicts:"no (Ω,Σ) samples at the horizon";
    (* Figure 3's (Ω, Σ) stream: one output per live process per round *)
    row "psi" "checker passes an extraction-shaped (Ω,Σ) stream"
      (crash 3 2 100) ~horizon:660
      (psi
         (at 220 [ 0; 1 ] (cons 0 [ 0; 1; 2 ])
         @ at 440 [ 0; 1 ] (cons 0 [ 0; 1 ])
         @ at 660 [ 0; 1 ] (cons 0 [ 0; 1 ])));
  ]

let judge_control c () =
  match (c.judge c.fp ~horizon:c.horizon, c.convicts) with
  | Ok (), None -> ()
  | Ok (), Some e -> Alcotest.failf "accepted; expected %S" e
  | Error e, None -> Alcotest.failf "rejected: %s" e
  | Error e, Some expected -> Alcotest.(check string) "error" expected e

let control_cases spec =
  List.filter_map
    (fun c ->
      if c.spec = spec then
        Some (Alcotest.test_case c.name `Quick (judge_control c))
      else None)
    controls

(* --- Emulated detectors ------------------------------------------------ *)

(* Run an emulated detector with a trivial main protocol that just records
   the fd value it sees at each step, via outputs. *)
let observer :
    (unit, unit, 'fd, unit, 'fd) Sim.Protocol.t =
  {
    init = (fun ~n:_ _ -> ());
    on_step = (fun ctx () _ -> ((), [ Sim.Protocol.Output ctx.fd ]));
    on_input = Sim.Protocol.no_input;
  }

let test_sigma_majority_emulation () =
  (* 5 processes, 2 crash: majority correct, so the join-quorum protocol
     implements Σ, continuous or paced at 16 steps.  Every two sampled
     quorums must intersect and the last quorum of each correct process
     must contain only correct processes. *)
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40); (1, 80) ] in
  List.iter
    (fun (name, det) ->
      let layered = Sim.Layered.with_detector det observer in
      let cfg =
        Sim.Engine.config ~max_steps:6_000
          ~policy:(Sim.Network.Random_delay { max_delay = 4; lambda_prob = 0.2 })
          ~fd:(fun _ _ -> ())
          ~detect_quiescence:false fp
      in
      let trace = Sim.Engine.run cfg layered in
      check_ok name
        (Fd.Sigma.check fp trace.outputs))
    [
      ("emulated sigma", Fd.Emulated.Sigma_majority.detector);
      ( "emulated sigma, paced 16",
        Fd.Emulated.Sigma_majority.detector_paced ~period:16 );
    ]

let test_omega_heartbeat_emulation () =
  (* Under partial synchrony, the heartbeat Ω must stabilize on a single
     correct leader at all correct processes. *)
  let fp = Sim.Failure_pattern.make ~n:4 [ (0, 100) ] in
  let layered =
    Sim.Layered.with_detector
      (Fd.Emulated.Omega_heartbeat.detector ~period:4)
      observer
  in
  let cfg =
    Sim.Engine.config ~max_steps:12_000
      ~policy:(Sim.Network.Partial_synchrony { gst = 200; delta = 2 })
      ~fd:(fun _ _ -> ())
      ~detect_quiescence:false fp
  in
  let trace = Sim.Engine.run cfg layered in
  check_ok "heartbeat omega"
    (Fd.Omega.check fp ~horizon:trace.Sim.Trace.ticks
       (Fd.Oracle.of_outputs ~init:0 trace.outputs))

(* Σ staleness sweep: with only a minority correct, every majority quorum
   contains a process that is going to crash, and once the crashes land no
   join-quorum round can ever complete again — the output freezes on a
   quorum polluted by crashed processes.  This is the environment where Σ
   is *not* implementable ex nihilo, observed from the implementation
   side.  Swept over seeds and crash times; the frozen-rounds check uses
   engine determinism (a longer run extends the shorter one exactly). *)
let test_sigma_staleness_minority_correct () =
  let layered =
    Sim.Layered.with_detector Fd.Emulated.Sigma_majority.detector observer
  in
  List.iter
    (fun (seed, t0) ->
      let crashes = [ (2, t0); (3, t0 + 20); (4, t0 + 40) ] in
      let fp = Sim.Failure_pattern.make ~n:5 crashes in
      let run max_steps =
        let cfg =
          Sim.Engine.config ~seed ~max_steps
            ~policy:(Sim.Network.Random_delay { max_delay = 4; lambda_prob = 0.2 })
            ~fd:(fun _ _ -> ())
            ~detect_quiescence:false fp
        in
        Sim.Engine.run cfg layered
      in
      let short = run 4_000 in
      let long = run 12_000 in
      let rounds (trace : _ Sim.Trace.t) p =
        Fd.Emulated.Sigma_majority.rounds (fst trace.Sim.Trace.final_states.(p))
      in
      let crashed = Sim.Pidset.of_list (List.map fst crashes) in
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: rounds frozen after the crashes (pid %d)"
               seed p)
            (rounds short p) (rounds long p);
          let quorum =
            Fd.Emulated.Sigma_majority.detector.Sim.Layered.current
              (fst long.Sim.Trace.final_states.(p))
          in
          Alcotest.(check bool)
            (Printf.sprintf
               "seed %d: the stale quorum contains a crashed process (pid %d)"
               seed p)
            true
            (Sim.Pidset.intersects quorum crashed))
        [ 0; 1 ])
    [ (1, 60); (2, 60); (3, 100); (4, 140); (5, 100) ]

(* Control for the sweep above: with a majority correct the join-quorum
   rounds never stop. *)
let test_sigma_rounds_keep_completing_majority_correct () =
  let layered =
    Sim.Layered.with_detector Fd.Emulated.Sigma_majority.detector observer
  in
  List.iter
    (fun seed ->
      let fp = Sim.Failure_pattern.make ~n:5 [ (3, 60); (4, 100) ] in
      let run max_steps =
        let cfg =
          Sim.Engine.config ~seed ~max_steps
            ~policy:(Sim.Network.Random_delay { max_delay = 4; lambda_prob = 0.2 })
            ~fd:(fun _ _ -> ())
            ~detect_quiescence:false fp
        in
        Sim.Engine.run cfg layered
      in
      let short = run 4_000 in
      let long = run 12_000 in
      let rounds (trace : _ Sim.Trace.t) p =
        Fd.Emulated.Sigma_majority.rounds (fst trace.Sim.Trace.final_states.(p))
      in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: rounds keep completing (pid %d)" seed p)
            true
            (rounds long p > rounds short p))
        [ 0; 1; 2 ])
    [ 1; 2; 3 ]

(* Ω sweep under partial synchrony: before GST the adversary may delay
   heartbeats up to 4δ, provoking false suspicions; each one grows the
   wrongly-suspected process's timeout.  After GST delays are bounded by
   δ, so the grown timeouts stop being violated and every correct process
   converges on the smallest correct process.  Swept over seeds: every
   run must converge, and across the sweep at least one run must have
   actually exercised the adaptation (a timeout grown beyond its initial
   4·period) — otherwise the test proves nothing about repair. *)
let test_omega_adaptation_and_post_gst_convergence () =
  let period = 4 in
  let adapted = ref false in
  List.iter
    (fun seed ->
      let fp = Sim.Failure_pattern.make ~n:4 [ (0, 150) ] in
      let layered =
        Sim.Layered.with_detector
          (Fd.Emulated.Omega_heartbeat.detector ~period)
          observer
      in
      let gst = 400 in
      let cfg =
        Sim.Engine.config ~seed ~max_steps:16_000
          ~policy:(Sim.Network.Partial_synchrony { gst; delta = 16 })
          ~fd:(fun _ _ -> ())
          ~detect_quiescence:false fp
      in
      let trace = Sim.Engine.run cfg layered in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let min_correct = List.fold_left min max_int correct in
      List.iter
        (fun p ->
          (* stabilization: one constant, correct leader over the whole
             second half of the run *)
          let half = trace.Sim.Trace.ticks / 2 in
          let late =
            List.filter_map
              (fun (e : _ Sim.Trace.event) ->
                if Sim.Pid.equal e.pid p && e.time >= half then Some e.value
                else None)
              trace.Sim.Trace.outputs
          in
          (match List.sort_uniq compare late with
          | [ l ] ->
            Alcotest.(check int)
              (Printf.sprintf
                 "seed %d: pid %d settles on the smallest correct process"
                 seed p)
              min_correct l
          | ls ->
            Alcotest.failf "seed %d: pid %d saw %d late leaders" seed p
              (List.length ls));
          (* a node never hears its own heartbeat: adaptation is about
             its peers *)
          let om = fst trace.Sim.Trace.final_states.(p) in
          if
            List.exists
              (fun q ->
                q <> p
                && Fd.Emulated.Omega_heartbeat.timeout om q > 4 * period)
              correct
          then adapted := true)
        correct)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    "at least one sweep run exercised timeout adaptation" true !adapted

(* Ω-EC: the heartbeat Ω extended with an epoch that bumps exactly when
   the local leader estimate changes.  Under partial synchrony it must
   stabilize like Ω (single correct leader, epochs stop moving), and the
   sampled (leader, epoch) stream must satisfy the epoch contract
   step-by-step. *)
let test_omega_ec_emulation () =
  let fp = Sim.Failure_pattern.make ~n:4 [ (0, 100) ] in
  let layered =
    Sim.Layered.with_detector (Fd.Emulated.Omega_ec.detector ~period:4)
      observer
  in
  let cfg =
    Sim.Engine.config ~max_steps:12_000
      ~policy:(Sim.Network.Partial_synchrony { gst = 200; delta = 2 })
      ~fd:(fun _ _ -> ())
      ~detect_quiescence:false fp
  in
  let trace = Sim.Engine.run cfg layered in
  let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
  List.iter
    (fun p ->
      let outs =
        List.filter_map
          (fun (e : _ Sim.Trace.event) ->
            if Sim.Pid.equal e.pid p then Some e.value else None)
          trace.Sim.Trace.outputs
      in
      (* Sampled at app steps, so a flap can hide between two samples; the
         sampling-safe contract is: epochs never go back, and a visible
         leader change is always accompanied by a strict epoch increase. *)
      ignore
        (List.fold_left
           (fun prev (l, e) ->
             (match prev with
             | None -> ()
             | Some (pl, pe) ->
               Alcotest.(check bool)
                 (Printf.sprintf "pid %d: epoch nondecreasing" p)
                 true (e >= pe);
               if not (Sim.Pid.equal l pl) then
                 Alcotest.(check bool)
                   (Printf.sprintf "pid %d: leader change bumps the epoch" p)
                   true (e > pe));
             Some (l, e))
           None outs);
      (* stabilization: constant correct leader over the second half *)
      let half = trace.Sim.Trace.ticks / 2 in
      let late =
        List.filter_map
          (fun (e : _ Sim.Trace.event) ->
            if Sim.Pid.equal e.pid p && e.time >= half then Some e.value
            else None)
          trace.Sim.Trace.outputs
      in
      match List.sort_uniq compare late with
      | [ (l, _) ] ->
        Alcotest.(check bool)
          (Printf.sprintf "pid %d: late leader is correct" p)
          true
          (List.exists (Sim.Pid.equal l) correct)
      | ls ->
        Alcotest.failf "pid %d: %d distinct late (leader, epoch) samples" p
          (List.length ls))
    correct

(* --- The ring detector ------------------------------------------------- *)

(* The Adaptive timeout discipline in isolation: silence beyond the
   timeout convicts; a heartbeat that arrives while convicted (a false
   suspicion) grows the timeout by one period; timeouts never shrink, and
   growth stops as soon as heartbeats keep arriving inside the window.
   [heard] and [grant] return a new discipline and leave their argument
   as it was. *)
let test_adaptive_monotone_growth_then_stabilize () =
  let module A = Fd.Emulated.Adaptive in
  let period = 4 in
  let ad = A.create ~n:2 ~period in
  let t0 = A.timeout ad 1 in
  Alcotest.(check int) "initial timeout is 4 periods" (4 * period) t0;
  Alcotest.(check bool) "silent within the window: trusted" false
    (A.timed_out ad ~clock:t0 1);
  Alcotest.(check bool) "silent beyond the window: convicted" true
    (A.timed_out ad ~clock:(t0 + 1) 1);
  (* the late heartbeat proves the suspicion false: timeout grows *)
  let ad' = A.heard ad ~clock:(t0 + 1) 1 in
  Alcotest.(check int) "false suspicion grows the timeout by one period"
    (t0 + period) (A.timeout ad' 1);
  Alcotest.(check (pair int bool)) "heard leaves its argument unchanged"
    (t0, true)
    (A.timeout ad 1, A.timed_out ad ~clock:(t0 + 1) 1);
  (* timely heartbeats from now on: the timeout stabilizes *)
  let ad = ref ad' and clock = ref (t0 + 1) in
  for _ = 1 to 50 do
    clock := !clock + period;
    Alcotest.(check bool) "timely: never convicted" false
      (A.timed_out !ad ~clock:!clock 1);
    ad := A.heard !ad ~clock:!clock 1
  done;
  Alcotest.(check int) "timeout stable under timely heartbeats"
    (t0 + period) (A.timeout !ad 1);
  (* grant resets the silence clock without growth *)
  let late = !clock + (2 * A.timeout !ad 1) in
  let granted = A.grant !ad ~clock:late 1 in
  Alcotest.(check int) "grant does not grow the timeout" (t0 + period)
    (A.timeout granted 1);
  Alcotest.(check bool) "grant resets the silence clock" false
    (A.timed_out granted ~clock:late 1);
  Alcotest.(check bool) "grant leaves its argument unchanged" true
    (A.timed_out !ad ~clock:late 1)

(* Shared driver: run the ring detector under partial synchrony over a
   failure pattern, return the trace (outputs are per-step leader
   estimates; final states are the ring states). *)
let run_ring ?(seed = 1) ?(n = 5) ?(period = 4) ?(max_steps = 12_000)
    ?(gst = 200) ?(delta = 2) crashes =
  let fp = Sim.Failure_pattern.make ~n crashes in
  let layered =
    Sim.Layered.with_detector
      (Fd.Emulated.Omega_ring.detector ~period)
      observer
  in
  let cfg =
    Sim.Engine.config ~seed ~max_steps
      ~policy:(Sim.Network.Partial_synchrony { gst; delta })
      ~fd:(fun _ _ -> ())
      ~detect_quiescence:false fp
  in
  (fp, Sim.Engine.run cfg layered)

let late_leaders (trace : _ Sim.Trace.t) p =
  let half = trace.Sim.Trace.ticks / 2 in
  List.sort_uniq compare
    (List.filter_map
       (fun (e : _ Sim.Trace.event) ->
         if Sim.Pid.equal e.pid p && e.time >= half then Some e.value
         else None)
       trace.Sim.Trace.outputs)

(* Head crash: the ring must promote the next-lowest id everywhere. *)
let test_ring_head_crash_promotes_next () =
  let fp, trace = run_ring ~n:5 [ (0, 100) ] in
  let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
  List.iter
    (fun p ->
      (match late_leaders trace p with
      | [ l ] ->
        Alcotest.(check int)
          (Printf.sprintf "pid %d settles on the next-lowest id" p)
          1 l
      | ls -> Alcotest.failf "pid %d saw %d late leaders" p (List.length ls));
      let st = fst trace.Sim.Trace.final_states.(p) in
      Alcotest.(check bool)
        (Printf.sprintf "pid %d convicts the crashed head" p)
        true
        (Sim.Pidset.mem 0 (Fd.Emulated.Omega_ring.suspects st)))
    correct

(* Mid-chain crash: leadership is untouched, and every survivor's local
   ring re-closes around the excised id — the convicting successor
   monitors one further back, the predecessor heartbeats one further
   forward. *)
let test_ring_mid_chain_crash_repairs () =
  let fp, trace = run_ring ~n:5 [ (2, 100) ] in
  let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
  List.iter
    (fun p ->
      (match late_leaders trace p with
      | [ l ] ->
        Alcotest.(check int)
          (Printf.sprintf "pid %d keeps the head as leader" p)
          0 l
      | ls -> Alcotest.failf "pid %d saw %d late leaders" p (List.length ls));
      let st = fst trace.Sim.Trace.final_states.(p) in
      Alcotest.(check bool)
        (Printf.sprintf "pid %d excised the crashed process" p)
        true
        (Sim.Pidset.mem 2 (Fd.Emulated.Omega_ring.suspects st));
      Alcotest.(check bool)
        (Printf.sprintf "pid %d suspects no survivor" p)
        false
        (List.exists
           (fun q -> Sim.Pidset.mem q (Fd.Emulated.Omega_ring.suspects st))
           correct))
    correct;
  (* the chain is re-closed around 2: succ 1 = 3 and pred 3 = 1 *)
  let st1 = fst trace.Sim.Trace.final_states.(1) in
  let st3 = fst trace.Sim.Trace.final_states.(3) in
  Alcotest.(check int) "succ of 1 skips to 3" 3
    (Fd.Emulated.Omega_ring.succ st1);
  Alcotest.(check int) "pred of 3 skips to 1" 1
    (Fd.Emulated.Omega_ring.pred st3)

(* Pre-GST delays provoke false convictions; each one is refuted and
   grows the wrongly-convicted peer's timeout, so after GST convictions
   of live processes stop and everyone settles on the smallest correct
   id.  Swept over seeds: every run must converge, and at least one run
   must have actually exercised the adaptation. *)
let test_ring_adaptation_and_post_gst_convergence () =
  let period = 4 in
  let adapted = ref false in
  List.iter
    (fun seed ->
      let fp, trace =
        run_ring ~seed ~n:4 ~period ~max_steps:16_000 ~gst:400 ~delta:16
          [ (0, 150) ]
      in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let min_correct = List.fold_left min max_int correct in
      List.iter
        (fun p ->
          (match late_leaders trace p with
          | [ l ] ->
            Alcotest.(check int)
              (Printf.sprintf
                 "seed %d: pid %d settles on the smallest correct id" seed p)
              min_correct l
          | ls ->
            Alcotest.failf "seed %d: pid %d saw %d late leaders" seed p
              (List.length ls));
          let st = fst trace.Sim.Trace.final_states.(p) in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: pid %d suspects no correct process"
               seed p)
            false
            (List.exists
               (fun q ->
                 (not (Sim.Pid.equal q p))
                 && Sim.Pidset.mem q (Fd.Emulated.Omega_ring.suspects st))
               correct);
          if
            List.exists
              (fun q -> Fd.Emulated.Omega_ring.timeout st q > 4 * period)
              correct
          then adapted := true)
        correct)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    "at least one sweep run exercised timeout adaptation" true !adapted

(* --- Ring over the loopback transport (the real message path) --------- *)

let ring_run_until cluster pred =
  let r = ref 0 in
  while not (pred ()) && !r < 20_000 do
    incr r;
    Net.Local.cluster_run cluster ~rounds:1
  done;
  if not (pred ()) then Alcotest.fail "condition not reached in 20k rounds";
  !r

let test_ring_crash_failover_on_loopback () =
  let n = 5 in
  let cluster = Net.Local.create ~detector:Fd.Emulated.Omega.Ring ~n () in
  let leader_at p =
    Fd.Emulated.Omega.current (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p))
  in
  Net.Local.cluster_run cluster ~rounds:500;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "node %d trusts the head" p)
        0 (leader_at p))
    (Sim.Pid.all n);
  Net.Local.cluster_crash cluster 0;
  ignore
    (ring_run_until cluster (fun () ->
         List.for_all (fun p -> leader_at p = 1) [ 1; 2; 3; 4 ]));
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d convicts the crashed head" p)
        true
        (Sim.Pidset.mem 0
           (Fd.Emulated.Omega.suspects
              (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p)))))
    [ 1; 2; 3; 4 ]

let test_ring_false_suspicion_heals_on_loopback () =
  (* Block node 0's outbound frames: its ring successor convicts it and
     broadcasts the conviction.  Unblock: the buffered heartbeats (and
     0's own buffered Refute — it received its conviction) flush, every
     node reinstates 0, and the false suspicion has grown 0's timeout at
     the node that convicted it. *)
  let n = 3 in
  let cluster = Net.Local.create ~detector:Fd.Emulated.Omega.Ring ~n () in
  let suspects_0 p =
    Sim.Pidset.mem 0
      (Fd.Emulated.Omega.suspects
         (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p)))
  in
  let timeout_for_0 p =
    Fd.Emulated.Omega.timeout
      (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p))
      0
  in
  Net.Local.cluster_run cluster ~rounds:500;
  Alcotest.(check bool) "initially trusted" false (suspects_0 1);
  let t_before = timeout_for_0 1 in
  Net.Loopback.block (Net.Local.cluster_hub cluster) 0;
  ignore (ring_run_until cluster (fun () -> suspects_0 1));
  Net.Loopback.unblock (Net.Local.cluster_hub cluster) 0;
  ignore (ring_run_until cluster (fun () -> not (suspects_0 1)));
  Alcotest.(check bool) "false suspicion grew the timeout" true
    (timeout_for_0 1 > t_before);
  (* and leadership is back with the reinstated head *)
  ignore
    (ring_run_until cluster (fun () ->
         List.for_all
           (fun p ->
             Fd.Emulated.Omega.current
               (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p))
             = 0)
           (Sim.Pid.all n)))

(* --- Reading Ω ------------------------------------------------------------ *)

(* Every emulated Ω backend reads its leader and its suspect set off one
   suspicion predicate.  Random step scripts drive each backend, and the
   [Omega] selector over both kinds, at n = 1..6.  After every step the
   leader is the smallest pid outside the suspect set, the process itself
   is never suspected, [suspected q] holds exactly for the members of the
   suspect set, and Ω-EC's epoch bumps exactly when its leader changes. *)
type script_ev =
  | Idle
  | Silence of int  (** that many idle steps *)
  | Alive of Sim.Pid.t  (** an all-to-all heartbeat from the pid *)
  | Hb of Sim.Pid.t  (** a ring heartbeat from the pid *)
  | Suspect of Sim.Pid.t * Sim.Pid.t  (** sender, convicted pid *)
  | Refute of Sim.Pid.t * Sim.Pid.t  (** sender, retracted pid *)

let pp_script_ev = function
  | Idle -> "idle"
  | Silence k -> Printf.sprintf "silence %d" k
  | Alive q -> Printf.sprintf "alive<-%d" q
  | Hb q -> Printf.sprintf "hb<-%d" q
  | Suspect (q, p) -> Printf.sprintf "suspect %d<-%d" p q
  | Refute (q, p) -> Printf.sprintf "refute %d<-%d" p q

(* (n, self, period, script) *)
let arb_script =
  let open QCheck.Gen in
  let gen =
    int_range 1 6 >>= fun n ->
    let pid = int_bound (n - 1) in
    pid >>= fun self ->
    int_range 1 4 >>= fun period ->
    list_size (int_bound 80)
      (frequency
         [
           (3, return Idle);
           (1, map (fun k -> Silence k) (int_range 1 40));
           (3, map (fun q -> Alive q) pid);
           (3, map (fun q -> Hb q) pid);
           (1, map2 (fun q p -> Suspect (q, p)) pid pid);
           (1, map2 (fun q p -> Refute (q, p)) pid pid);
         ])
    >|= fun evs -> (n, self, period, evs)
  in
  QCheck.make gen
    ~print:(fun (n, self, period, evs) ->
      Printf.sprintf "n=%d self=%d period=%d [%s]" n self period
        (String.concat "; " (List.map pp_script_ev evs)))
    ~shrink:(fun (n, self, period, evs) ->
      QCheck.Iter.map
        (fun evs -> (n, self, period, evs))
        (QCheck.Shrink.list evs))

(* One backend under test: its detector, how it reads a script event (a
   message from a sender, or [None] for an idle step), and its views. *)
type omega_reader =
  | Reader : {
      name : string;
      det : period:int -> ('st, 'm, 'fd) Sim.Layered.emulated;
      recv : script_ev -> (Sim.Pid.t * 'm) option;
      leader : 'fd -> Sim.Pid.t;
      epoch : ('fd -> int) option;
      suspected : 'st -> Sim.Pid.t -> bool;
      suspects : 'st -> Sim.Pidset.t;
    }
      -> omega_reader

let omega_readers =
  let module E = Fd.Emulated in
  let heartbeat = function
    | Alive q | Hb q -> Some (q, E.Omega_heartbeat.Alive)
    | Idle | Silence _ | Suspect _ | Refute _ -> None
  in
  let ring = function
    | Alive q | Hb q -> Some (q, E.Omega_ring.Hb)
    | Suspect (q, p) -> Some (q, E.Omega_ring.Suspect p)
    | Refute (q, p) -> Some (q, E.Omega_ring.Refute p)
    | Idle | Silence _ -> None
  in
  (* Under the selector each kind also receives the other kind's frames,
     which it must ignore. *)
  let selector = function
    | Alive q -> Some (q, E.Omega.H E.Omega_heartbeat.Alive)
    | ev -> Option.map (fun (q, m) -> (q, E.Omega.R m)) (ring ev)
  in
  let omega kind =
    Reader
      {
        name = "omega " ^ E.Omega.kind_name kind;
        det = E.Omega.detector ~kind;
        recv = selector;
        leader = Fun.id;
        epoch = None;
        suspected = E.Omega.suspected;
        suspects = E.Omega.suspects;
      }
  in
  [
    Reader
      {
        name = "heartbeat";
        det = E.Omega_heartbeat.detector;
        recv = heartbeat;
        leader = Fun.id;
        epoch = None;
        suspected = E.Omega_heartbeat.suspected;
        suspects = E.Omega_heartbeat.suspects;
      };
    Reader
      {
        name = "omega-ec";
        det = E.Omega_ec.detector;
        recv =
          (fun ev ->
            Option.map (fun (q, _) -> (q, E.Omega_ec.Alive)) (heartbeat ev));
        leader = fst;
        epoch = Some snd;
        suspected = E.Omega_ec.suspected;
        suspects = E.Omega_ec.suspects;
      };
    Reader
      {
        name = "ring";
        det = E.Omega_ring.detector;
        recv = ring;
        leader = Fun.id;
        epoch = None;
        suspected = E.Omega_ring.suspected;
        suspects = E.Omega_ring.suspects;
      };
    omega E.Omega.Heartbeat;
    omega E.Omega.Ring;
  ]

let reads_off_one_predicate (Reader r) (n, self, period, evs) =
  let det = r.det ~period in
  let proto = det.Sim.Layered.proto in
  let fail clock fmt =
    QCheck.Test.fail_reportf ("%s, p%d at step %d: " ^^ fmt) r.name self clock
  in
  let check clock st prev =
    let sus = r.suspects st and out = det.Sim.Layered.current st in
    let leader = r.leader out in
    if Sim.Pidset.mem self sus then fail clock "suspects itself";
    List.iter
      (fun q ->
        if r.suspected st q <> Sim.Pidset.mem q sus then
          fail clock "suspected %d disagrees with suspects" q)
      (Sim.Pid.all n);
    (match List.find_opt (fun q -> not (Sim.Pidset.mem q sus)) (Sim.Pid.all n) with
    | Some q when Sim.Pid.equal q leader -> ()
    | _ -> fail clock "leader %d is not the smallest unsuspected pid" leader);
    match r.epoch with
    | None -> ()
    | Some epoch ->
      let bumps = if Sim.Pid.equal leader (r.leader prev) then 0 else 1 in
      if epoch out <> epoch prev + bumps then
        fail clock "epoch %d -> %d across leader %d -> %d" (epoch prev)
          (epoch out) (r.leader prev) leader
  in
  let step (clock, st) recv =
    let prev = det.Sim.Layered.current st in
    let ctx = { Sim.Protocol.self; n; now = clock; fd = () } in
    let st, _ = proto.Sim.Protocol.on_step ctx st recv in
    check (clock + 1) st prev;
    (clock + 1, st)
  in
  let st = proto.Sim.Protocol.init ~n self in
  check 0 st (det.Sim.Layered.current st);
  ignore
    (List.fold_left
       (fun acc ev ->
         match ev with
         | Silence k ->
           let acc = ref acc in
           for _ = 1 to k do
             acc := step !acc None
           done;
           !acc
         | ev -> step acc (r.recv ev))
       (0, st) evs);
  true

let prop_omega_reads =
  List.map
    (fun (Reader r as reader) ->
      QCheck.Test.make ~count:150
        ~name:(Printf.sprintf "%s: leader and suspects read off suspected" r.name)
        arb_script (reads_off_one_predicate reader))
    omega_readers

let prop_psi_oracle_conforms =
  QCheck.Test.make ~name:"Psi histories conform to the Psi spec" ~count:80
    QCheck.(pair small_nat (int_bound 3))
    (fun (seed, extra) ->
      let fp = sample_fp ~seed:(seed + (extra * 1000) + 1) ~n:4 () in
      let h = Fd.Oracle.history Fd.Psi.oracle fp ~seed:(seed + 1) in
      match Fd.Psi.check fp ~horizon h with Ok () -> true | Error _ -> false)

let prop_sigma_kernel_intersection =
  QCheck.Test.make
    ~name:"Sigma oracle quorums intersect across two independent runs"
    ~count:60 QCheck.small_nat (fun seed ->
      let fp = sample_fp ~seed:(seed + 1) ~n:5 () in
      let h = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
      (* Any two samples anywhere must intersect. *)
      let rng = Sim.Rng.make (seed + 7) in
      let ok = ref true in
      for _ = 1 to 100 do
        let p1 = Sim.Rng.int rng 5 and p2 = Sim.Rng.int rng 5 in
        let t1 = Sim.Rng.int rng 300 and t2 = Sim.Rng.int rng 300 in
        if not (Sim.Pidset.intersects (h p1 t1) (h p2 t2)) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "fd"
    [
      ( "omega",
        [
          Alcotest.test_case "oracle conforms" `Quick test_omega_oracle;
          Alcotest.test_case "fixed leader" `Quick test_omega_fixed;
          Alcotest.test_case "rejects faulty leader" `Quick
            test_omega_fixed_rejects_faulty_leader;
        ]
        @ control_cases "omega" );
      ( "sigma",
        [
          Alcotest.test_case "oracle conforms" `Quick test_sigma_oracle;
          Alcotest.test_case "majority oracle conforms" `Quick
            test_sigma_majority_oracle;
          Alcotest.test_case "majority oracle needs majority" `Quick
            test_sigma_majority_rejects_minority;
        ]
        @ control_cases "sigma" );
      ( "fs",
        [
          Alcotest.test_case "oracle conforms" `Quick test_fs_oracle;
          Alcotest.test_case "green without failure" `Quick
            test_fs_failure_free_stays_green;
        ]
        @ control_cases "fs" );
      ( "psi",
        [
          Alcotest.test_case "oracle conforms" `Quick test_psi_oracle;
          Alcotest.test_case "forced modes" `Quick test_psi_forced_modes;
          Alcotest.test_case "failure mode needs failure" `Quick
            test_psi_failure_mode_needs_failure;
        ]
        @ control_cases "psi" );
      ( "suspects",
        [
          Alcotest.test_case "perfect conforms" `Quick test_perfect_oracle;
          Alcotest.test_case "eventually strong conforms" `Quick
            test_eventually_strong_oracle;
        ] );
      ( "product",
        [ Alcotest.test_case "(Omega,Sigma) conforms" `Quick test_product_oracle ] );
      ( "more-oracles",
        [
          Alcotest.test_case "fs lazy" `Quick test_fs_lazy_oracle;
          Alcotest.test_case "<>P violates P spec" `Quick
            test_eventually_perfect_violates_perfect_spec;
          Alcotest.test_case "const and map" `Quick test_oracle_const_and_map;
        ] );
      ( "emulated",
        [
          Alcotest.test_case "sigma from majority" `Slow
            test_sigma_majority_emulation;
          Alcotest.test_case "omega from heartbeats" `Slow
            test_omega_heartbeat_emulation;
          Alcotest.test_case "sigma staleness, minority correct" `Slow
            test_sigma_staleness_minority_correct;
          Alcotest.test_case "sigma rounds keep completing, majority correct"
            `Slow test_sigma_rounds_keep_completing_majority_correct;
          Alcotest.test_case "omega adaptation and post-GST convergence" `Slow
            test_omega_adaptation_and_post_gst_convergence;
          Alcotest.test_case "omega-ec leader epochs" `Slow
            test_omega_ec_emulation;
        ] );
      ( "ring",
        [
          Alcotest.test_case "adaptive timeouts grow then stabilize" `Quick
            test_adaptive_monotone_growth_then_stabilize;
          Alcotest.test_case "head crash promotes next-lowest id" `Slow
            test_ring_head_crash_promotes_next;
          Alcotest.test_case "mid-chain crash re-closes the ring" `Slow
            test_ring_mid_chain_crash_repairs;
          Alcotest.test_case "adaptation and post-GST convergence" `Slow
            test_ring_adaptation_and_post_gst_convergence;
          Alcotest.test_case "crash failover on loopback" `Slow
            test_ring_crash_failover_on_loopback;
          Alcotest.test_case "false suspicion heals on loopback" `Slow
            test_ring_false_suspicion_heals_on_loopback;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_psi_oracle_conforms;
          QCheck_alcotest.to_alcotest prop_sigma_kernel_intersection;
        ]
        @ List.map QCheck_alcotest.to_alcotest prop_omega_reads );
    ]
