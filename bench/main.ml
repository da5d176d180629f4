(* Benchmark harness: one Bechamel test (or group) per experiment of
   EXPERIMENTS.md.  The paper has no performance tables — it is a theory
   paper — so these benches measure the *executable cost* of each
   construction on fixed scenarios: how expensive a Σ-register operation
   is, what the ABD transport costs over native message passing, how heavy
   the Figure 1 / Figure 3 extractions are, and the relative latencies of
   the algorithms the experiments compare.

     dune exec bench/main.exe
*)

open Bechamel
open Toolkit

let sc_ff n = Core.Scenario.failure_free ~n
let sc_crash n = Core.Scenario.one_crash ~n ~at:50
let sc_minority n = Core.Scenario.minority_correct ~n

let expect_ok name (s : Core.Runner.summary) =
  match s.Core.Runner.spec_ok with
  | Ok () -> ()
  | Error e -> failwith (name ^ ": spec violation during bench: " ^ e)

(* E1: ABD register workloads from Σ. *)
let e1_tests =
  Test.make_grouped ~name:"E1-abd-registers"
    [
      Test.make ~name:"failure-free-n4"
        (Staged.stage (fun () ->
             expect_ok "e1"
               (Core.Runner.run_register_workload (sc_ff 4) ~seed:1)));
      Test.make ~name:"one-crash-n4"
        (Staged.stage (fun () ->
             expect_ok "e1"
               (Core.Runner.run_register_workload (sc_crash 4) ~seed:1)));
      Test.make ~name:"minority-correct-n5"
        (Staged.stage (fun () ->
             expect_ok "e1"
               (Core.Runner.run_register_workload (sc_minority 5) ~seed:1)));
    ]

(* E2: the Figure 1 Σ extraction (bounded run). *)
let e2_tests =
  Test.make_grouped ~name:"E2-sigma-extraction"
    [
      Test.make ~name:"failure-free-n4"
        (Staged.stage (fun () ->
             ignore
               (Core.Runner.run_sigma_extraction ~max_steps:6_000 (sc_ff 4)
                  ~seed:2)));
      Test.make ~name:"one-crash-n4"
        (Staged.stage (fun () ->
             ignore
               (Core.Runner.run_sigma_extraction ~max_steps:6_000 (sc_crash 4)
                  ~seed:2)));
    ]

(* E3: (Ω,Σ) quorum consensus across environments. *)
let e3_tests =
  Test.make_grouped ~name:"E3-quorum-paxos"
    [
      Test.make ~name:"failure-free-n5"
        (Staged.stage (fun () ->
             expect_ok "e3"
               (Core.Runner.run_consensus Core.Runner.Quorum_paxos (sc_ff 5)
                  ~seed:3)));
      Test.make ~name:"one-crash-n5"
        (Staged.stage (fun () ->
             expect_ok "e3"
               (Core.Runner.run_consensus Core.Runner.Quorum_paxos (sc_crash 5)
                  ~seed:3)));
      Test.make ~name:"minority-correct-n5"
        (Staged.stage (fun () ->
             expect_ok "e3"
               (Core.Runner.run_consensus Core.Runner.Quorum_paxos
                  (sc_minority 5) ~seed:3)));
    ]

(* E4: registers+Ω consensus — native shm vs the ABD transport. *)
let e4_tests =
  Test.make_grouped ~name:"E4-disk-paxos"
    [
      Test.make ~name:"shm-n4"
        (Staged.stage (fun () ->
             expect_ok "e4"
               (Core.Runner.run_consensus Core.Runner.Disk_paxos_shm (sc_ff 4)
                  ~seed:4)));
      Test.make ~name:"over-abd-n3"
        (Staged.stage (fun () ->
             expect_ok "e4"
               (Core.Runner.run_consensus Core.Runner.Disk_paxos_abd (sc_ff 3)
                  ~seed:4)));
    ]

(* E5: Σ emulated ex nihilo from a correct majority. *)
let e5_tests =
  let observer :
      (unit, unit, Sim.Pidset.t, unit, Sim.Pidset.t) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> ());
      on_step = (fun ctx () _ -> ((), [ Sim.Protocol.Output ctx.fd ]));
      on_input = Sim.Protocol.no_input;
    }
  in
  Test.make ~name:"E5-sigma-from-majority"
    (Staged.stage (fun () ->
         let fp = Sim.Failure_pattern.make ~n:5 [ (0, 50) ] in
         let layered =
           Sim.Layered.with_detector Fd.Emulated.Sigma_majority.detector
             observer
         in
         let cfg =
           Sim.Engine.config ~seed:5 ~max_steps:3_000 ~detect_quiescence:false
             ~fd:(fun _ _ -> ())
             fp
         in
         ignore (Sim.Engine.run cfg layered)))

(* E6: QC from Ψ, both branches. *)
let e6_tests =
  Test.make_grouped ~name:"E6-qc-from-psi"
    [
      Test.make ~name:"cons-branch-n4"
        (Staged.stage (fun () ->
             expect_ok "e6"
               (Core.Runner.run_qc ~mode:Fd.Psi.Consensus_mode (sc_crash 4)
                  ~seed:6)));
      Test.make ~name:"fs-branch-n4"
        (Staged.stage (fun () ->
             expect_ok "e6"
               (Core.Runner.run_qc ~mode:Fd.Psi.Failure_mode (sc_crash 4)
                  ~seed:6)));
    ]

(* E7: the Figure 3 Ψ extraction — by far the heaviest construction. *)
let e7_tests =
  Test.make_grouped ~name:"E7-psi-extraction"
    [
      Test.make ~name:"failure-free-n3"
        (Staged.stage (fun () ->
             expect_ok "e7"
               (Core.Runner.run_psi_extraction ~rounds:2 ~chunk:180 (sc_ff 3)
                  ~seed:7)));
      Test.make ~name:"one-crash-n3"
        (Staged.stage (fun () ->
             expect_ok "e7"
               (Core.Runner.run_psi_extraction ~rounds:2 ~chunk:180
                  (Core.Scenario.one_crash ~n:3 ~at:30)
                  ~seed:7)));
    ]

(* E8: NBAC from QC + FS. *)
let e8_tests =
  Test.make_grouped ~name:"E8-nbac"
    [
      Test.make ~name:"commit-path-n4"
        (Staged.stage (fun () ->
             expect_ok "e8"
               (Core.Runner.run_nbac Core.Runner.Nbac_psi_fs (sc_ff 4) ~seed:8)));
      Test.make ~name:"abort-path-n4"
        (Staged.stage (fun () ->
             expect_ok "e8"
               (Core.Runner.run_nbac Core.Runner.Nbac_psi_fs (sc_crash 4)
                  ~seed:8)));
    ]

(* E9: the NBAC <-> QC bridges. *)
let e9_tests =
  Test.make_grouped ~name:"E9-bridges"
    [
      Test.make ~name:"qc-from-nbac-n4"
        (Staged.stage (fun () ->
             let fp = Sim.Failure_pattern.failure_free 4 in
             let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed:9 in
             let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:10 in
             let proposals = List.map (fun p -> (p, p)) (Sim.Pid.all 4) in
             let cfg =
               Sim.Engine.config ~seed:9 ~max_steps:60_000
                 ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
                 ~stop:(Sim.Engine.stop_when_all_correct_output fp)
                 ~detect_quiescence:false
                 ~fd:(fun p t -> (psi p t, fs p t))
                 fp
             in
             ignore (Sim.Engine.run cfg Qcnbac.Qc_from_nbac.protocol)));
      Test.make ~name:"fs-from-nbac-n3"
        (Staged.stage (fun () ->
             let fp = Sim.Failure_pattern.failure_free 3 in
             let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed:9 in
             let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:10 in
             let cfg =
               Sim.Engine.config ~seed:9 ~max_steps:3_000
                 ~detect_quiescence:false
                 ~fd:(fun p t -> (psi p t, fs p t))
                 fp
             in
             ignore (Sim.Engine.run cfg Qcnbac.Fs_from_nbac.protocol)));
    ]

(* E10: the baselines. *)
let e10_tests =
  Test.make_grouped ~name:"E10-baselines"
    [
      Test.make ~name:"chandra-toueg-majority-n5"
        (Staged.stage (fun () ->
             expect_ok "e10"
               (Core.Runner.run_consensus Core.Runner.Chandra_toueg (sc_crash 5)
                  ~seed:10)));
      Test.make ~name:"multivalued-4bit-n5"
        (Staged.stage (fun () ->
             expect_ok "e10"
               (Core.Runner.run_consensus (Core.Runner.Multivalued 4)
                  ~proposals:(List.map (fun p -> (p, 3 + p)) (Sim.Pid.all 5))
                  (sc_crash 5) ~seed:10)));
      Test.make ~name:"2pc-commit-n4"
        (Staged.stage (fun () ->
             expect_ok "e10"
               (Core.Runner.run_nbac Core.Runner.Two_phase_commit (sc_ff 4)
                  ~seed:10)));
    ]

(* E11: scaling with n. *)
let e11_tests =
  let paxos n =
    Test.make ~name:(Printf.sprintf "quorum-paxos-n%d" n)
      (Staged.stage (fun () ->
           expect_ok "e11"
             (Core.Runner.run_consensus Core.Runner.Quorum_paxos
                (Core.Scenario.one_crash ~n ~at:50)
                ~seed:11)))
  in
  let abd n =
    Test.make ~name:(Printf.sprintf "abd-workload-n%d" n)
      (Staged.stage (fun () ->
           expect_ok "e11"
             (Core.Runner.run_register_workload
                (Core.Scenario.one_crash ~n ~at:50)
                ~seed:11)))
  in
  Test.make_grouped ~name:"E11-scaling"
    [ paxos 3; paxos 5; paxos 7; paxos 9; abd 3; abd 5; abd 7; abd 9 ]

(* E12: detector-quality ablation (wall time mirrors simulated latency). *)
let e12_tests =
  let run name omega_oracle =
    Test.make ~name
      (Staged.stage (fun () ->
           let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40) ] in
           let omega = Fd.Oracle.history omega_oracle fp ~seed:12 in
           let sigma = Fd.Oracle.history Fd.Sigma.oracle_exact fp ~seed:13 in
           let proposals = List.map (fun q -> (q, q mod 2)) (Sim.Pid.all 5) in
           let cfg =
             Sim.Engine.config ~seed:12 ~max_steps:150_000
               ~inputs:(List.map (fun (q, v) -> (0, q, v)) proposals)
               ~stop:(Sim.Engine.stop_when_all_correct_output fp)
               ~detect_quiescence:false
               ~fd:(fun q t -> (omega q t, sigma q t))
               fp
           in
           ignore (Sim.Engine.run cfg Cons.Quorum_paxos.protocol)))
  in
  Test.make_grouped ~name:"E12-omega-quality"
    [
      run "omega-instant" Fd.Omega.oracle_instant;
      run "omega-stab300" (Fd.Omega.oracle_with ~leader:2 ~stabilize_at:300);
    ]

(* E13: the model-checking subsystem — cost of one full exploration. *)
let e13_tests =
  let ff n = Sim.Failure_pattern.failure_free n in
  Test.make_grouped ~name:"E13-model-checking"
    [
      Test.make ~name:"exhaustive-quorum-paxos-n2"
        (Staged.stage (fun () ->
             let r =
               Mc.Exhaustive.search ~budget:50_000
                 (Mc.Targets.quorum_paxos ~n:2) ~fp:(ff 2)
             in
             if r.Mc.Exhaustive.counterexample <> None then
               failwith "e13: unexpected violation"));
      Test.make ~name:"pct-quorum-paxos-n3-100runs"
        (Staged.stage (fun () ->
             ignore
               (Mc.Pct.search ~budget:100 (Mc.Targets.quorum_paxos ~n:3)
                  ~fp:(ff 3))));
      Test.make ~name:"crash-adversary-2pc-n3"
        (Staged.stage (fun () ->
             let r =
               Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
                 ~budget:50_000 (Mc.Targets.two_phase_commit ~n:3) ~n:3
             in
             if r.Mc.Crash_adversary.counterexample = None then
               failwith "e13: 2pc blocking not found"));
    ]

(* E14: observability overhead — the same quorum-paxos run uninstrumented,
   with the no-op [Sim.Event.null] sink, and with a full [Obs.Collector]
   (ring + metrics + profile).  The contract (docs/OBSERVABILITY.md) is
   that the no-sink row is unchanged by the subsystem's existence: every
   emit site is guarded, so no event is allocated when no sink is set. *)
let e14_tests =
  let run_paxos ?sink () =
    let fp = Sim.Failure_pattern.make ~n:5 [ (0, 40) ] in
    let omega = Fd.Oracle.history Fd.Omega.oracle_instant fp ~seed:14 in
    let sigma = Fd.Oracle.history Fd.Sigma.oracle_exact fp ~seed:14 in
    let proposals = List.map (fun q -> (q, q mod 2)) (Sim.Pid.all 5) in
    let cfg =
      Sim.Engine.config ~seed:14 ~max_steps:150_000
        ~inputs:(List.map (fun (q, v) -> (0, q, v)) proposals)
        ~stop:(Sim.Engine.stop_when_all_correct_output fp)
        ~detect_quiescence:false ?sink
        ~fd:(fun q t -> (omega q t, sigma q t))
        fp
    in
    ignore (Sim.Engine.run cfg Cons.Quorum_paxos.protocol)
  in
  Test.make_grouped ~name:"E14-observability"
    [
      Test.make ~name:"paxos-n5-no-sink"
        (Staged.stage (fun () -> run_paxos ()));
      Test.make ~name:"paxos-n5-null-sink"
        (Staged.stage (fun () -> run_paxos ~sink:Sim.Event.null ()));
      Test.make ~name:"paxos-n5-collector"
        (Staged.stage (fun () ->
             let c = Obs.Collector.create () in
             run_paxos ~sink:c.Obs.Collector.sink ()));
    ]

(* E15: the net runtime — SMR (Cons.Smr under emulated (Ω,Σ)) over the
   deterministic loopback transport, driven closed-loop: submit one
   command at replica 0, step the whole cluster round-robin until it is
   applied, repeat.  The idle row measures pure detector overhead: what
   the cluster's links carry (heartbeats + Σ join-quorum rounds) when no
   client is talking. *)
let smr_applied t p =
  Cons.Smr.applied (Net.Smr_node.smr_state (Net.Local.state t p))

let smr_closed_loop ~n ~count () =
  let t = Net.Local.create ~period:16 ~n () in
  Net.Local.run t ~rounds:200;
  for i = 0 to count - 1 do
    Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i);
    while smr_applied t 0 < i + 1 do
      Net.Local.step t
    done
  done

let e15_tests =
  let idle ~n ~rounds () =
    let t = Net.Local.create ~period:16 ~n () in
    Net.Local.run t ~rounds
  in
  Test.make_grouped ~name:"E15-net"
    [
      Test.make ~name:"smr-loopback-n3-20cmds"
        (Staged.stage (smr_closed_loop ~n:3 ~count:20));
      Test.make ~name:"smr-loopback-n5-20cmds"
        (Staged.stage (smr_closed_loop ~n:5 ~count:20));
      Test.make ~name:"detector-idle-n3-1000rounds"
        (Staged.stage (idle ~n:3 ~rounds:1_000));
    ]

(* E16: chaos — the same loopback SMR cluster with the nemesis adversary
   in the transport stack (node → Rel → Nemesis → hub): sustained frame
   loss at two rates, and a scripted partition+heal, each one full
   harness run with its online invariants on (docs/FAULTS.md). *)
let chaos_schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> failwith e

let chaos_run ~n ~rounds ~cmds text () =
  let cfg =
    {
      (Net.Chaos.default ~n ~schedule:(chaos_schedule text)) with
      Net.Chaos.rounds;
      cmds;
      cmd_every = 60;
    }
  in
  let r = Net.Chaos.run cfg in
  if not (Net.Chaos.ok r) then failwith "chaos invariant failed under bench"

let e16_tests =
  Test.make_grouped ~name:"E16-chaos"
    [
      Test.make ~name:"smr-loss1pct-n3-600rounds"
        (Staged.stage (chaos_run ~n:3 ~rounds:600 ~cmds:6 "at 0 drop * 0.01"));
      Test.make ~name:"smr-loss5pct-n3-600rounds"
        (Staged.stage (chaos_run ~n:3 ~rounds:600 ~cmds:6 "at 0 drop * 0.05"));
      Test.make ~name:"smr-partition-heal-n3-800rounds"
        (Staged.stage
           (chaos_run ~n:3 ~rounds:800 ~cmds:6
              "at 150 partition 0 1 | 2\nat 400 heal"));
    ]

(* E17: the sharded service (docs/SHARDING.md) — S independent 3-replica
   groups, each over its own loopback hub, the ring router in front.
   These rows drive every group sequentially (deterministic, comparable
   to E15's single group); the aggregate-throughput claim — S shards
   beat one group — is measured wall-clock in the JSON rows below with
   one domain stepping each group. *)
let shard_closed_loop ~shards ~count () =
  let c = Shard.Cluster.create ~period:16 ~shards ~replicas:3 ~spares:0 () in
  Shard.Cluster.run c ~rounds:200;
  let z = Shard.Zipf.create ~seed:17 ~keys:128 () in
  let r = Shard.Cluster.router c in
  for i = 0 to count - 1 do
    let key = Shard.Zipf.next_key z in
    let target = Shard.Cluster.applied_total c + 1 in
    (match Shard.Router.write r ~key ~value:(Printf.sprintf "v%d" i) with
    | Some _ -> ()
    | None -> failwith "shard bench: no live member");
    while Shard.Cluster.applied_total c < target do
      Shard.Cluster.step c
    done
  done

let shard_read_loop ~shards ~count () =
  let c = Shard.Cluster.create ~period:16 ~shards ~replicas:3 ~spares:0 () in
  Shard.Cluster.run c ~rounds:200;
  let r = Shard.Cluster.router c in
  let keys = Array.init 16 (fun i -> Printf.sprintf "k%03d" i) in
  Array.iteri
    (fun i key ->
      let target = Shard.Cluster.applied_total c + 1 in
      ignore (Shard.Router.write r ~key ~value:(Printf.sprintf "v%d" i));
      while Shard.Cluster.applied_total c < target do
        Shard.Cluster.step c
      done)
    keys;
  for i = 0 to count - 1 do
    match Shard.Router.read r ~key:keys.(i mod Array.length keys) with
    | Ok (Some _) -> ()
    | Ok None | Error _ -> failwith "shard bench: quorum read failed"
  done

let shard_reconfig_run () =
  let c = Shard.Cluster.create ~period:16 ~shards:2 ~replicas:3 ~spares:1 () in
  Shard.Cluster.run c ~rounds:200;
  for s = 0 to 1 do
    match Shard.Cluster.rotated_members c ~shard:s with
    | Some members ->
      if not (Shard.Cluster.reconfig c ~shard:s ~members) then
        failwith "shard bench: reconfig not accepted"
    | None -> failwith "shard bench: no spare"
  done;
  let deadline = 20_000 in
  let rec settle k =
    if k > deadline then failwith "shard bench: reconfig did not install";
    let done_ =
      List.for_all
        (fun s -> (Shard.Group.config (Shard.Cluster.group c s)).Shard.Epoch.epoch = 1)
        [ 0; 1 ]
    in
    if not done_ then begin
      Shard.Cluster.step c;
      settle (k + 1)
    end
  in
  settle 0

let e17_tests =
  Test.make_grouped ~name:"E17-shard"
    [
      Test.make ~name:"zipf-writes-s4-n3-20cmds"
        (Staged.stage (shard_closed_loop ~shards:4 ~count:20));
      Test.make ~name:"quorum-reads-s4-n3-40reads"
        (Staged.stage (shard_read_loop ~shards:4 ~count:40));
      Test.make ~name:"reconfig-s2-n3"
        (Staged.stage shard_reconfig_run);
    ]

let all_tests =
  Test.make_grouped ~name:"weakest-fd"
    [
      e1_tests; e2_tests; e3_tests; e4_tests; e5_tests; e6_tests; e7_tests;
      e8_tests; e9_tests; e10_tests; e11_tests; e12_tests; e13_tests;
      e14_tests; e15_tests; e16_tests; e17_tests;
    ]

(* ------------------------------------------------------------------ *)
(* Machine-readable throughput numbers for the model checker: repeat
   each exploration workload, derive schedules/sec and steps/sec from
   the checker's own counters, and dump latency percentiles to
   BENCH_weakest_fd.json for tooling (CI trend lines etc.).           *)

let percentile sorted q =
  match Array.length sorted with
  | 0 -> nan
  | len ->
    let i = int_of_float (ceil (q *. float_of_int len)) - 1 in
    sorted.(max 0 (min (len - 1) i))

let mc_throughput_workloads =
  [
    ( "mc_exhaustive_quorum_paxos_n2",
      25,
      fun () ->
        let r =
          Mc.Exhaustive.search ~budget:50_000 (Mc.Targets.quorum_paxos ~n:2)
            ~fp:(Sim.Failure_pattern.failure_free 2)
        in
        (r.Mc.Exhaustive.schedules, r.Mc.Exhaustive.steps) );
    ( "mc_exhaustive_abd_n2",
      25,
      fun () ->
        let r =
          Mc.Exhaustive.search ~budget:50_000 (Mc.Targets.abd ~n:2)
            ~fp:(Sim.Failure_pattern.failure_free 2)
        in
        (r.Mc.Exhaustive.schedules, r.Mc.Exhaustive.steps) );
    (* the DPOR rows pair with mc_exhaustive_abd_n2: same target, same
       verdict, schedules-per-run is the reduction (420 -> tens at n=2),
       and n=3 — infeasible for the plain explorer — completes in one
       run, which is the whole point (one repeat: the run is seconds to
       minutes, not milliseconds) *)
    ( "mc_dpor_abd_n2",
      25,
      fun () ->
        let r =
          Mc.Dpor.search ~budget:50_000 ~shrink:false (Mc.Targets.abd ~n:2)
            ~fp:(Sim.Failure_pattern.failure_free 2)
        in
        (r.Mc.Exhaustive.schedules, r.Mc.Exhaustive.steps) );
    ( "mc_dpor_abd_n3",
      1,
      fun () ->
        let r =
          Mc.Dpor.search ~budget:200_000 ~shrink:false (Mc.Targets.abd ~n:3)
            ~fp:(Sim.Failure_pattern.failure_free 3)
        in
        assert r.Mc.Exhaustive.complete;
        (r.Mc.Exhaustive.schedules, r.Mc.Exhaustive.steps) );
    ( "mc_pct_quorum_paxos_n3",
      25,
      fun () ->
        let r =
          Mc.Pct.search ~budget:200 (Mc.Targets.quorum_paxos ~n:3)
            ~fp:(Sim.Failure_pattern.failure_free 3)
        in
        (r.Mc.Pct.schedules, r.Mc.Pct.steps) );
    ( "mc_crash_adversary_2pc_n3",
      25,
      fun () ->
        let r =
          Mc.Crash_adversary.search ~max_crashes:1 ~horizon:4 ~stride:2
            ~budget:50_000 ~shrink:false
            (Mc.Targets.two_phase_commit ~n:3)
            ~n:3
        in
        (r.Mc.Crash_adversary.schedules, r.Mc.Crash_adversary.steps) );
  ]
  (* the full crash-adversary abd workload (15 failure patterns, ~6300
     schedules) through the deterministic parallel explorer, one row per
     domain count — enough work per run for the speculation/adjudication
     split to amortize its queues.  The scaling contract is domains4 >=
     2x domains1 schedules/sec on a multicore machine; the JSON carries
     a "cores" field so a one-core reading (ratio ~1.0) is legible. *)
  @ List.map
      (fun domains ->
        ( Printf.sprintf "mc_exhaustive_abd_n2_domains%d" domains,
          25,
          fun () ->
            let opts =
              {
                Mc.Harness.default_opts with
                Mc.Harness.domains;
                budget = 50_000;
                inner_budget = 50_000;
                max_crashes = 1;
                horizon = 6;
                stride = 1;
                shrink = false;
              }
            in
            let r = Mc.Parallel.search ~opts (Mc.Targets.abd ~n:2) ~n:2 in
            (r.Mc.Crash_adversary.schedules, r.Mc.Crash_adversary.steps) ))
      [ 1; 2; 4 ]

let bench_json_file = "BENCH_weakest_fd.json"

let mc_throughput_json () =
  let entry (name, repeats, work) =
    let latencies = Array.make repeats 0.0 in
    let schedules = ref 0 and steps = ref 0 in
    let t_all0 = Unix.gettimeofday () in
    for i = 0 to repeats - 1 do
      let t0 = Unix.gettimeofday () in
      let sch, stp = work () in
      latencies.(i) <- (Unix.gettimeofday () -. t0) *. 1e3;
      schedules := !schedules + sch;
      steps := !steps + stp
    done;
    let elapsed = Unix.gettimeofday () -. t_all0 in
    Array.sort compare latencies;
    Printf.sprintf
      {|    { "name": %S, "runs": %d, "schedules_per_run": %d, "schedules_per_sec": %.0f, "steps_per_sec": %.0f, "latency_ms": { "p50": %.3f, "p90": %.3f, "p99": %.3f } }|}
      name repeats
      (!schedules / repeats)
      (float_of_int !schedules /. elapsed)
      (float_of_int !steps /. elapsed)
      (percentile latencies 0.50)
      (percentile latencies 0.90)
      (percentile latencies 0.99)
  in
  String.concat ",\n" (List.map entry mc_throughput_workloads)

(* E15 rows for the same JSON file: SMR commands/sec and per-command
   latency percentiles over the loopback cluster, closed loop, plus the
   idle detector-overhead row (frames the links carry with no client). *)
let net_throughput_json () =
  let smr_row ~n ~count =
    let t = Net.Local.create ~period:16 ~n () in
    Net.Local.run t ~rounds:200;
    let lat = Array.make count 0.0 in
    let t_all0 = Unix.gettimeofday () in
    for i = 0 to count - 1 do
      let t0 = Unix.gettimeofday () in
      Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i);
      while smr_applied t 0 < i + 1 do
        Net.Local.step t
      done;
      lat.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
    done;
    let elapsed = Unix.gettimeofday () -. t_all0 in
    Array.sort compare lat;
    Printf.sprintf
      {|    { "name": "net_smr_loopback_n%d", "commands": %d, "commands_per_sec": %.0f, "latency_ms": { "p50": %.3f, "p90": %.3f, "p99": %.3f } }|}
      n count
      (float_of_int count /. elapsed)
      (percentile lat 0.50) (percentile lat 0.90) (percentile lat 0.99)
  in
  let heartbeat_row ~n ~rounds =
    let t = Net.Local.create ~period:16 ~n () in
    (* let Σ's initial join rounds settle so the window is steady-state *)
    Net.Local.run t ~rounds:200;
    let d0 = Net.Loopback.delivered (Net.Local.hub t) in
    let t0 = Unix.gettimeofday () in
    Net.Local.run t ~rounds;
    let elapsed = Unix.gettimeofday () -. t0 in
    let frames = Net.Loopback.delivered (Net.Local.hub t) - d0 in
    Printf.sprintf
      {|    { "name": "net_detector_idle_n%d", "rounds": %d, "frames_delivered": %d, "frames_per_round": %.3f, "frames_per_sec": %.0f }|}
      n rounds frames
      (float_of_int frames /. float_of_int rounds)
      (float_of_int frames /. elapsed)
  in
  String.concat ",\n"
    [
      smr_row ~n:3 ~count:200;
      smr_row ~n:5 ~count:200;
      heartbeat_row ~n:3 ~rounds:5_000;
    ]

(* E18 rows: the batched + pipelined hot path (ROADMAP item 1).  Same
   loopback cluster as E15 — the hub carries real encoded frames, so the
   binary codec tower is on the measured path — but driven with a
   *windowed* closed loop: keep up to [outstanding] commands in flight
   at replica 0 and let the proposer drain them into batches, [window]
   instances pipelined.  The contract asserted in CI: the n=3 row beats
   the one-at-a-time [net_smr_loopback_n3] row by >= 5x, and n=3 → n=7
   degrades sub-linearly (quorum size grows, but batching amortises the
   extra acceptors).  The n=3 row also carries the full power-of-two
   latency histogram (microseconds, {!Obs.Metrics} buckets) so the tail
   is visible, not just three percentiles. *)
let batch_closed_loop ~n ~count ~window ~batch_max ~outstanding =
  let t = Net.Local.create ~period:16 ~window ~batch_max ~n () in
  Net.Local.run t ~rounds:200;
  (* every command originates at replica 0 with consecutive seqs and is
     applied in log order, so command i's apply time is the step at
     which node 0's applied count first exceeds i *)
  let submit_at = Array.make count 0.0 in
  let lat = Array.make count 0.0 in
  let submitted = ref 0 and applied = ref 0 in
  let t_all0 = Unix.gettimeofday () in
  while !applied < count do
    while !submitted < count && !submitted - !applied < outstanding do
      submit_at.(!submitted) <- Unix.gettimeofday ();
      Net.Local.submit t 0 (Printf.sprintf "cmd-%d" !submitted);
      incr submitted
    done;
    Net.Local.step t;
    let a = min (smr_applied t 0) count in
    let now = Unix.gettimeofday () in
    while !applied < a do
      lat.(!applied) <- (now -. submit_at.(!applied)) *. 1e3;
      incr applied
    done
  done;
  let elapsed = Unix.gettimeofday () -. t_all0 in
  (elapsed, lat)

let batch_throughput_json () =
  let baseline_cps ~count =
    let t = Net.Local.create ~period:16 ~n:3 () in
    Net.Local.run t ~rounds:200;
    let t0 = Unix.gettimeofday () in
    for i = 0 to count - 1 do
      Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i);
      while smr_applied t 0 < i + 1 do
        Net.Local.step t
      done
    done;
    float_of_int count /. (Unix.gettimeofday () -. t0)
  in
  let base = baseline_cps ~count:200 in
  let row ~n ~count ~hist =
    let window = 16 and batch_max = 1024 and outstanding = 512 in
    let elapsed, lat = batch_closed_loop ~n ~count ~window ~batch_max ~outstanding in
    let cps = float_of_int count /. elapsed in
    let hist_field =
      if not hist then ""
      else begin
        (* power-of-two µs buckets — the same shape `cluster.exe bench
           --json` emits, so tooling reads both *)
        let m = Obs.Metrics.create () in
        Array.iter
          (fun l ->
            Obs.Metrics.observe m "bench.latency_us"
              (int_of_float (l *. 1e3)))
          lat;
        match Obs.Metrics.histogram m "bench.latency_us" with
        | None -> ""
        | Some h ->
          let last = ref 0 in
          Array.iteri
            (fun i c -> if c > 0 then last := i)
            h.Obs.Metrics.buckets;
          let cells =
            List.init (!last + 1) (fun i ->
                string_of_int h.Obs.Metrics.buckets.(i))
          in
          Printf.sprintf
            {|, "latency_us_hist": { "count": %d, "min": %d, "max": %d, "buckets_pow2": [%s] }|}
            h.Obs.Metrics.h_count h.Obs.Metrics.h_min h.Obs.Metrics.h_max
            (String.concat ", " cells)
      end
    in
    Array.sort compare lat;
    Printf.sprintf
      {|    { "name": "net_smr_batch_n%d", "commands": %d, "window": %d, "batch_max": %d, "outstanding": %d, "commands_per_sec": %.0f, "baseline_net_smr_loopback_n3_per_sec": %.0f, "speedup_vs_unbatched": %.2f, "latency_ms": { "p50": %.3f, "p90": %.3f, "p99": %.3f }%s }|}
      n count window batch_max outstanding cps base (cps /. base)
      (percentile lat 0.50) (percentile lat 0.90) (percentile lat 0.99)
      hist_field
  in
  String.concat ",\n"
    [
      row ~n:3 ~count:20_000 ~hist:true;
      row ~n:5 ~count:20_000 ~hist:false;
      row ~n:7 ~count:20_000 ~hist:false;
    ]

(* E16 rows: the closed loop of [net_throughput_json] with the nemesis
   dropping frames (Rel retransmitting around it), and one scripted
   partition+heal run reporting the measured Ω reconvergence latency. *)
let chaos_throughput_json () =
  let lossy_row ~n ~drop ~count =
    let h =
      Net.Chaos.create ~seed:1 ~n
        (chaos_schedule (Printf.sprintf "at 0 drop * %g" drop))
    in
    let ctrl = Net.Chaos.ctrl h 0 in
    let t = Net.Local.create ~period:16 ~wrap:(Net.Chaos.wrap h 0) ~n () in
    let step () =
      Net.Nemesis.tick ctrl;
      Net.Local.step t
    in
    for _ = 1 to 200 do
      step ()
    done;
    let lat = Array.make count 0.0 in
    let t_all0 = Unix.gettimeofday () in
    for i = 0 to count - 1 do
      let t0 = Unix.gettimeofday () in
      Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i);
      while smr_applied t 0 < i + 1 do
        step ()
      done;
      lat.(i) <- (Unix.gettimeofday () -. t0) *. 1e3
    done;
    let elapsed = Unix.gettimeofday () -. t_all0 in
    Array.sort compare lat;
    let s = Net.Nemesis.stats ctrl in
    Printf.sprintf
      {|    { "name": "net_chaos_smr_loss%g_n%d", "commands": %d, "drop_rate": %g, "frames_dropped": %d, "commands_per_sec": %.0f, "latency_ms": { "p50": %.3f, "p90": %.3f, "p99": %.3f } }|}
      (100. *. drop) n count drop s.Net.Nemesis.n_dropped
      (float_of_int count /. elapsed)
      (percentile lat 0.50) (percentile lat 0.90) (percentile lat 0.99)
  in
  let partition_row ~n =
    let cfg =
      {
        (Net.Chaos.default ~n
           ~schedule:(chaos_schedule "at 300 partition 0 1 | 2\nat 900 heal"))
        with
        Net.Chaos.rounds = 2_000;
        cmds = 20;
        cmd_every = 80;
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Net.Chaos.run cfg in
    let elapsed = Unix.gettimeofday () -. t0 in
    let heal =
      match r.Net.Chaos.heals with
      | { Net.Chaos.reconverged_in = Some d; _ } :: _ -> d
      | _ -> -1
    in
    Printf.sprintf
      {|    { "name": "net_chaos_partition_heal_n%d", "rounds": %d, "rounds_per_sec": %.0f, "heal_reconverge_rounds": %d, "frames_dropped": %d, "rel_retransmits": %d, "invariants_ok": %b }|}
      n r.Net.Chaos.rounds_run
      (float_of_int r.Net.Chaos.rounds_run /. elapsed)
      heal r.Net.Chaos.nemesis.Net.Nemesis.n_dropped
      r.Net.Chaos.rel_retransmits (Net.Chaos.ok r)
  in
  String.concat ",\n"
    [
      lossy_row ~n:3 ~drop:0.01 ~count:100;
      lossy_row ~n:3 ~drop:0.05 ~count:100;
      partition_row ~n:3;
    ]

(* E17 rows: aggregate sharded throughput.  Groups share nothing, so
   each shard's whole closed loop — Zipfian key draw, submit, step its
   own group until applied — runs on its own domain; the aggregate is
   all domains' commands over the joint wall-clock window.  The
   reported speedup is against the single-group net_smr_loopback_n3
   closed loop measured the same way in this process.  The scaling
   contract is speedup ≈ min(shards, cores) × efficiency — the rows
   carry the machine's core count, and on a 1-core host the speedup is
   null with a note: the domains there only contend for one core. *)
let shard_throughput_json () =
  let baseline_cps ~count =
    let t = Net.Local.create ~period:16 ~n:3 () in
    Net.Local.run t ~rounds:200;
    let t0 = Unix.gettimeofday () in
    for i = 0 to count - 1 do
      Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i);
      while smr_applied t 0 < i + 1 do
        Net.Local.step t
      done
    done;
    float_of_int count /. (Unix.gettimeofday () -. t0)
  in
  let base = baseline_cps ~count:200 in
  let zipf_row ~shards ~count =
    let c = Shard.Cluster.create ~period:16 ~shards ~replicas:3 ~spares:0 () in
    Shard.Cluster.run c ~rounds:200;
    let per = count / shards in
    let lats = Array.make_matrix shards per 0.0 in
    (* each worker domain owns a disjoint set of shards end to end —
       Zipfian key stream (prefix-salted per shard), submissions, and
       the groups' stepping, so every group mutex is uncontended.  The
       domain count is capped at the machine's recommendation: more
       spinning domains than cores only buys stop-the-world GC stalls,
       not throughput. *)
    let workers = min shards (Domain.recommended_domain_count ()) in
    let drive s =
      let g = Shard.Cluster.group c s in
      let z =
        Shard.Zipf.create ~seed:(17 + s) ~prefix:(Printf.sprintf "s%d-" s)
          ~keys:256 ()
      in
      for i = 0 to per - 1 do
        let key = Shard.Zipf.next_key z in
        let target = Shard.Group.applied_max g + 1 in
        let t0 = Unix.gettimeofday () in
        if
          not
            (Shard.Group.submit_any g
               (Shard.Replica.App { key; value = Printf.sprintf "v%d" i }))
        then failwith "shard bench: no live member";
        while Shard.Group.applied_max g < target do
          Shard.Group.step g
        done;
        lats.(s).(i) <- (Unix.gettimeofday () -. t0) *. 1e3
      done
    in
    let t_all0 = Unix.gettimeofday () in
    let doms =
      Array.init workers (fun w ->
          Domain.spawn (fun () ->
              let s = ref w in
              while !s < shards do
                drive !s;
                s := !s + workers
              done))
    in
    Array.iter Domain.join doms;
    let elapsed = Unix.gettimeofday () -. t_all0 in
    let total = per * shards in
    let lat = Array.concat (Array.to_list lats) in
    Array.sort compare lat;
    let cps = float_of_int total /. elapsed in
    let cores = Domain.recommended_domain_count () in
    (* on one core the domains only take turns: the ratio would measure
       contention, not scaling *)
    let speedup =
      if cores > 1 then Printf.sprintf "%.2f" (cps /. base)
      else {|null, "note": "1 core: contention, not scaling"|}
    in
    Printf.sprintf
      {|    { "name": "net_shard_zipf_s%d_n3", "shards": %d, "cores": %d, "commands": %d, "commands_per_sec": %.0f, "baseline_net_smr_loopback_n3_per_sec": %.0f, "speedup_vs_single_group": %s, "latency_ms": { "p50": %.3f, "p90": %.3f, "p99": %.3f } }|}
      shards shards cores total cps base speedup
      (percentile lat 0.50) (percentile lat 0.90) (percentile lat 0.99)
  in
  let reconfig_row () =
    let cfg =
      {
        (Shard.Chaos.default ~shards:4 ~replicas:3
           ~schedule:(chaos_schedule "at 300 partition 0 1 | 2 3\nat 700 heal"))
        with
        Shard.Chaos.rounds = 2_400;
        cmds = 12;
        cmd_every = 60;
        reconfig_at = Some 1_200;
        reads = 4;
        seed = 1;
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Shard.Chaos.run cfg in
    let elapsed = Unix.gettimeofday () -. t0 in
    Printf.sprintf
      {|    { "name": "net_shard_reconfig_n3", "shards": %d, "rounds": %d, "rounds_per_sec": %.0f, "reconfig_done": %b, "final_epochs": [%s], "reads_ok": %d, "frames_dropped": %d, "invariants_ok": %b }|}
      cfg.Shard.Chaos.shards r.Net.Chaos.rounds_run
      (float_of_int r.rounds_run /. elapsed)
      r.detail.reconfig_done
      (String.concat ", "
         (Array.to_list (Array.map string_of_int r.detail.epochs)))
      r.detail.reads_ok
      r.nemesis.Net.Nemesis.n_dropped (Net.Chaos.ok r)
  in
  String.concat ",\n"
    [
      zipf_row ~shards:4 ~count:400;
      zipf_row ~shards:8 ~count:400;
      reconfig_row ();
    ]

(* E20 rows: the mixed-consistency cluster under full isolation.  One
   deterministic Ec.Chaos run yields both rows: the partition row reads
   the EC write rate inside the cut window (with the SMR freeze as its
   foil), the convergence row the measured heal bound. *)
let ec_throughput_json () =
  let n = 3 in
  let cfg = Ec.Chaos.default ~n ~schedule:(Ec.Chaos.default_schedule n) in
  let t0 = Unix.gettimeofday () in
  let r = Ec.Chaos.run cfg in
  let elapsed = Unix.gettimeofday () -. t0 in
  let cut_rounds =
    match Ec.Chaos.cut_window cfg.Ec.Chaos.schedule with
    | Some (c, h) -> h - c
    | None -> 0
  in
  let d = r.Net.Chaos.detail in
  let ec_total = Array.fold_left ( + ) 0 d.ec_puts in
  let converged = Option.value d.converged_in ~default:(-1) in
  String.concat ",\n"
    [
      Printf.sprintf
        {|    { "name": "net_ec_partition_n%d", "rounds": %d, "rounds_per_sec": %.0f, "cut_rounds": %d, "ec_puts_in_partition": %d, "ec_puts_per_kround_in_partition": %.0f, "smr_frozen": %b, "invariants_ok": %b }|}
        n r.rounds_run
        (float_of_int r.rounds_run /. elapsed)
        cut_rounds d.ec_puts_in_partition
        (1000.
        *. float_of_int d.ec_puts_in_partition
        /. float_of_int (max 1 cut_rounds))
        d.smr_frozen_in_partition (Net.Chaos.ok r);
      Printf.sprintf
        {|    { "name": "net_ec_converge_n%d", "ec_puts_total": %d, "converged_rounds_after_last_write": %d, "rel_retransmits": %d, "frames_dropped": %d, "invariants_ok": %b }|}
        n ec_total converged r.rel_retransmits
        r.nemesis.Net.Nemesis.n_dropped (Net.Chaos.ok r);
    ]

(* E21 rows: detector cost at scale and crash-to-new-leader latency
   (EXPERIMENTS.md E21, docs/DETECTORS.md).  The detector layer runs
   *bare* — [(Omega.detector ~kind ~period).proto] over [Local.make]
   with the binary codec, no SMR on top — so the frames counted are
   detector frames and nothing else, and n = 1000 is feasible.

   Frames are counted on the *send* side (the offered wire cost): a
   node receives at most one frame per step, so an all-to-all sender
   population at n > period outruns the receivers and a delivered-side
   count would saturate at 1 frame/round/process, flattering the
   heartbeat detector exactly where it is worst.  The ring rows —
   always far below the receive budget — additionally report the
   delivered-side [fd.frames{detector=ring}] series as a cross-check
   meter.  The scaling contract asserted in CI: every
   net_detector_ring_n* row stays ≤ 1.1 frames/round/process while the
   all-to-all baseline in the same row grows as (n-1)/period.  At
   n = 1000 the heartbeat baseline is reported analytically (62.4
   frames/round/process): measuring it would queue millions of frames
   the receivers can never drain.

   The failover rows crash pid 0 after the leader settles and count
   the rounds until every survivor's leader estimate reaches the new
   lowest live id.  The heartbeat detector's period must stretch with
   n (period ≥ 2(n-1) keeps the arrival rate under half the
   one-receive-per-step budget) or its own congestion convicts live
   peers — so its detection latency, ~4 periods, grows linearly with n
   while the ring's stays constant.  That trade is the row's point.

   The socket rows re-run the idle measurement over real Unix-domain
   stream sockets ({!Net.Tcp}, one transport per node, single
   process): same protocol value, real select loop, real framing.
   Rounds are still local steps, so frames/round/process is comparable
   with the sim rows. *)

let detector_classify = function
  | Fd.Emulated.Omega.H _ -> Some "heartbeat"
  | Fd.Emulated.Omega.R _ -> Some "ring"

let detector_kind_name = Fd.Emulated.Omega.kind_name

(* warmed-up idle measurement on loopback: (sent frames/round/process,
   sent frames, elapsed seconds, fd.frames{detector=kind} delivered
   delta) *)
let detector_idle ~kind ~n ~rounds =
  let period = 16 in
  let m = Obs.Metrics.create () in
  let det = Fd.Emulated.Omega.detector ~kind ~period in
  let c =
    Net.Local.make ~codec:Net.Codecs.omega_msg ~metrics:m
      ~classify:detector_classify ~n det.Sim.Layered.proto
  in
  Net.Local.cluster_run c ~rounds:(2 * period);
  let labels = [ ("detector", detector_kind_name kind) ] in
  let s0 = Net.Loopback.sent (Net.Local.cluster_hub c) in
  let m0 = Obs.Metrics.counter_l m "fd.frames" ~labels in
  let t0 = Unix.gettimeofday () in
  Net.Local.cluster_run c ~rounds;
  let elapsed = Unix.gettimeofday () -. t0 in
  let frames = Net.Loopback.sent (Net.Local.cluster_hub c) - s0 in
  let metered = Obs.Metrics.counter_l m "fd.frames" ~labels - m0 in
  ( float_of_int frames /. float_of_int rounds /. float_of_int n,
    frames,
    elapsed,
    metered )

let detector_scaling_row ~n ~rounds ~hb =
  let ring_fpp, frames, elapsed, metered =
    detector_idle ~kind:Fd.Emulated.Omega.Ring ~n ~rounds
  in
  let hb_fpp, hb_how =
    match hb with
    | `Measured hb_rounds ->
      let fpp, _, _, _ =
        detector_idle ~kind:Fd.Emulated.Omega.Heartbeat ~n ~rounds:hb_rounds
      in
      (fpp, "measured")
    | `Analytic -> (float_of_int (n - 1) /. 16., "analytic")
  in
  Printf.sprintf
    {|    { "name": "net_detector_ring_n%d", "rounds": %d, "frames_sent": %d, "fd_frames_metric": %d, "frames_per_round_per_process": %.4f, "heartbeat_frames_per_round_per_process": %.4f, "heartbeat_baseline": %S, "ratio_vs_all_to_all": %.4f, "frames_per_sec": %.0f }|}
    n rounds frames metered ring_fpp hb_fpp hb_how (ring_fpp /. hb_fpp)
    (float_of_int frames /. elapsed)

(* crash pid 0 once the leader has settled; count rounds until every
   survivor's leader estimate is the new lowest live id *)
let detector_failover_row ~kind ~n =
  let period =
    match kind with
    | Fd.Emulated.Omega.Ring -> 8
    | Fd.Emulated.Omega.Heartbeat -> max 8 (2 * (n - 1))
  in
  let tag = detector_kind_name kind in
  let det = Fd.Emulated.Omega.detector ~kind ~period in
  let c =
    Net.Local.make ~codec:Net.Codecs.omega_msg ~n det.Sim.Layered.proto
  in
  Net.Local.cluster_run c ~rounds:(8 * period);
  let live = List.tl (Sim.Pid.all n) in
  let leader_everywhere l =
    List.for_all
      (fun p ->
        Fd.Emulated.Omega.current (Net.Local.cluster_state c p) = l)
      live
  in
  if not (leader_everywhere 0) then
    failwith
      (Printf.sprintf "detector failover bench (%s n=%d): leader 0 did not \
                       settle" tag n);
  Net.Local.cluster_crash c 0;
  let t0 = Unix.gettimeofday () in
  let rec go r =
    if leader_everywhere 1 then r
    else if r > 100_000 then
      failwith
        (Printf.sprintf "detector failover bench (%s n=%d): no re-agreement"
           tag n)
    else begin
      Net.Local.cluster_step c;
      go (r + 1)
    end
  in
  let rounds = go 0 in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.sprintf
    {|    { "name": "detector_failover_%s_n%d", "period": %d, "crash_to_new_leader_rounds": %d, "crash_to_new_leader_periods": %.1f, "elapsed_ms": %.1f }|}
    tag n period rounds
    (float_of_int rounds /. float_of_int period)
    (1000. *. elapsed)

(* same idle measurement over real Unix-domain stream sockets: one
   {!Net.Tcp} transport per node, all in this process, stepped
   round-robin; send counts come from each transport's own stats *)
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
  let period = 16 in
  let dir = detector_mkdtemp 0 in
  let measure kind ~rounds =
    let tag = detector_kind_name kind in
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
    let deadline = Unix.gettimeofday () +. 10. in
    while
      Obs.Metrics.counter_l m "fd.frames" ~labels < n
      && Unix.gettimeofday () < deadline
    do
      step_all ()
    done;
    for _ = 1 to 2 * period do
      step_all ()
    done;
    let s0 = sent_total () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      step_all ()
    done;
    let frames = sent_total () - s0 in
    let elapsed = Unix.gettimeofday () -. t0 in
    Array.iter
      (fun nd -> (Net.Node.transport nd).Net.Transport.close ())
      nodes;
    (float_of_int frames /. float_of_int rounds /. float_of_int n, elapsed)
  in
  let rounds = 20 * period in
  let ring_fpp, elapsed = measure Fd.Emulated.Omega.Ring ~rounds in
  let hb_fpp, _ = measure Fd.Emulated.Omega.Heartbeat ~rounds in
  Printf.sprintf
    {|    { "name": "net_detector_ring_sockets_n%d", "transport": "unix-socket", "rounds": %d, "frames_per_round_per_process": %.4f, "heartbeat_frames_per_round_per_process": %.4f, "ratio_vs_all_to_all": %.4f, "elapsed_ms": %.1f }|}
    n rounds ring_fpp hb_fpp (ring_fpp /. hb_fpp) (1000. *. elapsed)

let detector_throughput_json () =
  String.concat ",\n"
    ([
       detector_scaling_row ~n:3 ~rounds:4_800 ~hb:(`Measured 4_800);
       detector_scaling_row ~n:10 ~rounds:1_600 ~hb:(`Measured 1_600);
       detector_scaling_row ~n:100 ~rounds:800 ~hb:(`Measured 320);
       detector_scaling_row ~n:1000 ~rounds:160 ~hb:`Analytic;
     ]
    @ List.map
        (fun n -> detector_failover_row ~kind:Fd.Emulated.Omega.Ring ~n)
        [ 3; 10; 100; 1000 ]
    @ List.map
        (fun n -> detector_failover_row ~kind:Fd.Emulated.Omega.Heartbeat ~n)
        [ 3; 10; 100 ]
    @ List.map (fun n -> detector_socket_row ~n) [ 3; 8; 14; 20 ])

let bench_json () =
  Printf.sprintf
    "{\n  \"suite\": \"weakest-fd-mc\",\n  \"cores\": %d,\n  \"workloads\": \
     [\n%s,\n%s,\n%s,\n%s,\n%s,\n%s,\n%s\n  ]\n}\n"
    (Domain.recommended_domain_count ())
    (mc_throughput_json ()) (net_throughput_json ())
    (batch_throughput_json ()) (chaos_throughput_json ())
    (shard_throughput_json ()) (ec_throughput_json ())
    (detector_throughput_json ())

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.6) ~kde:(Some 10)
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Analyze.merge ols instances results

(* [--json-only] skips the Bechamel timing pass and just regenerates the
   machine-readable rows — what CI's bench smoke and local BENCH refreshes
   want (seconds instead of minutes). *)
let json_only = Array.exists (fun a -> a = "--json-only") Sys.argv

(* [--e21-only] prints just the detector rows to stdout — the fast
   iteration loop for the detector-scaling work (seconds, no file). *)
let e21_only = Array.exists (fun a -> a = "--e21-only") Sys.argv

let () =
  if e21_only then begin
    Printf.printf "%s\n%!" (detector_throughput_json ());
    exit 0
  end;
  if json_only then begin
    let json = bench_json () in
    let oc = open_out bench_json_file in
    output_string oc json;
    close_out oc;
    Format.printf "throughput rows written to %s@." bench_json_file;
    exit 0
  end;
  Format.printf
    "Benchmarks: one group per experiment (E1..E10); times are per full \
     scenario run.@.@.";
  let results = benchmark () in
  let monotonic =
    Hashtbl.find results (Measure.label Instance.monotonic_clock)
  in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) monotonic []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Format.printf "%-55s %15s@." "benchmark" "time/run";
  Format.printf "%s@." (String.make 72 '-');
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) ->
          if e > 1e9 then Printf.sprintf "%8.3f s " (e /. 1e9)
          else if e > 1e6 then Printf.sprintf "%8.3f ms" (e /. 1e6)
          else if e > 1e3 then Printf.sprintf "%8.3f us" (e /. 1e3)
          else Printf.sprintf "%8.0f ns" e
        | Some [] | None -> "n/a"
      in
      Format.printf "%-55s %15s@." name estimate)
    rows;
  Format.printf
    "@.(absolute numbers are machine-dependent; the shapes that matter are \
     the ratios within each experiment group)@.";
  let json = bench_json () in
  let oc = open_out bench_json_file in
  output_string oc json;
  close_out oc;
  Format.printf "@.model-checker throughput written to %s@." bench_json_file
