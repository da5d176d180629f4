type summary = {
  algorithm : string;
  detector : string;
  scenario : string;
  terminated : bool;
  spec_ok : (unit, string) result;
  decision : string;
  latency : int option;
  steps : int;
  messages : int;
  metrics : (string * int) list;
}

let pp_summary fmt s =
  Format.fprintf fmt
    "@[%-18s %-12s %-18s %-6s %-8s dec=%-8s lat=%-6s steps=%-7d msgs=%d@]"
    s.algorithm s.detector s.scenario
    (if s.terminated then "done" else "BLOCKED")
    (match s.spec_ok with Ok () -> "ok" | Error _ -> "VIOLATION")
    s.decision
    (match s.latency with Some l -> string_of_int l | None -> "-")
    s.steps s.messages

type consensus_algo =
  | Quorum_paxos
  | Disk_paxos_shm
  | Disk_paxos_abd
  | Chandra_toueg
  | Multivalued of int

let consensus_algo_name = function
  | Quorum_paxos -> "quorum-paxos"
  | Disk_paxos_shm -> "disk-paxos/shm"
  | Disk_paxos_abd -> "disk-paxos/abd"
  | Chandra_toueg -> "chandra-toueg"
  | Multivalued w -> Printf.sprintf "multivalued-%db" w

type nbac_algo = Nbac_psi_fs | Two_phase_commit

let nbac_algo_name = function
  | Nbac_psi_fs -> "nbac/qc+fs"
  | Two_phase_commit -> "2pc"

type workload =
  | Consensus of {
      algo : consensus_algo;
      proposals : (Sim.Pid.t * int) list option;
    }
  | Quittable_consensus of { mode : Fd.Psi.mode option }
  | Nbac of {
      algo : nbac_algo;
      votes : (Sim.Pid.t * Qcnbac.Types.vote) list option;
    }
  | Registers of {
      ops_per_proc : int;
      registers : int;
      quorums : [ `Sigma | `Majority ];
    }
  | Sigma_extraction
  | Psi_extraction of { rounds : int; chunk : int }

let default_proposals n = List.map (fun p -> (p, p mod 2)) (Sim.Pid.all n)

let inputs_at_zero xs = List.map (fun (p, v) -> (0, p, v)) xs

let decision_summary ~algorithm ~detector (scenario : Scenario.t) problem
    (trace : ('st, 'v) Sim.Trace.t) =
  let outputs = trace.Sim.Trace.outputs in
  {
    algorithm;
    detector;
    scenario = scenario.Scenario.name;
    terminated = Sim.Trace.all_correct_output trace;
    spec_ok = Cons.Spec.check problem scenario.Scenario.fp outputs;
    decision =
      (match
         List.sort_uniq compare
           (List.map (fun (e : _ Sim.Trace.event) -> e.value) outputs)
       with
      | [] -> "-"
      | ds ->
        String.concat ","
          (List.map (Format.asprintf "%a" problem.Cons.Spec.pp) ds));
    latency = Sim.Trace.latency trace;
    steps = trace.Sim.Trace.steps;
    messages = trace.Sim.Trace.messages_sent;
    metrics = [];
  }

(* --- observability plumbing ---------------------------------------- *)

let sink_of obs =
  match obs with None -> None | Some c -> Some c.Obs.Collector.sink

(* Wrap a quorum-valued detector history so every query lands its quorum's
   size in a histogram — "quorum sizes touched" without touching the
   algorithms themselves. *)
let observe_quorums obs name fd =
  match obs with
  | None -> fd
  | Some c ->
    fun p t ->
      let q = fd p t in
      Obs.Metrics.observe c.Obs.Collector.metrics name (Sim.Pidset.cardinal q);
      q

let run_consensus_w ?obs ~seed ?(max_steps = 150_000) algo proposals
    (scenario : Scenario.t) =
  let sink = sink_of obs in
  let fp = scenario.Scenario.fp in
  let n = Sim.Failure_pattern.n fp in
  let proposals =
    match proposals with Some p -> p | None -> default_proposals n
  in
  let inputs = inputs_at_zero proposals in
  let stop = Sim.Engine.stop_when_all_correct_output fp in
  let finish trace =
    decision_summary
      ~algorithm:(consensus_algo_name algo)
      ~detector:
        (match algo with
        | Quorum_paxos | Multivalued _ -> "(Omega,Sigma)"
        | Disk_paxos_shm -> "Omega"
        | Disk_paxos_abd -> "(Omega,Sigma)"
        | Chandra_toueg -> "<>S")
      scenario
      (Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals)
      trace
  in
  match algo with
  | Quorum_paxos ->
    let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
    let sigma = observe_quorums obs "sigma.quorum_size" sigma in
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink ~render_out:string_of_int
        ~fd:(fun p t -> (omega p t, sigma p t))
        fp
    in
    finish (Sim.Engine.run cfg Cons.Quorum_paxos.protocol)
  | Multivalued width ->
    let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
    let sigma = observe_quorums obs "sigma.quorum_size" sigma in
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink ~render_out:string_of_int
        ~fd:(fun p t -> (omega p t, sigma p t))
        fp
    in
    finish (Sim.Engine.run cfg (Cons.Multivalued.protocol ~width))
  | Disk_paxos_shm ->
    let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    let cfg =
      Regs.Shm.config ~seed ~max_steps ~inputs ~stop ?sink ~fd:omega fp
    in
    finish
      (Regs.Shm.run
         ~registers:(Cons.Disk_paxos.registers ~n)
         cfg Cons.Disk_paxos.proto)
  | Disk_paxos_abd ->
    let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
    let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
    let sigma = observe_quorums obs "sigma.quorum_size" sigma in
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink
        ~fd:(fun p t -> (omega p t, sigma p t))
        fp
    in
    finish
      (Sim.Engine.run cfg
         (Regs.Emulate.protocol
            ~registers:(Cons.Disk_paxos.registers ~n)
            Cons.Disk_paxos.proto))
  | Chandra_toueg ->
    let suspects = Fd.Oracle.history Fd.Suspects.eventually_strong fp ~seed in
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink ~render_out:string_of_int ~fd:suspects
        fp
    in
    finish (Sim.Engine.run cfg Cons.Chandra_toueg.protocol)

let run_qc_w ?obs ~seed ?(max_steps = 150_000) mode (scenario : Scenario.t) =
  let fp = scenario.Scenario.fp in
  let n = Sim.Failure_pattern.n fp in
  let proposals = default_proposals n in
  let oracle =
    match mode with
    | None -> Fd.Psi.oracle
    | Some m -> Fd.Psi.oracle_forced m
  in
  let psi = Fd.Oracle.history oracle fp ~seed in
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~inputs:(inputs_at_zero proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ?sink:(sink_of obs)
      ~render_out:(fun d ->
        Format.asprintf "%a"
          (Qcnbac.Types.pp_qc_decision Format.pp_print_int)
          d)
      ~fd:psi fp
  in
  decision_summary ~algorithm:"qc-from-psi" ~detector:(Fd.Oracle.name oracle)
    scenario
    (Qcnbac.Qc_spec.problem ~pp:Format.pp_print_int ~proposals)
    (Sim.Engine.run cfg Qcnbac.Qc_psi.protocol)

let run_nbac_w ?obs ~seed ?(max_steps = 150_000) algo votes
    (scenario : Scenario.t) =
  let sink = sink_of obs in
  let render_outcome d = Format.asprintf "%a" Qcnbac.Types.pp_outcome d in
  let fp = scenario.Scenario.fp in
  let n = Sim.Failure_pattern.n fp in
  let votes =
    match votes with
    | Some v -> v
    | None -> List.map (fun p -> (p, Qcnbac.Types.Yes)) (Sim.Pid.all n)
  in
  let inputs = inputs_at_zero votes in
  let stop = Sim.Engine.stop_when_all_correct_output fp in
  let finish detector trace =
    decision_summary ~algorithm:(nbac_algo_name algo) ~detector scenario
      (Qcnbac.Nbac_spec.problem ~votes)
      trace
  in
  match algo with
  | Nbac_psi_fs ->
    let psi = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
    let fs = Fd.Oracle.history Fd.Fs.oracle fp ~seed:(seed + 1) in
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink ~render_out:render_outcome
        ~fd:(fun p t -> (psi p t, fs p t))
        fp
    in
    finish "(Psi,FS)" (Sim.Engine.run cfg Qcnbac.Nbac_from_qc.protocol)
  | Two_phase_commit ->
    let cfg =
      Sim.Engine.config ~seed ~max_steps ~inputs ~stop
        ~detect_quiescence:false ?sink ~render_out:render_outcome
        ~fd:(fun _ _ -> ())
        fp
    in
    finish "none" (Sim.Engine.run cfg Qcnbac.Two_phase_commit.protocol)

let register_workload ~rng ~n ~registers ~ops_per_proc =
  List.concat_map
    (fun p ->
      List.init ops_per_proc (fun i ->
          let time = (i * 40) + Sim.Rng.int rng 20 in
          let rid = Sim.Rng.int rng registers in
          let input =
            if Sim.Rng.bool rng then Regs.Abd.Read rid
            else Regs.Abd.Write (rid, (p * 1000) + i)
          in
          (time, p, input)))
    (Sim.Pid.all n)

let run_registers_w ?obs ~seed ?(max_steps = 80_000) ~ops_per_proc
    ~registers ~quorums (scenario : Scenario.t) =
  let fp = scenario.Scenario.fp in
  let n = Sim.Failure_pattern.n fp in
  let fd, detector =
    match quorums with
    | `Sigma -> (Fd.Oracle.history Fd.Sigma.oracle fp ~seed, "Sigma")
    | `Majority ->
      (* A fixed majority: intersection holds, completeness may not — the
         "register without Σ" configuration. *)
      let q = Sim.Pidset.of_list (List.init ((n / 2) + 1) (fun i -> i)) in
      ((fun _ _ -> q), "fixed-majority")
  in
  let inputs =
    register_workload ~rng:(Sim.Rng.make (seed + 13)) ~n ~registers
      ~ops_per_proc
  in
  let stop outputs =
    let responded p =
      List.length
        (List.filter
           (fun (e : _ Sim.Trace.event) ->
             Sim.Pid.equal e.pid p
             &&
             match e.value with
             | Regs.Abd.Responded _ -> true
             | Regs.Abd.Invoked _ -> false)
           outputs)
    in
    Sim.Pidset.for_all
      (fun p -> responded p >= ops_per_proc)
      (Sim.Failure_pattern.correct fp)
  in
  let fd = observe_quorums obs "sigma.quorum_size" fd in
  let render_op = function
    | Regs.Abd.Invoked { op_seq; _ } -> Printf.sprintf "invoke#%d" op_seq
    | Regs.Abd.Responded { op_seq; _ } -> Printf.sprintf "respond#%d" op_seq
  in
  let ecfg =
    Sim.Engine.config ~seed ~max_steps ~inputs ~stop ~detect_quiescence:false
      ?sink:(sink_of obs) ~render_out:render_op ~fd fp
  in
  let trace = Sim.Engine.run ecfg (Regs.Abd.protocol ~registers) in
  let lin = Regs.Linearizability.check_trace trace.Sim.Trace.outputs in
  {
    algorithm = "abd-registers";
    detector;
    scenario = scenario.Scenario.name;
    terminated = trace.Sim.Trace.stopped = `Condition;
    spec_ok = (if lin then Ok () else Error "history not linearizable");
    decision = (if lin then "linearizable" else "violated");
    latency = Sim.Trace.latency trace;
    steps = trace.Sim.Trace.steps;
    messages = trace.Sim.Trace.messages_sent;
    metrics = [];
  }

let run_sigma_extraction_w ?obs ~seed ?(max_steps = 60_000)
    (scenario : Scenario.t) =
  let fp = scenario.Scenario.fp in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed in
  let sigma = observe_quorums obs "sigma.quorum_size" sigma in
  let ecfg =
    Sim.Engine.config ~seed ~max_steps ~detect_quiescence:false
      ?sink:(sink_of obs)
      ~render_out:(fun q -> Format.asprintf "%a" Sim.Pidset.pp q)
      ~fd:sigma fp
  in
  let trace = Sim.Engine.run ecfg Extract.Sigma_extraction.protocol in
  let quorums = trace.Sim.Trace.outputs in
  let spec_ok = Fd.Sigma.check fp quorums in
  (match obs with
  | None -> ()
  | Some c ->
    List.iter
      (fun (e : _ Sim.Trace.event) ->
        Obs.Metrics.observe c.Obs.Collector.metrics "sigma.extracted_size"
          (Sim.Pidset.cardinal e.value))
      quorums);
  {
    algorithm = "extract-sigma";
    detector = "D=Sigma via ABD";
    scenario = scenario.Scenario.name;
    terminated = quorums <> [];
    spec_ok;
    decision = Printf.sprintf "%d quorums" (List.length quorums);
    latency = Sim.Trace.latency trace;
    steps = trace.Sim.Trace.steps;
    messages = trace.Sim.Trace.messages_sent;
    metrics = [];
  }

let run_psi_extraction_w ?obs ~seed ~rounds ~chunk (scenario : Scenario.t) =
  let fp = scenario.Scenario.fp in
  let result =
    Extract.Psi_extraction.run ?sink:(sink_of obs) ~fp ~seed ~rounds ~chunk ()
  in
  let spec_ok =
    Fd.Psi.check fp ~horizon:result.Extract.Psi_extraction.horizon
      (Fd.Oracle.of_outputs ~init:Fd.Psi.Bot result.outputs)
  in
  {
    algorithm = "extract-psi";
    detector = "D=Psi via QC";
    scenario = scenario.Scenario.name;
    terminated = true;
    spec_ok;
    decision =
      (match result.mode with
      | `Red -> "FS(red)"
      | `Cons -> "(Omega,Sigma)");
    latency = None;
    steps = 0;
    messages = 0;
    metrics = [];
  }

let dispatch ?obs ?max_steps ~seed workload scenario =
  match workload with
  | Consensus { algo; proposals } ->
    run_consensus_w ?obs ~seed ?max_steps algo proposals scenario
  | Quittable_consensus { mode } ->
    run_qc_w ?obs ~seed ?max_steps mode scenario
  | Nbac { algo; votes } -> run_nbac_w ?obs ~seed ?max_steps algo votes scenario
  | Registers { ops_per_proc; registers; quorums } ->
    run_registers_w ?obs ~seed ?max_steps ~ops_per_proc ~registers ~quorums
      scenario
  | Sigma_extraction -> run_sigma_extraction_w ?obs ~seed ?max_steps scenario
  | Psi_extraction { rounds; chunk } ->
    run_psi_extraction_w ?obs ~seed ~rounds ~chunk scenario

let run ?max_steps ?trace ~seed workload (scenario : Scenario.t) =
  match trace with
  | None -> dispatch ?max_steps ~seed workload scenario
  | Some path ->
    let obs = Obs.Collector.create () in
    let s = dispatch ~obs ?max_steps ~seed workload scenario in
    let meta =
      [
        ("kind", "run");
        ("algorithm", s.algorithm);
        ("detector", s.detector);
        ("scenario", s.scenario);
        ("seed", string_of_int seed);
        ("spec", match s.spec_ok with Ok () -> "ok" | Error e -> e);
      ]
    in
    Obs.Jsonl.write_run ~path ~meta obs;
    { s with metrics = Obs.Collector.metric_rows obs }

(* ------------------------------------------------------------------ *)
(* Model checking (the Mc subsystem) over the registered targets.      *)

type mc_opts = Mc.Harness.opts = {
  explorer : Mc.Harness.explorer;
  domains : int;
  budget : int;
  inner_budget : int;
  max_crashes : int;
  horizon : int;
  stride : int;
  d : int option;
  shrink : bool;
  seed : int;
}

let mc_default_opts = Mc.Harness.default_opts

type mc_summary = {
  target : string;
  explorer : string;
  patterns : int;
  schedules : int;
  mc_steps : int;
  exhausted : bool;
  counterexample : Mc.Harness.counterexample option;
}

let pp_mc_summary fmt s =
  Format.fprintf fmt
    "@[<v>%-24s %-10s patterns=%-4d schedules=%-8d steps=%-9d %s: %s%a@]"
    s.target s.explorer s.patterns s.schedules s.mc_steps
    (if s.exhausted then "exhausted" else "budget-bounded")
    (match s.counterexample with
    | None -> "no violation"
    | Some _ -> "VIOLATION")
    (Format.pp_print_option (fun fmt c ->
         Format.fprintf fmt "@ %a" Mc.Harness.pp_counterexample c))
    s.counterexample

let summarize name (opts : Mc.Harness.opts) (r : Mc.Crash_adversary.report) =
  {
    target = name;
    explorer = Mc.Harness.explorer_name opts.Mc.Harness.explorer;
    patterns = r.Mc.Crash_adversary.patterns;
    schedules = r.Mc.Crash_adversary.schedules;
    mc_steps = r.Mc.Crash_adversary.steps;
    exhausted = r.Mc.Crash_adversary.complete;
    counterexample = r.Mc.Crash_adversary.counterexample;
  }

(* Tracing an exploration must not instrument the parallel explorer (its
   helper domains would race on the collector and break the bit-identical
   summary contract), so [--trace] records the search summary plus — when a
   counterexample was found — the fully deterministic replay of its
   schedule, events and all. *)
let write_mc_trace path name ~n ~(opts : Mc.Harness.opts) (s : mc_summary) =
  let obs = Obs.Collector.create () in
  (match s.counterexample with
  | Some c -> (
    match Mc.Targets.find name ~n with
    | Some (Mc.Targets.Packed t) ->
      ignore
        (Mc.Harness.replay ~seed:opts.Mc.Harness.seed
           ~sink:obs.Obs.Collector.sink t ~n c.Mc.Harness.schedule)
    | None -> ())
  | None -> ());
  let meta =
    [
      ("kind", "mc");
      ("target", s.target);
      ("explorer", s.explorer);
      ("n", string_of_int n);
      ("seed", string_of_int opts.Mc.Harness.seed);
      ("patterns", string_of_int s.patterns);
      ("schedules", string_of_int s.schedules);
      ("steps", string_of_int s.mc_steps);
      ("exhausted", string_of_bool s.exhausted);
      ( "violation",
        match s.counterexample with
        | None -> ""
        | Some c -> c.Mc.Harness.reason );
      ( "schedule",
        match s.counterexample with
        | None -> ""
        | Some c -> Mc.Schedule.to_string c.Mc.Harness.schedule );
    ]
  in
  Obs.Jsonl.write_run ~path ~meta obs

let model_check ?(opts = Mc.Harness.default_opts) ?trace name ~n =
  match Mc.Harness.validate_opts opts with
  | Error e -> Error e
  | Ok () -> (
    match Mc.Targets.find name ~n with
    | None ->
      Error
        (Printf.sprintf "unknown target %S (known: %s)" name
           (String.concat ", " Mc.Targets.names))
    | Some (Mc.Targets.Packed t) ->
      let s = summarize name opts (Mc.Parallel.search ~opts t ~n) in
      (match trace with
      | None -> ()
      | Some path -> write_mc_trace path name ~n ~opts s);
      Ok s)

let model_check_scenario ?(opts = Mc.Harness.default_opts) ?trace name
    (scenario : Scenario.t) =
  match Mc.Harness.validate_opts opts with
  | Error e -> Error e
  | Ok () -> (
    let n = scenario.Scenario.n in
    let fp = scenario.Scenario.fp in
    match Mc.Targets.find name ~n with
    | None ->
      Error
        (Printf.sprintf "unknown target %S (known: %s)" name
           (String.concat ", " Mc.Targets.names))
    | Some (Mc.Targets.Packed t) ->
      (* the single fixed pattern gets the whole budget *)
      let opts = { opts with Mc.Harness.inner_budget = opts.Mc.Harness.budget } in
      let s = summarize name opts (Mc.Parallel.search ~opts ~fps:[ fp ] t ~n) in
      (match trace with
      | None -> ()
      | Some path -> write_mc_trace path name ~n ~opts s);
      Ok s)

(* Re-exports so the [mc] executable (whose compilation unit shadows the
   [Mc] library module) can stay entirely within [Core]. *)

let mc_targets = Mc.Targets.names

type mc_replay_report = {
  re_schedule : string;
  re_outputs : string;
  re_violation : string option;
}

let mc_replay ?trace name ~n ~seed ~schedule =
  (* An illegal crash list is a usage error, not a clean replay:
     [Mc.Harness.replay] would turn it into a report with no violation. *)
  match
    try
      let s = Mc.Schedule.of_string schedule in
      ignore (Mc.Schedule.fp ~n s);
      Ok s
    with Invalid_argument e -> Error e
  with
  | Error e -> Error (Printf.sprintf "bad schedule: %s" e)
  | Ok sched -> (
    match Mc.Targets.find name ~n with
    | None ->
      Error
        (Printf.sprintf "unknown target %S (known: %s)" name
           (String.concat ", " mc_targets))
    | Some (Mc.Targets.Packed t) ->
      let obs =
        match trace with None -> None | Some _ -> Some (Obs.Collector.create ())
      in
      let r = Mc.Harness.replay ~seed ?sink:(sink_of obs) t ~n sched in
      (match (trace, obs) with
      | Some path, Some c ->
        Obs.Jsonl.write_run ~path
          ~meta:
            [
              ("kind", "mc-replay");
              ("target", name);
              ("n", string_of_int n);
              ("seed", string_of_int seed);
              ("schedule", Mc.Schedule.to_string sched);
              ( "violation",
                Option.value ~default:"" r.Mc.Harness.violation );
            ]
          c
      | _ -> ());
      Ok
        {
          re_schedule = Mc.Schedule.to_string sched;
          re_outputs = Lazy.force r.Mc.Harness.outputs;
          re_violation = r.Mc.Harness.violation;
        })
