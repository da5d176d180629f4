(* Benchmark harness: the deterministic experiments of EXPERIMENTS.md
   (E13, E15–E21) as the rows of BENCH_weakest_fd.json.  The paper is a
   theory paper, so every value is a count in the model's own units —
   schedules, steps, rounds, frames, consensus instances and invariant
   verdicts — and two runs on any host write byte-identical JSON: CI
   regenerates the file and diffs it against the committed copy.
   Wall-clock time is measured in perf/, never here.

     dune exec bench/main.exe
*)

let bench_json_file = "BENCH_weakest_fd.json"

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
  Printf.sprintf {|{ "p50": %d, "p90": %d, "p99": %d }|} (percentile s 0.50)
    (percentile s 0.90) (percentile s 0.99)

let per a b = float_of_int a /. float_of_int b

let chaos_schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* E13/E19: the model checker.  One exploration per row: its schedule
   and step counts, whether it found a violation, and whether it
   exhausted its space within budget.  Every count is a search metric
   (Mc.Parallel's report is bit-identical at every domain count). *)

(* PCT runs under one failure pattern: the whole budget goes to it. *)
let pct_opts ~budget =
  {
    Mc.Harness.default_opts with
    explorer = `Pct;
    budget;
    inner_budget = budget;
  }

let exhaustive (r : Mc.Exhaustive.report) =
  (r.schedules, r.steps, r.counterexample <> None, r.complete)

let parallel (r : Mc.Crash_adversary.report) =
  (r.schedules, r.steps, r.counterexample <> None, r.complete)

let ff n = Sim.Failure_pattern.failure_free n

let mc_workloads =
  [
    ( "mc_exhaustive_quorum_paxos_n2",
      fun () ->
        exhaustive
          (Mc.Exhaustive.search ~budget:50_000 (Mc.Targets.quorum_paxos ~n:2)
             ~fp:(ff 2)) );
    ( "mc_exhaustive_abd_n2",
      fun () ->
        exhaustive
          (Mc.Exhaustive.search ~budget:50_000 (Mc.Targets.abd ~n:2) ~fp:(ff 2))
    );
    (* the DPOR rows pair with mc_exhaustive_abd_n2: same target, same
       verdict, and the schedule count is the reduction; n=3 — out of the
       plain explorer's reach — completes *)
    ( "mc_dpor_abd_n2",
      fun () ->
        exhaustive
          (Mc.Dpor.search ~budget:50_000 ~shrink:false (Mc.Targets.abd ~n:2)
             ~fp:(ff 2)) );
    ( "mc_dpor_abd_n3",
      fun () ->
        exhaustive
          (Mc.Dpor.search ~budget:200_000 ~shrink:false (Mc.Targets.abd ~n:3)
             ~fp:(ff 3)) );
    ( "mc_pct_quorum_paxos_n3",
      fun () ->
        parallel
          (Mc.Parallel.search ~opts:(pct_opts ~budget:200) ~fps:[ ff 3 ]
             (Mc.Targets.quorum_paxos ~n:3) ~n:3) );
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
     4 domains: the exact diff checks that every domain count explores
     the same 478 schedules.  CI times the same sweep through mc.exe for
     the scaling check. *)
  @ List.map
      (fun domains ->
        ( Printf.sprintf "mc_exhaustive_abd_n2_domains%d" domains,
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
            parallel (Mc.Parallel.search ~opts (Mc.Targets.abd ~n:2) ~n:2) ))
      [ 1; 2; 4 ]

let mc_rows () =
  List.map
    (fun (name, work) ->
      let schedules, steps, violation, complete = work () in
      Printf.sprintf
        {|    { "name": %S, "schedules_per_run": %d, "steps_per_run": %d, "verdict": %S, "complete": %b }|}
        name schedules steps
        (if violation then "violation" else "clean")
        complete)
    mc_workloads

(* ------------------------------------------------------------------ *)
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
  Cons.Smr.applied (Net.Smr_node.smr_state (Net.Local.state t p))

let smr_instances t p =
  Cons.Smr.applied_instances (Net.Smr_node.smr_state (Net.Local.state t p))

(* [count] commands submitted at replica 0 of a fresh loopback cluster,
   after a 200-round warm-up: rounds taken, frames sent and consensus
   instances applied per command, and the latencies. *)
let smr_loop ~name ~n ?window ?batch_max ~outstanding ~count () =
  let t = Net.Local.create ~period:16 ?window ?batch_max ~n () in
  Net.Local.run t ~rounds:200;
  let hub = Net.Local.hub t in
  let s0 = Net.Loopback.sent hub and i0 = smr_instances t 0 in
  let rounds, lat =
    closed_loop ~name ~count ~outstanding
      ~submit:(fun _ i -> Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i))
      ~step:(fun () -> Net.Local.step t)
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
let net_rows () =
  let smr_row ~n ~count =
    let name = Printf.sprintf "net_smr_loopback_n%d" n in
    let rounds, frames, instances, lat =
      smr_loop ~name ~n ~outstanding:1 ~count ()
    in
    Printf.sprintf
      {|    { "name": %S, "commands": %d, "rounds": %d, "frames_per_cmd": %.4f, "instances_per_cmd": %.4f, "latency_rounds": %s }|}
      name count rounds frames instances (latency_rounds lat)
  in
  let idle_row ~n ~rounds =
    let t = Net.Local.create ~period:16 ~n () in
    (* let Σ's initial join rounds settle so the window is steady-state *)
    Net.Local.run t ~rounds:200;
    let d0 = Net.Loopback.delivered (Net.Local.hub t) in
    Net.Local.run t ~rounds;
    let frames = Net.Loopback.delivered (Net.Local.hub t) - d0 in
    Printf.sprintf
      {|    { "name": "net_detector_idle_n%d", "rounds": %d, "frames_delivered": %d, "frames_per_round": %.3f }|}
      n rounds frames (per frames rounds)
  in
  [
    smr_row ~n:3 ~count:200;
    smr_row ~n:5 ~count:200;
    idle_row ~n:3 ~rounds:5_000;
  ]

(* E18: the batched + pipelined hot path.  Same cluster as E15 — the hub
   carries real encoded frames — but up to [outstanding] commands in
   flight at replica 0, drained into batches of up to [batch_max] over
   [window] pipelined instances.  CI checks that batching cuts frames and
   instances per command at least 5× below net_smr_loopback_n3's, and
   that n=3 → n=7 costs under 9× in commands per round (the broadcast
   fan-out grows ≈9×).  The n=3 row also carries the power-of-two
   latency histogram ({!Obs.Metrics} buckets), so the tail is visible. *)
let batch_rows () =
  let window = 16 and batch_max = 1024 and outstanding = 512 in
  let row ~n ~count ~hist =
    let name = Printf.sprintf "net_smr_batch_n%d" n in
    let rounds, frames, instances, lat =
      smr_loop ~name ~n ~window ~batch_max ~outstanding ~count ()
    in
    let hist_field =
      if not hist then ""
      else begin
        let m = Obs.Metrics.create () in
        Array.iter (Obs.Metrics.observe m "bench.latency_rounds") lat;
        let h = Option.get (Obs.Metrics.histogram m "bench.latency_rounds") in
        let last = ref 0 in
        Array.iteri (fun i c -> if c > 0 then last := i) h.Obs.Metrics.buckets;
        Printf.sprintf
          {|, "latency_rounds_hist": { "count": %d, "min": %d, "max": %d, "buckets_pow2": [%s] }|}
          h.h_count h.h_min h.h_max
          (String.concat ", "
             (List.init (!last + 1) (fun i -> string_of_int h.buckets.(i))))
      end
    in
    Printf.sprintf
      {|    { "name": %S, "commands": %d, "window": %d, "batch_max": %d, "outstanding": %d, "rounds": %d, "commands_per_round": %.2f, "frames_per_cmd": %.4f, "instances_per_cmd": %.4f, "latency_rounds": %s%s }|}
      name count window batch_max outstanding rounds (per count rounds) frames
      instances (latency_rounds lat) hist_field
  in
  [
    row ~n:3 ~count:20_000 ~hist:true;
    row ~n:5 ~count:20_000 ~hist:false;
    row ~n:7 ~count:20_000 ~hist:false;
  ]

(* E16: the E15 closed loop with the nemesis dropping frames (Rel
   retransmitting around it), and one scripted partition+heal run
   reporting the measured Ω reconvergence latency. *)
let chaos_rows () =
  let lossy_row ~n ~drop ~count =
    let name = Printf.sprintf "net_chaos_smr_loss%g_n%d" (100. *. drop) n in
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
    let rounds, lat =
      closed_loop ~name ~count ~outstanding:1
        ~submit:(fun _ i -> Net.Local.submit t 0 (Printf.sprintf "cmd-%d" i))
        ~step
        ~applied:(fun _ -> smr_applied t 0)
        ()
    in
    Printf.sprintf
      {|    { "name": %S, "commands": %d, "drop_rate": %g, "frames_dropped": %d, "rounds": %d, "latency_rounds": %s }|}
      name count drop (Net.Nemesis.stats ctrl).n_dropped rounds
      (latency_rounds lat)
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
    let r = Net.Chaos.run cfg in
    let heal =
      match r.Net.Chaos.heals with
      | { Net.Chaos.reconverged_in = Some d; _ } :: _ -> d
      | _ -> -1
    in
    Printf.sprintf
      {|    { "name": "net_chaos_partition_heal_n%d", "rounds": %d, "heal_reconverge_rounds": %d, "frames_dropped": %d, "rel_retransmits": %d, "invariants_ok": %b }|}
      n r.rounds_run heal r.nemesis.n_dropped r.rel_retransmits
      (Net.Chaos.ok r)
  in
  [
    lossy_row ~n:3 ~drop:0.01 ~count:100;
    lossy_row ~n:3 ~drop:0.05 ~count:100;
    partition_row ~n:3;
  ]

(* E17: the sharded service (docs/SHARDING.md).  All groups step
   together, one round each per [Shard.Cluster.step], while every shard
   runs its own closed loop of Zipfian writes (one in flight, keys
   salted per shard) — S loops per round where net_smr_loopback_n3 runs
   one.  The reconfig row is a full chaos run: per-shard partition+heal
   and a membership rotation, every epoch-handoff invariant checked. *)
let shard_rows () =
  let zipf_row ~shards ~count =
    let name = Printf.sprintf "net_shard_zipf_s%d_n3" shards in
    let c = Shard.Cluster.create ~period:16 ~shards ~replicas:3 ~spares:0 () in
    Shard.Cluster.run c ~rounds:200;
    let group = Array.init shards (Shard.Cluster.group c) in
    let base = Array.map Shard.Group.applied_max group in
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
              (Shard.Group.submit_any group.(s)
                 (Shard.Replica.App { key; value = Printf.sprintf "v%d" i }))
          then failwith (name ^ ": no live member"))
        ~step:(fun () -> Shard.Cluster.step c)
        ~applied:(fun s -> Shard.Group.applied_max group.(s) - base.(s))
        ()
    in
    let total = each * shards in
    Printf.sprintf
      {|    { "name": %S, "shards": %d, "commands": %d, "rounds": %d, "commands_per_round": %.2f, "latency_rounds": %s }|}
      name shards total rounds (per total rounds) (latency_rounds lat)
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
    let r = Shard.Chaos.run cfg in
    Printf.sprintf
      {|    { "name": "net_shard_reconfig_n3", "shards": %d, "rounds": %d, "reconfig_done": %b, "final_epochs": [%s], "reads_ok": %d, "frames_dropped": %d, "invariants_ok": %b }|}
      cfg.Shard.Chaos.shards r.Net.Chaos.rounds_run r.detail.reconfig_done
      (String.concat ", "
         (Array.to_list (Array.map string_of_int r.detail.epochs)))
      r.detail.reads_ok r.nemesis.n_dropped (Net.Chaos.ok r)
  in
  [
    zipf_row ~shards:4 ~count:400;
    zipf_row ~shards:8 ~count:400;
    reconfig_row ();
  ]

(* E20: the mixed-consistency cluster under full isolation.  One
   Ec.Chaos run yields both rows: the partition row reads the EC write
   rate inside the cut window (with the SMR freeze as its foil), the
   convergence row the measured heal bound. *)
let ec_rows () =
  let n = 3 in
  let cfg = Ec.Chaos.default ~n ~schedule:(Ec.Chaos.default_schedule n) in
  let r = Ec.Chaos.run cfg in
  let cut_rounds =
    match Ec.Chaos.cut_window cfg.Ec.Chaos.schedule with
    | Some (c, h) -> h - c
    | None -> 0
  in
  let d = r.Net.Chaos.detail in
  [
    Printf.sprintf
      {|    { "name": "net_ec_partition_n%d", "rounds": %d, "cut_rounds": %d, "ec_puts_in_partition": %d, "ec_puts_per_kround_in_partition": %.0f, "smr_frozen": %b, "invariants_ok": %b }|}
      n r.rounds_run cut_rounds d.ec_puts_in_partition
      (1000. *. per d.ec_puts_in_partition (max 1 cut_rounds))
      d.smr_frozen_in_partition (Net.Chaos.ok r);
    Printf.sprintf
      {|    { "name": "net_ec_converge_n%d", "ec_puts_total": %d, "converged_rounds_after_last_write": %d, "rel_retransmits": %d, "frames_dropped": %d, "invariants_ok": %b }|}
      n
      (Array.fold_left ( + ) 0 d.ec_puts)
      (Option.value d.converged_in ~default:(-1))
      r.rel_retransmits r.nemesis.n_dropped (Net.Chaos.ok r);
  ]

(* E21: detector cost at scale and crash-to-new-leader latency
   (docs/DETECTORS.md).  The detector layer runs bare —
   [(Omega.detector ~kind ~period).proto] over [Local.make] with the
   binary codec, no SMR on top — so the frames counted are detector
   frames and nothing else, and n = 1000 is feasible.

   Frames are counted on the send side (the offered wire cost): a node
   receives at most one frame per step, so an all-to-all sender
   population at n > period outruns the receivers and a delivered-side
   count would saturate at 1 frame/round/process, flattering the
   heartbeat detector exactly where it is worst.  The ring rows also
   report the delivered-side [fd.frames{detector=ring}] series as a
   cross-check.  At n = 1000 the heartbeat baseline is analytic
   ((n-1)/period): measuring it would queue millions of frames the
   receivers can never drain.

   The failover rows crash pid 0 after the leader settles and count the
   rounds until every survivor's leader estimate reaches the new lowest
   live id.  The heartbeat detector's period must stretch with n (period
   ≥ 2(n-1) keeps the arrival rate under half the one-receive-per-step
   budget), so its detection latency, ~4 periods, grows linearly with n
   while the ring's stays constant.

   The socket rows re-run the idle measurement over real Unix-domain
   stream sockets ({!Net.Tcp}, one transport per node, one process):
   same protocol value, real select loop, real framing.  Rounds are
   still local steps, so frames/round/process is comparable with the
   sim rows. *)

let detector_classify = function
  | Fd.Emulated.Omega.H _ -> Some "heartbeat"
  | Fd.Emulated.Omega.R _ -> Some "ring"

let detector_kind_name = Fd.Emulated.Omega.kind_name

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
  let labels = [ ("detector", detector_kind_name kind) ] in
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
  Printf.sprintf
    {|    { "name": "net_detector_ring_n%d", "rounds": %d, "frames_sent": %d, "fd_frames_metric": %d, "frames_per_round_per_process": %.4f, "heartbeat_frames_per_round_per_process": %.4f, "heartbeat_baseline": %S, "ratio_vs_all_to_all": %.4f }|}
    n rounds frames metered ring_fpp hb_fpp hb_how (ring_fpp /. hb_fpp)

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
  Printf.sprintf
    {|    { "name": "detector_failover_%s_n%d", "period": %d, "crash_to_new_leader_rounds": %d, "crash_to_new_leader_periods": %.1f }|}
    tag n period rounds (per rounds period)

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
  Printf.sprintf
    {|    { "name": %S, "transport": "unix-socket", "rounds": %d, "frames_per_round_per_process": %.4f, "heartbeat_frames_per_round_per_process": %.4f, "ratio_vs_all_to_all": %.4f }|}
    name rounds ring_fpp hb_fpp (ring_fpp /. hb_fpp)

let detector_rows () =
  [
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
  @ List.map (fun n -> detector_socket_row ~n) [ 3; 8; 14; 20 ]

let () =
  let rows =
    List.concat_map
      (fun rows -> rows ())
      [
        mc_rows; net_rows; batch_rows; chaos_rows; shard_rows; ec_rows;
        detector_rows;
      ]
  in
  let oc = open_out bench_json_file in
  Printf.fprintf oc
    "{\n  \"suite\": \"weakest-fd-mc\",\n  \"workloads\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "%d rows written to %s\n" (List.length rows) bench_json_file
