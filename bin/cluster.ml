(* A real SMR cluster on this machine: one OS process per replica,
   Unix-domain stream sockets between them, batched + pipelined quorum
   Paxos under an emulated (Ω, Σ) running on heartbeats — no simulator
   anywhere.

     dune exec bin/cluster.exe -- demo -n 3 --count 40
     dune exec bin/cluster.exe -- node --self 0 -n 3 --dir /tmp/wfd
     dune exec bin/cluster.exe -- client --dir /tmp/wfd --target 0 --count 10
     dune exec bin/cluster.exe -- bench -n 3 --clients 8 --duration 5

   [demo] spawns the cluster, runs a closed-loop client against node 0,
   SIGKILLs the highest-numbered replica halfway through, and exits 0 iff
   the survivors' log files meet the replicated-log specification
   (Cons.Log_spec) over the commands it submitted: every one applied
   exactly once, in one order — the paper's agreement, observed over
   sockets with a real crash.  [bench] is the
   load harness (Bench_load): closed- or open-loop multi-client drive
   with latency histograms.  Shared flags live in Cli_common. *)

open Cmdliner
open Cli_common

(* ---------------------------------------------------------------- node *)

let run_node dir self n period detector window batch_max tick_ms trace =
  serve_node ~dir ~n ~period ~detector ~window ~batch_max ~tick_ms ~trace self

(* -------------------------------------------------------------- client *)

let run_client dir target count prefix =
  let fd = connect_retry (client_addr dir target) ~attempts:50 ~delay_s:0.1 in
  let lats = closed_loop fd ~count ~prefix ~on_progress:(fun _ -> ()) in
  Unix.close fd;
  print_latencies lats

(* ---------------------------------------------------------------- demo *)

let run_demo n count period detector window batch_max tick_ms trace dir_opt =
  Random.self_init ();
  if n < 3 then failwith "demo needs n >= 3 (a majority must survive)";
  let dir = ensure_dir dir_opt in
  Printf.printf "demo: n=%d count=%d window=%d dir=%s\n%!" n count window dir;
  let c =
    spawn ~tool:"demo" n
      (serve_node ~dir ~n ~period ~detector ~window ~batch_max ~tick_ms ~trace)
  in
  let victim = n - 1 in
  guard c (fun () ->
      (* closed-loop client against node 0; SIGKILL the victim halfway *)
      let fd = connect_retry (client_addr dir 0) ~attempts:100 ~delay_s:0.1 in
      let killed = ref false in
      let lats =
        closed_loop fd ~count ~prefix:"cmd" ~on_progress:(fun k ->
            if (not !killed) && k >= count / 2 then begin
              killed := true;
              Printf.printf "killing node %d (SIGKILL) after %d commands\n%!"
                victim (k + 1);
              kill c victim
            end)
      in
      Unix.close fd;
      print_latencies lats);
  (* wait until every survivor has applied [count] entries; after a clean
     shutdown (which flushes traces) the log specification judges the
     files over the [count] commands *)
  let survivors = List.filter (fun i -> i <> victim) (Sim.Pid.all n) in
  let logs () =
    List.map (fun i -> (i, read_log (log_path dir i))) survivors
  in
  if
    not
      (settle ~every:0.2 ~timeout:30. (fun () ->
           List.for_all (fun (_, l) -> List.length l >= count) (logs ())))
  then begin
    List.iter
      (fun (i, l) ->
        Printf.eprintf "  node %d applied %d\n%!" i (List.length l))
      (logs ());
    fail c "survivors did not converge on the full log"
  end;
  stop c;
  let submitted = List.init count (command ~prefix:"cmd") in
  Option.iter (fail c) (log_verdict ~submitted (logs ()));
  Printf.printf
    "agreement: %d surviving replicas, identical logs, %d entries\n%!"
    (List.length survivors)
    (List.length (snd (List.hd (logs ()))));
  if trace then
    List.iter
      (fun i -> Printf.printf "trace: %s\n%!" (trace_path dir i))
      survivors;
  Printf.printf "demo OK\n%!"

(* --------------------------------------------------------------- chaos *)

(* The loopback chaos runs (docs/FAULTS.md).  Everything is driven by
   logical rounds and a seeded RNG, so two runs with the same seed and
   schedule produce identical logs and an identical JSONL trace (profile
   spans excluded) — the replayability the CI chaos smoke job diffs.
   Collect, run, print, write the trace; exit 1 if an invariant failed. *)
let run_harness ~meta trace_path pp
    (run : ?collector:Obs.Collector.t -> 'c -> _ Net.Chaos.report) cfg =
  let collector = Obs.Collector.create () in
  let report = run ~collector cfg in
  Format.printf "%a@?" pp report;
  Option.iter
    (fun path ->
      Obs.Jsonl.write_run ~path ~meta collector;
      Printf.printf "trace: %s\n%!" path)
    trace_path;
  if not (Net.Chaos.ok report) then Stdlib.exit 1

let run_chaos n seed rounds period detector window cmds cmd_every schedule_file
    trace_path =
  let schedule = load_schedule ~what:"chaos" ~n schedule_file in
  run_harness trace_path Net.Chaos.pp_report Net.Chaos.run
    ~meta:
      [
        ("tool", "chaos");
        ("n", string_of_int n);
        ("seed", string_of_int seed);
        ("rounds", string_of_int rounds);
        ("window", string_of_int window);
        ("detector", Fd.Emulated.Omega.kind_name detector);
      ]
    {
      (Net.Chaos.default ~n ~schedule) with
      seed;
      rounds;
      period;
      detector;
      window;
      cmds;
      cmd_every;
    }

(* ------------------------------------------------------------------ ec *)

(* The mixed-consistency cluster (docs/EC.md): every node runs the SMR
   stack and the EC store side by side; clients tag each request
   linearizable or eventual.

   [--transport loopback] (default) drives Ec.Chaos: the default schedule
   isolates *every* node (no majority anywhere), asserts EC writes keep
   flowing while SMR freezes, then heals and asserts store convergence,
   read-your-writes and Ω-EC re-agreement.  Deterministic replay; exits 0
   iff every invariant held.

   [--transport tcp] forks n mixed nodes over Unix-domain sockets, runs
   linearizable commands through node 0, an eventual put/get session
   against every node (read-your-writes over real sockets), then waits
   for anti-entropy to converge an eventually-written key everywhere. *)

let ec_request fd req =
  roundtrip fd (Net.Wire.to_bytes Ec.Mixed.request_codec req)

let ec_ereply fd req =
  Net.Wire.of_bytes Ec.Mixed.ereply_codec (ec_request fd req)

let lin_blocking fd payload =
  Net.Smr_node.decode_reply (ec_request fd (Ec.Mixed.Lin payload))

let eput_blocking fd ~key ~value =
  match ec_ereply fd (Ec.Mixed.Eput { key; value }) with
  | Ec.Mixed.Put_ack { lamport; origin } -> (lamport, origin)
  | _ -> failwith "eput: unexpected reply"

let eget_blocking fd ~key =
  match ec_ereply fd (Ec.Mixed.Eget { key }) with
  | Ec.Mixed.Get_hit { value; _ } -> Some value
  | Ec.Mixed.Get_miss -> None
  | Ec.Mixed.Put_ack _ -> failwith "eget: unexpected reply"

let run_ec_tcp n count period window sync_every tick_ms dir_opt =
  if n < 3 then failwith "ec tcp needs n >= 3";
  let dir = ensure_dir dir_opt in
  Printf.printf "ec: n=%d count=%d dir=%s\n%!" n count dir;
  let c =
    spawn ~tool:"ec" n (fun i ->
        Net.Smr_node.serve
          (Ec.Mixed.impl ~window ~sync_every ~period ())
          (node_config ~dir ~self:i ~n ~period
             ~detector:Fd.Emulated.Omega.Heartbeat ~window ~batch_max:1024
             ~tick_ms ~trace:false))
  in
  guard c (fun () ->
      let fds =
        Array.init n (fun i ->
            connect_retry (client_addr dir i) ~attempts:100 ~delay_s:0.1)
      in
      (* linearizable path through node 0 *)
      for k = 0 to count - 1 do
        ignore (lin_blocking fds.(0) (Printf.sprintf "lin-%d" k))
      done;
      Printf.printf "lin: %d commands decided via node 0\n%!" count;
      (* eventual path: a session per node, read-your-writes over sockets *)
      Array.iteri
        (fun p fd ->
          for i = 0 to 4 do
            let key = Printf.sprintf "s%d-k%d" p (i mod 2) in
            let value = Printf.sprintf "v%d-%d" p i in
            ignore (eput_blocking fd ~key ~value);
            match eget_blocking fd ~key with
            | Some v when v = value -> ()
            | Some v ->
              failwith
                (Printf.sprintf "RYW violated at node %d: wrote %s, read %s" p
                   value v)
            | None ->
              failwith
                (Printf.sprintf "RYW violated at node %d: key %s lost" p key)
          done)
        fds;
      Printf.printf "ec: read-your-writes held at all %d nodes\n%!" n;
      (* anti-entropy must converge every session's last write everywhere *)
      let converged () =
        List.for_all
          (fun p ->
            let key = Printf.sprintf "s%d-k0" p in
            let value = Printf.sprintf "v%d-4" p in
            Array.for_all (fun fd -> eget_blocking fd ~key = Some value) fds)
          (Sim.Pid.all n)
      in
      let t0 = Unix.gettimeofday () in
      if not (settle ~every:0.05 ~timeout:30. converged) then
        failwith "replicas did not converge";
      Printf.printf "ec: all replicas converged in %.0f ms\n%!"
        ((Unix.gettimeofday () -. t0) *. 1000.);
      Array.iter close_quiet fds);
  stop c;
  Printf.printf "ec OK\n%!"

(* --------------------------------------------------------------- shard *)

(* The sharded service (docs/SHARDING.md): S independent replica groups
   behind a ring router, epoch-based membership change through each
   shard's own log.

   [--transport loopback] (default) drives Shard.Chaos: every shard gets
   its own nemesis controller under the node → Rel → Nemesis → hub
   stack, a seeded Zipfian workload routes writes through the ring, and
   [--reconfig-at R] rotates every shard's membership mid-run.
   Deterministic; exits 0 iff every invariant held.

   [--transport tcp] forks shards × (replicas + spares) OS processes
   (Shard.Server over Unix-domain sockets, per-shard socket namespace),
   runs a Zipfian closed-loop client through Shard.Router over
   Shard.Server.ops, optionally submits the membership rotation mid-run,
   then checks quorum reads and judges each shard's log files by
   Cons.Log_spec: those of the final configuration's members that are
   still running. *)

let shard_node_addr dir s i =
  Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d-%d.sock" s i))

let shard_client_addr dir s i =
  Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "client-%d-%d.sock" s i))

let shard_log_path dir s i =
  Filename.concat dir (Printf.sprintf "log-%d-%d.txt" s i)

(* Over sockets a waiting read polls its samples every 50 ms, for 20 s. *)
let read_every_s = 0.05
let read_within_s = 20.

let run_shard_tcp shards replicas spares count period detector tick_ms seed
    keys reconfig_at dir_opt =
  Random.self_init ();
  if replicas < 3 then failwith "shard tcp needs replicas >= 3";
  (match reconfig_at with
  | Some _ when spares < 1 ->
    failwith "shard tcp: --reconfig-at needs at least one spare"
  | _ -> ());
  let universe = replicas + spares in
  let dir = ensure_dir dir_opt in
  Printf.printf "shard: %d shards x %d nodes (tcp) count=%d dir=%s\n%!" shards
    universe count dir;
  let cfg0 =
    Shard.Epoch.initial
      ~members:(Sim.Pidset.of_list (List.init replicas Fun.id))
  in
  let c =
    spawn ~tool:"shard" (shards * universe) (fun k ->
        let s = k / universe and i = k mod universe in
        Shard.Server.serve ~members:cfg0.members
          {
            (Net.Smr_node.default_config ~self:i
               ~addrs:(Array.init universe (shard_node_addr dir s))
               ~client_addr:(shard_client_addr dir s i))
            with
            Net.Smr_node.period;
            detector;
            tick_s = float_of_int tick_ms /. 1000.;
            log_path = Some (shard_log_path dir s i);
          })
  in
  (* the configuration in force per shard, as this client installed it *)
  let configs = Array.make shards cfg0 in
  (* the payloads this client submitted per shard, newest first *)
  let submitted = Array.make shards [] in
  guard c (fun () ->
      let conns =
        Array.init shards (fun s ->
            Array.init universe (fun i ->
                connect_retry (shard_client_addr dir s i) ~attempts:100
                  ~delay_s:0.1))
      in
      let ops =
        Array.init shards (fun s ->
            Shard.Server.ops
              ~config:(fun () -> configs.(s))
              ~roundtrip:(fun i -> roundtrip conns.(s).(i)))
      in
      let router =
        Shard.Router.create
          ~ring:(Shard.Ring.create (List.init shards Fun.id))
          ~ops:(Array.get ops)
          ~step:(fun () -> Unix.sleepf read_every_s)
      in
      let record s p =
        submitted.(s) <- Shard.Replica.payload_to_string p :: submitted.(s)
      in
      let reconfig_all () =
        for s = 0 to shards - 1 do
          match Shard.Epoch.rotate configs.(s) ~universe with
          | None -> failwith "no spare to rotate in"
          | Some next ->
            let members = Sim.Pidset.elements next.members in
            Printf.printf "reconfig shard %d: epoch %d members [%s]\n%!" s
              next.epoch
              (String.concat " " (List.map string_of_int members));
            let reconfig =
              Shard.Replica.Reconfig { epoch = next.epoch; members }
            in
            ignore (ops.(s).submit reconfig);
            configs.(s) <- next;
            record s reconfig
        done
      in
      let z = Shard.Zipf.create ~seed ~keys () in
      let last = Hashtbl.create 64 in
      let lats = ref [] in
      for k = 0 to count - 1 do
        if reconfig_at = Some k then reconfig_all ();
        let key = Shard.Zipf.next_key z in
        let value = Printf.sprintf "v-%06d" k in
        let t0 = Unix.gettimeofday () in
        (match Shard.Router.write router ~key ~value with
        | Some s -> record s (Shard.Replica.App { key; value })
        | None -> failwith "write not accepted");
        lats := (Unix.gettimeofday () -. t0) :: !lats;
        Hashtbl.replace last key value
      done;
      print_latencies (List.rev !lats);
      (* quorum reads over the final configuration; the system is
         quiescent, so retries only wait out apply lag *)
      let sampled =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) last []
        |> List.filteri (fun i _ -> i < 8)
      in
      List.iter
        (fun (key, expect) ->
          let s = Shard.Router.shard_of router key in
          match
            Shard.Router.read
              ~max_rounds:(int_of_float (read_within_s /. read_every_s))
              router ~key
          with
          | Ok (Some got) when got = expect -> ()
          | Ok got ->
            failwith
              (Printf.sprintf "read %S on shard %d: got %s, wanted %S" key s
                 (match got with
                 | Some g -> Printf.sprintf "%S" g
                 | None -> "nothing")
                 expect)
          | Error e ->
            failwith (Printf.sprintf "read %S on shard %d: %s" key s e))
        sampled;
      Printf.printf "quorum reads: %d keys verified\n%!" (List.length sampled);
      Array.iter (Array.iter close_quiet) conns);
  (* clean shutdown, then the log specification per shard over the files
     of the final configuration's survivors *)
  let survivors =
    Array.mapi
      (fun s (cfg : Shard.Epoch.config) ->
        List.filter
          (fun i -> running c ((s * universe) + i))
          (Sim.Pidset.elements cfg.members))
      configs
  in
  stop c;
  Array.iteri
    (fun s (cfg : Shard.Epoch.config) ->
      let logs =
        List.map
          (fun i -> (i, read_log (shard_log_path dir s i)))
          survivors.(s)
      in
      Option.iter
        (fun e -> fail c (Printf.sprintf "shard %d: %s" s e))
        (log_verdict ~submitted:submitted.(s) logs);
      Printf.printf "shard %d: %d replicas agree on %d entries (epoch %d)\n%!"
        s (List.length logs)
        (List.length (List.assoc (List.hd survivors.(s)) logs))
        cfg.epoch)
    configs;
  Printf.printf "shard demo OK\n%!"

(* ----------------------------------------------------------- cmdliner *)

let node_cmd =
  let self =
    Arg.(
      required
      & opt (some int) None
      & info [ "self" ] ~docv:"PID" ~doc:"This replica's identifier.")
  in
  Cmd.v
    (Cmd.info "node" ~doc:"Run one SMR replica (until SIGTERM).")
    Term.(
      const run_node $ dir_required $ self $ n_arg $ period_arg $ detector_arg
      $ window_arg ~default:16 $ batch_max_arg $ tick_arg $ trace_flag)

let client_cmd =
  let prefix =
    Arg.(
      value & opt string "cmd"
      & info [ "prefix" ] ~docv:"STR" ~doc:"Command payload prefix.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Closed-loop client: submit K commands, wait for each decision.")
    Term.(const run_client $ dir_required $ target_arg $ count_arg $ prefix)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo"
       ~doc:
         "Spawn an n-replica cluster over Unix-domain sockets, run a \
          closed-loop client, SIGKILL one replica mid-run, verify the \
          survivors applied identical logs.")
    Term.(
      const run_demo $ n_arg $ count_arg $ period_arg $ detector_arg
      $ window_arg ~default:16 $ batch_max_arg $ tick_arg $ trace_flag
      $ dir_opt)

let bench_cmd =
  let clients =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let outstanding =
    Arg.(
      value & opt int 64
      & info [ "outstanding" ] ~docv:"K"
          ~doc:"Closed loop: requests kept in flight per connection.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open loop: issue R requests/s across all connections on a \
             fixed schedule (0 = closed loop).")
  in
  let duration =
    Arg.(
      value & opt float 5.
      & info [ "duration" ] ~docv:"S" ~doc:"Measurement window, seconds.")
  in
  let size =
    Arg.(
      value & opt int 32
      & info [ "size" ] ~docv:"B" ~doc:"Command payload size, bytes (>= 8).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write a JSONL report here: one meta record, one metrics \
             record carrying the bench.latency_us histogram.")
  in
  let run n clients outstanding rate duration size period window batch_max
      tick_ms json dir_opt =
    Bench_load.run ~n ~clients ~outstanding ~rate ~duration ~size ~period
      ~window ~batch_max ~tick_ms ~json ~dir_opt
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Load harness: spawn an n-replica cluster, drive node 0 with C \
          multiplexed connections — closed loop (saturating, K in flight \
          per connection) or open loop (--rate, coordinated-omission \
          free) — and report throughput plus a latency histogram.")
    Term.(
      const run $ n_arg $ clients $ outstanding $ rate $ duration $ size
      $ period_arg $ window_arg ~default:16 $ batch_max_arg $ tick_arg $ json
      $ dir_opt)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the in-process loopback cluster under a scripted nemesis \
          (partitions, loss, skew, ...), checking agreement, quorum \
          intersection, leader reconvergence and progress online. Exits 0 \
          iff every invariant held. Deterministic: same seed and schedule \
          replay bit-for-bit.")
    Term.(
      const run_chaos $ n_arg
      $ seed_arg ~doc:"Nemesis RNG seed."
      $ rounds_arg ~doc:"Round-robin rounds to drive."
      $ period_arg $ detector_arg $ window_arg ~default:4
      $ cmds_arg ~default:20 ~doc:"Client commands submitted over the run."
      $ cmd_every_arg ~default:100 ~doc:"Rounds between command submissions."
      $ schedule_arg
          ~doc:
            "Fault schedule (docs/FAULTS.md grammar). Default: partition a \
             majority at round 300, heal at 900."
      $ trace_path_arg ~doc:"Write the run's JSONL trace here.")

let shard_cmd =
  let transport =
    Arg.(
      value
      & opt (enum [ ("loopback", `Loopback); ("tcp", `Tcp) ]) `Loopback
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "$(b,loopback): in-process deterministic run under the nemesis \
             (the CI smoke). $(b,tcp): one OS process per replica per shard \
             over Unix-domain sockets.")
  in
  let shards =
    Arg.(
      value & opt pos_int 4
      & info [ "shards" ] ~docv:"S" ~doc:"Number of replica groups.")
  in
  let replicas =
    Arg.(
      value & opt pos_int 3
      & info [ "replicas" ] ~docv:"N" ~doc:"Members per shard (initial epoch).")
  in
  let spares =
    Arg.(
      value & opt nonneg_int 1
      & info [ "spares" ] ~docv:"K"
          ~doc:"Extra replicas per shard installable by reconfiguration.")
  in
  let reconfig_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "reconfig-at" ] ~docv:"R"
          ~doc:
            "Rotate every shard's membership (drop the lowest member, \
             install a spare) at this round (loopback) or before this \
             command index (tcp).")
  in
  let keys =
    Arg.(
      value & opt int 64
      & info [ "keys" ] ~docv:"K" ~doc:"Zipfian key-space size.")
  in
  let run transport shards replicas spares seed rounds period detector cmds
      cmd_every reconfig_at schedule trace keys tick_ms dir_opt =
    match transport with
    | `Loopback ->
      let schedule =
        load_schedule ~what:"shard" ~n:(replicas + spares) schedule
      in
      run_harness trace Shard.Chaos.pp_report Shard.Chaos.run
        ~meta:
          [
            ("tool", "shard-chaos");
            ("shards", string_of_int shards);
            ("replicas", string_of_int replicas);
            ("seed", string_of_int seed);
            ("rounds", string_of_int rounds);
          ]
        {
          (Shard.Chaos.default ~shards ~replicas ~schedule) with
          Shard.Chaos.spares;
          seed;
          rounds;
          period;
          detector;
          cmds;
          cmd_every;
          reconfig_at;
        }
    | `Tcp ->
      run_shard_tcp shards replicas spares cmds period detector tick_ms seed
        keys reconfig_at dir_opt
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the sharded (Ω, Σ) service (docs/SHARDING.md): S replica \
          groups behind a keyspace ring, Zipfian closed-loop writes, \
          epoch-based membership rotation mid-run. Loopback mode replays \
          deterministically under a nemesis schedule and exits 0 iff every \
          invariant held; tcp mode deploys real processes and verifies \
          quorum reads and per-shard log agreement.")
    Term.(
      const run $ transport $ shards $ replicas $ spares
      $ seed_arg ~doc:"Nemesis / Zipfian RNG seed."
      $ rounds_arg ~doc:"Loopback: round-robin rounds to drive."
      $ period_arg $ detector_arg
      $ cmds_arg ~default:40
          ~doc:"Writes submitted over the run (loopback and tcp)."
      $ cmd_every_arg ~default:50
          ~doc:"Loopback: rounds between write submissions."
      $ reconfig_at
      $ schedule_arg
          ~doc:
            "Loopback: per-shard fault schedule (docs/FAULTS.md grammar). \
             Default: partition a majority at round 300, heal at 900."
      $ trace_path_arg ~doc:"Loopback: write the run's JSONL trace here."
      $ keys $ tick_arg $ dir_opt)

let ec_cmd =
  let transport =
    Arg.(
      value
      & opt (enum [ ("loopback", `Loopback); ("tcp", `Tcp) ]) `Loopback
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "$(b,loopback): deterministic in-process chaos run under a \
             nemesis schedule (the CI smoke). $(b,tcp): one OS process per \
             mixed node over Unix-domain sockets, driven by a real \
             mixed-consistency client.")
  in
  let sync_every =
    Arg.(
      value & opt pos_int 8
      & info [ "sync-every" ] ~docv:"R"
          ~doc:"Anti-entropy cadence: digest a peer every R rounds.")
  in
  let puts_every =
    Arg.(
      value & opt pos_int 10
      & info [ "puts-every" ] ~docv:"R"
          ~doc:"Loopback: every live node issues an eventual put every R \
                rounds.")
  in
  let ec_rounds =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Loopback: round-robin rounds to drive. Default scales with n: \
             after the full-isolation heal, the ARQ layer redelivers the whole \
             cut-era backlog at the model's one-receive-per-round rate, \
             so the post-heal tail grows with n-1.")
  in
  let run transport n seed rounds period window sync_every puts_every cmds
      cmd_every schedule trace tick_ms dir_opt =
    match transport with
    | `Loopback ->
      let schedule =
        match schedule with
        | None -> Ec.Chaos.default_schedule n
        | Some _ -> load_schedule ~what:"ec" ~n schedule
      in
      let base = Ec.Chaos.default ~n ~schedule in
      let rounds = Option.value rounds ~default:base.Ec.Chaos.rounds in
      run_harness trace Ec.Chaos.pp_report Ec.Chaos.run
        ~meta:
          [
            ("tool", "ec-chaos");
            ("n", string_of_int n);
            ("seed", string_of_int seed);
            ("rounds", string_of_int rounds);
            ("sync_every", string_of_int sync_every);
          ]
        {
          base with
          seed;
          rounds;
          period;
          window;
          sync_every;
          puts_every;
          lin_cmds = cmds;
          lin_every = cmd_every;
        }
    | `Tcp -> run_ec_tcp n cmds period window sync_every tick_ms dir_opt
  in
  Cmd.v
    (Cmd.info "ec"
       ~doc:
         "Run the mixed-consistency cluster (docs/EC.md): every node serves \
          both the linearizable SMR path and the eventually-consistent \
          store with the Ω-EC detector and anti-entropy. Loopback mode \
          isolates every node (no majority anywhere), asserts EC writes \
          keep flowing while SMR freezes, then heals and asserts \
          convergence, read-your-writes and leader re-agreement; exits 0 \
          iff every invariant held. Deterministic: same seed and schedule \
          replay bit-for-bit.")
    Term.(
      const run $ transport $ n_arg
      $ seed_arg ~doc:"Loopback: nemesis RNG seed."
      $ ec_rounds $ period_arg $ window_arg ~default:4 $ sync_every
      $ puts_every
      $ cmds_arg ~default:12
          ~doc:
            "Loopback: linearizable commands submitted over the run. Tcp: \
             linearizable commands driven through node 0."
      $ cmd_every_arg ~default:100
          ~doc:"Loopback: rounds between linearizable submissions."
      $ schedule_arg
          ~doc:
            "Loopback: fault schedule (docs/FAULTS.md grammar). Default: \
             isolate every node at round 400, heal at 1600."
      $ trace_path_arg ~doc:"Loopback: write the run's JSONL trace here."
      $ tick_arg $ dir_opt)

let () =
  let info =
    Cmd.info "cluster"
      ~doc:"Real asynchronous message-passing runtime for the paper's protocols."
  in
  Stdlib.exit
    (Cmd.eval
       (Cmd.group info
          [
            node_cmd;
            client_cmd;
            demo_cmd;
            bench_cmd;
            chaos_cmd;
            shard_cmd;
            ec_cmd;
          ]))
