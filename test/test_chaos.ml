(* The nemesis layer and chaos harness (docs/FAULTS.md):
   - schedule parser accepts the documented grammar and names bad lines;
   - an empty schedule is observationally identical to the bare transport
     (whole-cluster event traces compared byte for byte — QCheck over
     seeds and workloads);
   - same seed + schedule replays bit-for-bit (JSONL minus profile);
   - Rel restores reliable in-order exactly-once delivery over heavy loss;
   - schedules naming a process outside the cluster are rejected;
   - the log specification's positive controls: a table of scripted
     cluster views, each judged by Cons.Log_spec.check and by the harness
     core, and the core's leader re-agreement check;
   - chaos runs survive partition+heal, sustained loss, skew, a kill and
     a majority crash with every online invariant green, and a run cut
     at the heal reports its failures. *)

let ok_schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> Alcotest.failf "schedule rejected: %s" e

let test_parse_schedule () =
  let s =
    ok_schedule
      "# adversary\n\
       at 0 drop * 0.05\n\
       at 10 partition 0 1 | 2 3 4\n\
       at 20 delay 0->1 3 jitter 2\n\
       at 30 flap 1-2 period 10 down 4\n\
       at 40 skew 2 3\n\
       at 50 kill 4\n\
       at 60 heal\n\
       at 70 clear\n"
  in
  (* symmetric flap expands to two directed links: 8 lines, 9 commands *)
  Alcotest.(check int) "commands" 9 (List.length s);
  let ticks = List.map fst s in
  Alcotest.(check (list int)) "sorted by tick"
    [ 0; 10; 20; 30; 30; 40; 50; 60; 70 ]
    ticks

let test_parse_errors () =
  let expect_error text =
    match Net.Nemesis.parse_schedule text with
    | Ok _ -> Alcotest.failf "accepted bad schedule %S" text
    | Error e ->
      Alcotest.(check bool) "error names a line" true
        (String.length e > 5 && String.sub e 0 5 = "line ")
  in
  expect_error "drop * 0.1";  (* missing "at TICK" *)
  expect_error "at x heal";
  expect_error "at 5 drop * 1.5";  (* probability out of range *)
  expect_error "at 5 partition 0 1";  (* one group is no partition *)
  expect_error "at 5 flap * period 4 down 9";  (* down > period *)
  expect_error "at 5 frobnicate *"

let test_parse_deisolate () =
  let s = ok_schedule "at 5 isolate 1\nat 9 deisolate 1\n" in
  Alcotest.(check int) "commands" 2 (List.length s);
  (match s with
  | [ (5, Net.Nemesis.Isolate p); (9, Net.Nemesis.Deisolate q) ] ->
    Alcotest.(check int) "isolated pid" 1 p;
    Alcotest.(check int) "deisolated pid" 1 q
  | _ -> Alcotest.fail "unexpected parse");
  let expect_error text =
    match Net.Nemesis.parse_schedule text with
    | Ok _ -> Alcotest.failf "accepted bad schedule %S" text
    | Error e ->
      Alcotest.(check bool) "error names a line" true
        (String.length e > 5 && String.sub e 0 5 = "line ")
  in
  expect_error "at 5 deisolate";  (* missing pid *)
  expect_error "at 5 deisolate x";  (* not a pid *)
  expect_error "at 5 deisolate 1 2"  (* trailing junk *)

let test_deisolate_selective () =
  (* isolate two nodes, reopen one: the other's cuts must stay in force;
     reopening it too clears the last cut *)
  let ctrl =
    Net.Nemesis.create ~n:3
      [
        (1, Net.Nemesis.Isolate 0);
        (1, Net.Nemesis.Isolate 1);
        (2, Net.Nemesis.Deisolate 0);
        (3, Net.Nemesis.Deisolate 1);
      ]
  in
  Alcotest.(check bool) "no cut before the schedule fires" false
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "both isolations in force" true
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "node 1's isolation survives node 0's deisolate"
    true
    (Net.Nemesis.cut_active ctrl);
  Net.Nemesis.tick ctrl;
  Alcotest.(check bool) "deisolating the last cut node heals the net" false
    (Net.Nemesis.cut_active ctrl)

(* ------------------------------------------------------------------ *)
(* Empty schedule ≡ bare transport                                     *)

(* Drive the loopback SMR cluster for [rounds] rounds with a scripted
   workload, collecting every node's events into one collector; return
   the (JSONL event lines, metric rows, applied logs) fingerprint. *)
let fingerprint ?(nemesis = false) ~seed ~rounds ~workload n =
  let collector = Obs.Collector.create () in
  let sink _ = Some collector.Obs.Collector.sink in
  let ctrl = Net.Nemesis.create ~seed ~n [] in
  let wrap =
    if nemesis then fun _ t -> Net.Nemesis.wrap ctrl t else fun _ t -> t
  in
  let cluster = Net.Local.create ~sink ~wrap ~n () in
  for r = 1 to rounds do
    if nemesis then Net.Nemesis.tick ctrl;
    List.iter
      (fun (at, p, payload) -> if at = r then Net.Local.cluster_submit cluster p payload)
      workload;
    Net.Local.cluster_step cluster
  done;
  let events =
    List.map Obs.Jsonl.event_line (Obs.Collector.events collector)
  in
  let logs =
    List.map (fun p -> Net.Local.cluster_outputs cluster p) (Sim.Pid.all n)
  in
  (events, Obs.Collector.metric_rows collector, logs)

let prop_empty_schedule_transparent =
  QCheck.Test.make ~count:10
    ~name:"nemesis with empty schedule is byte-identical to bare transport"
    QCheck.(
      pair (int_bound 1000)
        (small_list (pair (int_bound 199) (int_bound 2))))
    (fun (seed, cmds) ->
      let n = 3 in
      let workload =
        List.mapi
          (fun i (at, p) -> (1 + at, p, Printf.sprintf "w%d" i))
          cmds
      in
      let a = fingerprint ~nemesis:false ~seed ~rounds:250 ~workload n in
      let b = fingerprint ~nemesis:true ~seed ~rounds:250 ~workload n in
      a = b)

(* ------------------------------------------------------------------ *)
(* Rel over heavy loss                                                 *)

let test_rel_reliable_over_loss () =
  let n = 2 in
  let schedule = ok_schedule "at 0 drop * 0.4\nat 0 dup * 0.2\n" in
  let ctrl = Net.Nemesis.create ~seed:7 ~n schedule in
  let hub = Net.Loopback.create ~n in
  let rel p =
    Net.Rel.wrap ~resend_every:4
      (Net.Nemesis.wrap ctrl (Net.Loopback.endpoint hub p))
  in
  let r0 = rel 0 and r1 = rel 1 in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  let total = 100 in
  for i = 1 to total do
    t0.Net.Transport.send 1 (Bytes.of_string (Printf.sprintf "m%d" i))
  done;
  let got = ref [] in
  let budget = ref 50_000 in
  while List.length !got < total && !budget > 0 do
    decr budget;
    Net.Nemesis.tick ctrl;
    ignore (t0.Net.Transport.poll ~timeout_ms:0);
    match t1.Net.Transport.poll ~timeout_ms:0 with
    | Some (src, b) -> got := (src, Bytes.to_string b) :: !got
    | None -> ()
  done;
  Alcotest.(check (list (pair int string)))
    "all frames delivered exactly once, in order, through 40% loss"
    (List.init total (fun i -> (0, Printf.sprintf "m%d" (i + 1))))
    (List.rev !got);
  let s = Net.Rel.stats r0 in
  Alcotest.(check bool) "loss forced retransmissions" true
    (s.Net.Rel.retransmits > 0);
  Alcotest.(check int) "nothing left unacknowledged... yet" 0
    (let rec settle k =
       (* drain the tail of acks *)
       if k = 0 then (Net.Rel.stats r0).Net.Rel.unacked
       else begin
         Net.Nemesis.tick ctrl;
         ignore (t0.Net.Transport.poll ~timeout_ms:0);
         ignore (t1.Net.Transport.poll ~timeout_ms:0);
         if (Net.Rel.stats r0).Net.Rel.unacked = 0 then 0 else settle (k - 1)
       end
     in
     settle 5_000);
  ignore (Net.Rel.stats r1)

(* ------------------------------------------------------------------ *)
(* Chaos harness end to end                                            *)

let chaos_cfg ?(rounds = 2_500) ?(cmds = 12) ~seed schedule_text n =
  {
    (Net.Chaos.default ~n ~schedule:(ok_schedule schedule_text)) with
    Net.Chaos.seed;
    rounds;
    cmds;
    cmd_every = 80;
  }

let check_ok label (r : _ Net.Chaos.report) =
  Alcotest.(check (list string)) (label ^ ": no invariant failures") []
    r.Net.Chaos.failures;
  Alcotest.(check bool) (label ^ ": logs identical") true r.logs_identical;
  Alcotest.(check bool) (label ^ ": all commands applied") true r.all_applied

let test_chaos_partition_heal () =
  let r =
    Net.Chaos.run
      (chaos_cfg ~seed:3 "at 300 partition 0 1 | 2\nat 900 heal\n" 3)
  in
  check_ok "partition+heal" r;
  match r.Net.Chaos.heals with
  | [ h ] ->
    Alcotest.(check int) "heal round" 900 h.Net.Chaos.heal_round;
    Alcotest.(check bool) "leader re-agreed within bound" true
      (h.Net.Chaos.reconverged_in <> None)
  | hs -> Alcotest.failf "expected one heal, got %d" (List.length hs)

let test_chaos_loss_liveness () =
  let r = Net.Chaos.run (chaos_cfg ~seed:5 "at 0 drop * 0.05\n" 3) in
  check_ok "5% loss" r;
  Alcotest.(check bool) "the adversary actually dropped frames" true
    (r.Net.Chaos.nemesis.Net.Nemesis.n_dropped > 0);
  Alcotest.(check bool) "rel retransmitted around the loss" true
    (r.Net.Chaos.rel_retransmits > 0)

let test_chaos_skew () =
  let r = Net.Chaos.run (chaos_cfg ~seed:11 "at 0 skew 2 3\n" 3) in
  check_ok "skewed clock" r

let test_chaos_kill () =
  let r =
    Net.Chaos.run (chaos_cfg ~rounds:3_000 ~seed:13 "at 500 kill 2\n" 3)
  in
  check_ok "crash-stop" r;
  Alcotest.(check bool) "survivors went past the victim" true
    (r.Net.Chaos.detail.applied.(0) > r.detail.applied.(2))

(* Regression: once a majority has crashed the model owes no progress,
   so the watchdog must stay quiet (it used to report "no progress for
   800 rounds on a healthy network" at round 1235). *)
let test_chaos_majority_crash () =
  let r =
    Net.Chaos.run
      {
        (Net.Chaos.default ~n:3
           ~schedule:(ok_schedule "at 500 kill 1\nat 500 kill 2\n"))
        with
        Net.Chaos.seed = 1;
      }
  in
  Alcotest.(check (list string)) "no invariant failures" [] r.Net.Chaos.failures

(* Positive control: cut the run one round after the heal.  The lagging
   replica has not caught up and Ω has not re-agreed, so the heal,
   agreement and completion checks must all fire — a harness that
   dropped one of them would still pass every green run above. *)
let test_chaos_positive_control () =
  let r =
    Net.Chaos.run
      {
        (Net.Chaos.default ~n:3
           ~schedule:(ok_schedule "at 300 partition 0 1 | 2\nat 900 heal\n"))
        with
        Net.Chaos.seed = 1;
        rounds = 901;
      }
  in
  List.iter
    (fun msg ->
      Alcotest.(check bool) ("reports: " ^ msg) true
        (List.mem msg r.Net.Chaos.failures))
    [
      "heal at round 900: run ended before reconvergence";
      "end of run: survivor logs differ";
      "end of run: submitted commands missing";
    ]

(* ------------------------------------------------------------------ *)
(* Schedules naming processes outside the cluster                      *)

let test_schedule_pids_checked () =
  let rejected text =
    match Net.Nemesis.check ~n:3 (ok_schedule text) with
    | Ok () -> Alcotest.failf "accepted %S on n=3" text
    | Error e -> e
  in
  let e = rejected "at 300 partition 0 7 | 2\n" in
  Alcotest.(check bool) ("error names the command: " ^ e) true
    (String.length e > 7 && String.sub e 0 7 = "at 300 ");
  List.iter
    (fun text -> ignore (rejected text))
    [
      "at 1 kill 3\n";
      "at 1 skew 5 2\n";
      "at 1 isolate 4\n";
      "at 1 deisolate 3\n";
      "at 1 cut 0->9\n";
      "at 1 drop 8-* 0.1\n";
    ];
  Alcotest.(check bool) "in-range schedule accepted" true
    (Net.Nemesis.check ~n:3
       (ok_schedule "at 1 kill 2\nat 2 cut 0->2\nat 3 partition 0 | 1 2\n")
    = Ok ());
  match
    Net.Nemesis.create ~n:3 (ok_schedule "at 300 partition 0 7 | 2\n")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Nemesis.create accepted pid 7 on n=3"

(* The cut leaves a majority component under a majority partition or a
   single isolation, and none under full isolation. *)
let test_majority_component () =
  let at tick text =
    let ctrl = Net.Nemesis.create ~n:3 (ok_schedule text) in
    for _ = 1 to tick do
      Net.Nemesis.tick ctrl
    done;
    Net.Nemesis.majority_component ctrl
  in
  Alcotest.(check bool) "no cut" true (at 1 "at 5 heal\n");
  Alcotest.(check bool) "partition 0 1 | 2" true
    (at 300 "at 300 partition 0 1 | 2\n");
  Alcotest.(check bool) "isolate 2" true (at 400 "at 400 isolate 2\n");
  Alcotest.(check bool) "full isolation" false
    (at 400 "at 400 partition 0 | 1 | 2\n");
  Alcotest.(check bool) "unlisted pids are singletons" false
    (at 10 "at 10 partition 0 | 1\n")

(* ------------------------------------------------------------------ *)
(* The harness core against a scripted cluster view                    *)

(* A scripted three-replica group: [logs.(p)] is replica p's applied log,
   every entry its own command; [submitted] (origin, command) pairs are
   registered at round 1, and nodes die when the schedule kills them. *)
let scripted ?(schedule = "") ?reagree ?(rounds = 300) ?(submitted = []) logs
    =
  let h = Net.Chaos.create ~seed:0 ~n:3 (ok_schedule schedule) in
  let dead = Array.make 3 false in
  let group =
    {
      Net.Chaos.step = ignore;
      crash = (fun p -> dead.(p) <- true);
      alive = (fun p -> not dead.(p));
      members = (fun () -> [ 0; 1; 2 ]);
      log = (fun p -> logs.(p));
      cmd = Option.some;
    }
  in
  let workload r =
    if r = 1 then
      List.iter (fun (o, c) -> Net.Chaos.submitted h 0 o c) submitted
  in
  (Net.Chaos.drive h [| group |] ?reagree ~watchdog:100 ~rounds ~workload
     ~detail:ignore [])
    .Net.Chaos.failures

let reports label msg failures =
  Alcotest.(check bool)
    (Printf.sprintf "%s: reports %S in [%s]" label msg
       (String.concat "; " failures))
    true (List.mem msg failures)

(* The positive controls of the log specification: each row is a
   scripted group, judged by Cons.Log_spec.check (live while a majority
   is unkilled) and by the harness core.  A convicted row names the
   violation the spec reports and every line the harness reports, each
   violation once however long the run; a row without a conviction must
   pass both with nothing reported. *)
type conviction = { spec : string; harness : string list }

type row = {
  name : string;
  schedule : string;
  rounds : int;
  logs : string list array;
  submitted : (Sim.Pid.t * string) list;
  convicts : conviction option;
}

let rows =
  let stall = [| []; []; [] |] in
  let missing = "end of run: submitted commands missing" in
  let differ = "end of run: survivor logs differ" in
  let no_progress r =
    Printf.sprintf "round %d: no progress for 100 rounds on a healthy network"
      r
  in
  (* a safety violation: the harness reports it at round 50 *)
  let online ?(harness = []) spec =
    Some { spec; harness = ("round 50: " ^ spec) :: harness }
  in
  let never_applied =
    "validity violated: correct p0 lacks \"x\", which a correct process \
     submitted"
  in
  let diverging rounds =
    {
      name =
        (if rounds = 300 then "diverging logs"
         else Printf.sprintf "diverging logs, %d rounds" rounds);
      schedule = "";
      rounds;
      logs = [| [ "a"; "b" ]; [ "a"; "c" ]; [ "a" ] |];
      submitted = [ (0, "a"); (0, "b"); (1, "c") ];
      convicts =
        online
          "total order violated: logs of p0 and p1 are not prefix-compatible"
          ~harness:[ no_progress 102; differ; missing ];
    }
  in
  [
    diverging 300;
    (* the same violations, still each reported once *)
    diverging 2_500;
    {
      name = "survivor logs differ";
      schedule = "";
      rounds = 300;
      logs = [| [ "a" ]; [ "a"; "b" ]; [ "a"; "b" ] |];
      submitted = [ (1, "a"); (1, "b") ];
      convicts =
        Some
          {
            spec = "agreement violated: correct p0 and p1 hold different logs";
            harness = [ no_progress 102; differ; missing ];
          };
    };
    {
      name = "duplicate apply";
      schedule = "";
      rounds = 300;
      logs = [| [ "a"; "a" ]; [ "a"; "a" ]; [ "a"; "a" ] |];
      submitted = [ (0, "a") ];
      convicts = online "integrity violated: p0 applied \"a\" twice";
    };
    {
      name = "unsubmitted key";
      schedule = "";
      rounds = 300;
      logs = [| [ "a"; "z" ]; [ "a"; "z" ]; [ "a"; "z" ] |];
      submitted = [ (0, "a") ];
      convicts =
        online "integrity violated: p0 applied \"z\", which nobody submitted";
    };
    (* a correct origin's command that no replica ever applies *)
    {
      name = "watchdog";
      schedule = "";
      rounds = 300;
      logs = stall;
      submitted = [ (0, "x") ];
      convicts =
        Some { spec = never_applied; harness = [ no_progress 101; missing ] };
    };
    (* a lossy network owes no progress, but the command is still owed *)
    {
      name = "missing under loss";
      schedule = "at 0 drop * 0.5\n";
      rounds = 300;
      logs = stall;
      submitted = [ (0, "x") ];
      convicts = Some { spec = never_applied; harness = [ missing ] };
    };
    (* replica 2 applied its own command and was killed; the live
       majority never applies it *)
    {
      name = "killed replica's key lost";
      schedule = "at 5 kill 2\n";
      rounds = 300;
      logs = [| []; []; [ "k" ] |];
      submitted = [ (2, "k") ];
      convicts =
        Some
          {
            spec =
              "uniform agreement violated: correct p0 lacks \"k\", which a \
               process applied";
            harness = [ no_progress 102; missing ];
          };
    };
    {
      name = "clean run";
      schedule = "";
      rounds = 300;
      logs = [| [ "a"; "b" ]; [ "a"; "b" ]; [ "a"; "b" ] |];
      submitted = [ (0, "a"); (1, "b") ];
      convicts = None;
    };
    (* nothing is owed once a majority crashed *)
    {
      name = "missing after a majority crash";
      schedule = "at 5 kill 1\nat 5 kill 2\n";
      rounds = 300;
      logs = stall;
      submitted = [ (0, "x") ];
      convicts = None;
    };
  ]

(* [line] with the number of a leading "round N" dropped *)
let apart_from_round line =
  match Scanf.sscanf_opt line "round %d%[^\n]" (fun _ rest -> rest) with
  | Some rest -> "round" ^ rest
  | None -> line

let judge_row ({ logs; _ } as row) () =
  let killed =
    List.filter_map
      (function _, Net.Nemesis.Kill p -> Some p | _ -> None)
      (ok_schedule row.schedule)
  in
  let correct = List.filter (fun p -> not (List.mem p killed)) [ 0; 1; 2 ] in
  let spec =
    Cons.Log_spec.check
      ~live:(2 * List.length correct > 3)
      {
        Cons.Log_spec.logs = List.mapi (fun p l -> (p, l)) (Array.to_list logs);
        correct;
        submitted = row.submitted;
        key = Option.some;
      }
    |> List.map
         (Format.asprintf "%a"
            (Cons.Log_spec.pp_violation (fun ppf -> Format.fprintf ppf "%S")))
  in
  let failures =
    scripted ~schedule:row.schedule ~rounds:row.rounds
      ~submitted:row.submitted logs
  in
  let texts = List.map apart_from_round failures in
  Alcotest.(check (list string))
    "no two lines differ only in their round"
    (List.sort_uniq String.compare texts)
    (List.sort String.compare texts);
  match row.convicts with
  | None ->
    Alcotest.(check (list string)) "the spec finds nothing" [] spec;
    Alcotest.(check (list string)) "the harness reports nothing" [] failures
  | Some c ->
    reports "spec" c.spec spec;
    Alcotest.(check (list string)) "the harness's lines" c.harness failures

let test_core_reagreement () =
  let schedule = "at 10 partition 0 | 1 2\nat 20 heal\n" in
  let logs = [| []; []; [] |] in
  let reagree leader =
    { Net.Chaos.leader; metric = "test.heal"; heal_bound = 30 }
  in
  reports "never agree"
    "heal at round 20: no single live leader within 30 rounds"
    (scripted ~schedule ~reagree:(reagree (fun _ p -> p)) logs);
  Alcotest.(check (list string)) "one common live leader" []
    (scripted ~schedule ~reagree:(reagree (fun _ _ -> 0)) logs);
  reports "dead leader" "heal at round 20: run ended before reconvergence"
    (scripted ~rounds:40 ~schedule:(schedule ^ "at 15 kill 0\n")
       ~reagree:(reagree (fun _ _ -> 0)) logs)

(* ------------------------------------------------------------------ *)
(* Deterministic replay                                                *)

let jsonl_of_run ~seed =
  let collector = Obs.Collector.create () in
  let cfg =
    chaos_cfg ~rounds:1_500 ~seed
      "at 200 partition 0 1 | 2\nat 700 heal\nat 900 drop * 0.02\n" 3
  in
  let report = Net.Chaos.run ~collector cfg in
  let path = Filename.temp_file "wfd-chaos" ".jsonl" in
  Obs.Jsonl.write_run ~path ~meta:[ ("tool", "test") ] collector;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       (* profile spans carry wall-clock durations; everything else must
          replay identically *)
       let is_profile =
         String.length l >= 18 && String.sub l 0 18 = {|{"type":"profile",|}
       in
       if not is_profile then lines := l :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (report, List.rev !lines)

let test_chaos_replay_deterministic () =
  let r1, t1 = jsonl_of_run ~seed:21 in
  let r2, t2 = jsonl_of_run ~seed:21 in
  let _, t3 = jsonl_of_run ~seed:22 in
  Alcotest.(check bool) "reports identical" true (r1 = r2);
  Alcotest.(check bool) "traces identical minus profile" true (t1 = t2);
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "grammar round-trip" `Quick test_parse_schedule;
          Alcotest.test_case "errors name the line" `Quick test_parse_errors;
          Alcotest.test_case "deisolate grammar" `Quick test_parse_deisolate;
          Alcotest.test_case "deisolate is selective" `Quick
            test_deisolate_selective;
        ] );
      ( "transparency",
        [ QCheck_alcotest.to_alcotest prop_empty_schedule_transparent ] );
      ( "rel", [ Alcotest.test_case "exactly-once in-order over 40% loss" `Quick test_rel_reliable_over_loss ] );
      ( "nemesis",
        [
          Alcotest.test_case "pids outside the cluster rejected" `Quick
            test_schedule_pids_checked;
          Alcotest.test_case "majority component" `Quick
            test_majority_component;
        ] );
      ( "core",
        List.map
          (fun row -> Alcotest.test_case row.name `Quick (judge_row row))
          rows
        @ [
            Alcotest.test_case "leader re-agreement" `Quick
              test_core_reagreement;
          ] );
      ( "harness",
        [
          Alcotest.test_case "partition + heal converges" `Quick
            test_chaos_partition_heal;
          Alcotest.test_case "liveness under 5% loss" `Quick
            test_chaos_loss_liveness;
          Alcotest.test_case "skewed heartbeat clock" `Quick test_chaos_skew;
          Alcotest.test_case "crash-stop mid-run" `Quick test_chaos_kill;
          Alcotest.test_case "majority crash owes no progress" `Quick
            test_chaos_majority_crash;
          Alcotest.test_case "run cut at the heal fails its checks" `Quick
            test_chaos_positive_control;
          Alcotest.test_case "same seed+schedule replays bit-for-bit" `Quick
            test_chaos_replay_deterministic;
        ] );
    ]
