(* Tests for the simulation substrate: RNG determinism, failure patterns,
   environments, network delivery guarantees, engine scheduling and
   quiescence, vector clocks, protocol layering. *)

let test_rng_determinism () =
  let a = Sim.Rng.make 42 and b = Sim.Rng.make 42 in
  let xs = List.init 100 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_derive_idempotent () =
  let r = Sim.Rng.make 7 in
  let a = Sim.Rng.derive r 5 and b = Sim.Rng.derive r 5 in
  let xs = List.init 20 (fun _ -> Sim.Rng.int a 100) in
  let ys = List.init 20 (fun _ -> Sim.Rng.int b 100) in
  Alcotest.(check (list int)) "derive is idempotent" xs ys

let test_rng_split_independent () =
  let r = Sim.Rng.make 7 in
  let a = Sim.Rng.split r 1 and b = Sim.Rng.split r 2 in
  let xs = List.init 50 (fun _ -> Sim.Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Sim.Rng.int b 1000) in
  Alcotest.(check bool) "different tags differ" false (xs = ys)

let test_rng_bounds () =
  let r = Sim.Rng.make 3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 7 in
    Alcotest.(check bool) "in bounds" true (0 <= v && v < 7)
  done

let test_shuffle_permutation () =
  let r = Sim.Rng.make 11 in
  let xs = List.init 20 (fun i -> i) in
  let ys = Sim.Rng.shuffle r xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

let test_pidset_majorities () =
  let ms = Sim.Pidset.majorities 4 in
  Alcotest.(check int) "C(4,3) majorities" 4 (List.length ms);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "majorities intersect" true
            (Sim.Pidset.intersects a b))
        ms)
    ms

let test_pidset_full () =
  Alcotest.(check int) "full 5" 5 (Sim.Pidset.cardinal (Sim.Pidset.full 5))

let fp_testable = Alcotest.testable Sim.Failure_pattern.pp (fun a b -> a = b)

let test_failure_pattern_basics () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 10); (3, 0) ] in
  Alcotest.(check int) "n" 5 (Sim.Failure_pattern.n fp);
  Alcotest.(check (option int)) "crash 1" (Some 10)
    (Sim.Failure_pattern.crash_time fp 1);
  Alcotest.(check (option int)) "crash 0" None
    (Sim.Failure_pattern.crash_time fp 0);
  Alcotest.(check bool) "3 crashed at 0" true
    (Sim.Failure_pattern.crashed_at fp ~time:0 3);
  Alcotest.(check bool) "1 alive at 9" false
    (Sim.Failure_pattern.crashed_at fp ~time:9 1);
  Alcotest.(check bool) "1 crashed at 10" true
    (Sim.Failure_pattern.crashed_at fp ~time:10 1);
  Alcotest.(check (list int)) "alive at 5" [ 0; 1; 2; 4 ]
    (Sim.Failure_pattern.alive_at fp ~time:5);
  Alcotest.(check (option int)) "first crash" (Some 0)
    (Sim.Failure_pattern.first_crash fp);
  Alcotest.(check bool) "majority correct" true
    (Sim.Failure_pattern.majority_correct fp)

let test_failure_pattern_validation () =
  Alcotest.check_raises "all crash rejected"
    (Invalid_argument
       "Failure_pattern.make: at least one process must be correct")
    (fun () -> ignore (Sim.Failure_pattern.make ~n:2 [ (0, 1); (1, 2) ]));
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Failure_pattern.make: duplicate pid") (fun () ->
      ignore (Sim.Failure_pattern.make ~n:3 [ (0, 1); (0, 2) ]))

let test_environment_membership () =
  let fp_minority = Sim.Failure_pattern.make ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  let fp_one = Sim.Failure_pattern.make ~n:5 [ (0, 1) ] in
  Alcotest.(check bool) "any admits minority-correct" true
    (Sim.Environment.mem Sim.Environment.any fp_minority);
  Alcotest.(check bool) "majority rejects minority-correct" false
    (Sim.Environment.mem Sim.Environment.majority_correct fp_minority);
  Alcotest.(check bool) "majority admits 1-crash" true
    (Sim.Environment.mem Sim.Environment.majority_correct fp_one);
  Alcotest.(check bool) "at-most-0 rejects 1-crash" false
    (Sim.Environment.mem (Sim.Environment.at_most 0) fp_one);
  Alcotest.(check bool) "p0-correct rejects p0 crash" false
    (Sim.Environment.mem (Sim.Environment.process_correct 0) fp_one)

let test_environment_sampling () =
  let rng = Sim.Rng.make 5 in
  List.iter
    (fun env ->
      for _ = 1 to 50 do
        let fp = Sim.Environment.sample env ~n:5 ~horizon:100 rng in
        Alcotest.(check bool)
          (Printf.sprintf "%s sample in env" (Sim.Environment.name env))
          true (Sim.Environment.mem env fp)
      done)
    [
      Sim.Environment.any;
      Sim.Environment.majority_correct;
      Sim.Environment.at_most 2;
      Sim.Environment.failure_free;
      Sim.Environment.process_correct 3;
      Sim.Environment.no_crash_before 20;
    ]

(* A flooding protocol: process 0 broadcasts a token at its first step; every
   process that receives the token outputs it once and re-broadcasts. *)
module Flood = struct
  type state = { seen : bool; started : bool }
  type msg = Token

  let proto : (state, msg, unit, unit, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> { seen = false; started = false });
      on_step =
        (fun ctx st recv ->
          let st, acts =
            match recv with
            | Some (_, Token) when not st.seen ->
              ( { st with seen = true },
                [ Sim.Protocol.Output ctx.now; Sim.Protocol.Broadcast Token ] )
            | Some (_, Token) | None -> (st, [])
          in
          if Sim.Pid.equal ctx.self 0 && not st.started then
            ({ st with started = true }, Sim.Protocol.Broadcast Token :: acts)
          else (st, acts));
      on_input = Sim.Protocol.no_input;
    }
end

let run_flood ?(policy = Sim.Network.Fifo) ?(seed = 1) fp =
  let cfg =
    Sim.Engine.config ~policy ~seed
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:(fun _ _ -> ())
      fp
  in
  Sim.Engine.run cfg Flood.proto

let test_engine_flood_reaches_all () =
  let fp = Sim.Failure_pattern.failure_free 6 in
  let trace = run_flood fp in
  Alcotest.(check bool) "all correct output" true
    (Sim.Trace.all_correct_output trace)

let test_engine_flood_policies () =
  let fp = Sim.Failure_pattern.make ~n:6 [ (2, 5) ] in
  List.iter
    (fun policy ->
      let trace = run_flood ~policy fp in
      Alcotest.(check bool) "all correct output under policy" true
        (Sim.Trace.all_correct_output trace))
    [
      Sim.Network.Fifo;
      Sim.Network.Random_delay { max_delay = 7; lambda_prob = 0.3 };
      Sim.Network.Partial_synchrony { gst = 40; delta = 3 };
    ]

let test_engine_determinism () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 3) ] in
  let t1 = run_flood ~seed:99 fp and t2 = run_flood ~seed:99 fp in
  Alcotest.(check int) "same steps" t1.Sim.Trace.steps t2.Sim.Trace.steps;
  Alcotest.(check int) "same messages" t1.Sim.Trace.messages_sent
    t2.Sim.Trace.messages_sent;
  Alcotest.(check (list (pair int int)))
    "same decision times"
    (Sim.Trace.decision_times t1)
    (Sim.Trace.decision_times t2)

(* With the scheduler refactor, all run nondeterminism flows through one
   [Scheduler.t]: equal (config, seed) must give *byte-identical* traces,
   whatever the delivery policy.  Serialized with closures so the comparison
   covers outputs, final states and every counter. *)
let test_engine_byte_determinism () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 3) ] in
  let bytes_of trace = Marshal.to_bytes trace [ Marshal.Closures ] in
  List.iter
    (fun (name, policy) ->
      let t1 = run_flood ~policy ~seed:99 fp
      and t2 = run_flood ~policy ~seed:99 fp in
      Alcotest.(check bool)
        (name ^ ": byte-identical traces")
        true
        (Bytes.equal (bytes_of t1) (bytes_of t2));
      let t3 = run_flood ~policy ~seed:100 fp in
      ignore t3)
    [
      ("fifo", Sim.Network.Fifo);
      ( "random-delay",
        Sim.Network.Random_delay { max_delay = 7; lambda_prob = 0.3 } );
      ("partial-synchrony", Sim.Network.Partial_synchrony { gst = 40; delta = 3 });
      ( "partition",
        Sim.Network.Partition
          {
            groups = [ Sim.Pidset.of_list [ 0; 1; 2 ] ];
            heal_at = 20;
          } );
    ]

let test_engine_crashed_never_steps () =
  (* Process 2 crashes at time 0: it must never output. *)
  let fp = Sim.Failure_pattern.make ~n:4 [ (2, 0) ] in
  let trace = run_flood fp in
  Alcotest.(check (list int)) "crashed silent" []
    (Sim.Trace.outputs_of trace 2)

(* A protocol that does nothing: the engine must detect quiescence. *)
let test_engine_quiescence () =
  let idle : (unit, unit, unit, unit, unit) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> ());
      on_step = (fun _ () _ -> ((), []));
      on_input = Sim.Protocol.no_input;
    }
  in
  let fp = Sim.Failure_pattern.failure_free 3 in
  let cfg = Sim.Engine.config ~fd:(fun _ _ -> ()) fp in
  let trace = Sim.Engine.run cfg idle in
  (match trace.Sim.Trace.stopped with
  | `Quiescent -> ()
  | `Condition | `Step_limit | `Hook -> Alcotest.fail "expected quiescence");
  Alcotest.(check bool) "few steps" true (trace.Sim.Trace.steps < 100)

let test_engine_inputs_delivered () =
  (* Echo protocol: outputs every input value. *)
  let echo : (unit, unit, unit, int, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> ());
      on_step = (fun _ () _ -> ((), []));
      on_input = (fun _ () v -> ((), [ Sim.Protocol.Output v ]));
    }
  in
  let fp = Sim.Failure_pattern.failure_free 3 in
  let cfg =
    Sim.Engine.config
      ~inputs:[ (0, 0, 10); (5, 1, 20); (9, 2, 30) ]
      ~fd:(fun _ _ -> ())
      fp
  in
  let trace = Sim.Engine.run cfg echo in
  Alcotest.(check (list int)) "p0 echo" [ 10 ] (Sim.Trace.outputs_of trace 0);
  Alcotest.(check (list int)) "p1 echo" [ 20 ] (Sim.Trace.outputs_of trace 1);
  Alcotest.(check (list int)) "p2 echo" [ 30 ] (Sim.Trace.outputs_of trace 2)

(* A relay ring that keeps inputs, messages, outputs and states changing
   for many rounds: an input adds to a process's total and starts a token
   that hops around the ring; each hop adds its count to the receiver's
   total and outputs the new total. *)
module Relay = struct
  let hops = 30

  let proto : (int, int, unit, int, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> 0);
      on_step =
        (fun ctx total recv ->
          match recv with
          | Some (_, hop) when hop < hops ->
            ( total + hop,
              [
                Sim.Protocol.Output (total + hop);
                Sim.Protocol.Send ((ctx.self + 1) mod ctx.n, hop + 1);
              ] )
          | Some _ | None -> (total, []));
      on_input =
        (fun ctx total v ->
          (total + v, [ Sim.Protocol.Send ((ctx.self + 1) mod ctx.n, 0) ]));
    }
end

(* The round hook's digest is a thunk: forcing it never changes the run,
   and the digest forced in a round does not depend on which earlier
   rounds forced theirs (the model checker forces it only past the prefix
   it replays). *)
let test_engine_lazy_digest () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (2, 150) ] in
  let run ?round_hook () =
    Sim.Engine.run
      (Sim.Engine.config
         ~policy:(Sim.Network.Random_delay { max_delay = 5; lambda_prob = 0.3 })
         ~seed:7
         ~inputs:[ (0, 0, 1); (10, 1, 10); (25, 2, 100); (60, 0, 1_000) ]
         ?round_hook
         ~fd:(fun _ _ -> ())
         fp)
      Relay.proto
  in
  (* A hook that forces the digest from round [from] on and records it
     against the round's index. *)
  let forcing ~from =
    let rounds = ref 0 and digests = ref [] in
    let hook ~now:_ ~digest ~steps:_ =
      if !rounds >= from then digests := (!rounds, digest ()) :: !digests;
      incr rounds;
      true
    in
    (hook, fun () -> (!rounds, List.rev !digests))
  in
  let bare = run () in
  let hook, recorded = forcing ~from:0 in
  let always = run ~round_hook:hook () in
  let rounds, every_digest = recorded () in
  let k = rounds / 2 in
  let hook, recorded = forcing ~from:k in
  let late = run ~round_hook:hook () in
  let _, late_digests = recorded () in
  Alcotest.(check bool) "the run spans many rounds" true (rounds >= 40);
  Alcotest.(check bool) "the digest moves with the state" true
    (List.length (List.sort_uniq compare (List.map snd every_digest)) > 10);
  let events (t : (int, int) Sim.Trace.t) =
    List.map (fun (e : _ Sim.Trace.event) -> (e.time, e.pid, e.value)) t.outputs
  in
  List.iter
    (fun (name, (t : (int, int) Sim.Trace.t)) ->
      Alcotest.(check (list (triple int int int)))
        (name ^ ": outputs") (events bare) (events t);
      Alcotest.(check (list int))
        (name ^ ": steps, ticks, sent, delivered")
        [ bare.steps; bare.ticks; bare.messages_sent; bare.messages_delivered ]
        [ t.steps; t.ticks; t.messages_sent; t.messages_delivered ];
      Alcotest.(check bool) (name ^ ": stopped") true (bare.stopped = t.stopped);
      Alcotest.(check (array int))
        (name ^ ": final states") bare.final_states t.final_states)
    [ ("forced every round", always); ("forced from round k", late) ];
  Alcotest.(check (list (pair int int)))
    "digests forced from round k equal the always-forced ones"
    (List.filter (fun (r, _) -> r >= k) every_digest)
    late_digests

(* A run resumed from a round-boundary snapshot, with the choices the
   original run made after it, is that run from there on: same outputs,
   counters, final states and per-round digests.  Under [Random_delay]
   the [Send_delay] and [Deliver_*] choices fall mid-round, between
   snapshots, so a resumed run starts inside the choice stream of a
   round's steps. *)
let test_engine_resume_from_snapshots () =
  let fp = Sim.Failure_pattern.make ~n:3 [ (2, 150) ] in
  let run ?resume ?save sched =
    let digests = ref [] in
    let round_hook ~now:_ ~digest ~steps:_ =
      digests := digest () :: !digests;
      true
    in
    let t =
      Sim.Engine.run ?resume ?save
        (Sim.Engine.config
           ~policy:(Sim.Network.Random_delay { max_delay = 5; lambda_prob = 0.3 })
           ~inputs:[ (0, 0, 1); (10, 1, 10); (25, 2, 100); (60, 0, 1_000) ]
           ~scheduler:sched ~round_hook
           ~fd:(fun _ _ -> ())
           fp)
        Relay.proto
    in
    (t, List.rev !digests)
  in
  let mid_round = ref 0 in
  let random = Sim.Scheduler.random (Sim.Rng.make 7) in
  let sched, choices =
    Sim.Scheduler.recording
      {
        Sim.Scheduler.choose =
          (fun c ->
            (match c with
            | Sim.Scheduler.Round_order _ -> ()
            | Send_delay _ | Deliver_pick _ | Deliver_skip _ -> incr mid_round);
            random.Sim.Scheduler.choose c);
      }
  in
  let snaps = ref [] in
  let save s = snaps := (List.length (choices ()), s) :: !snaps in
  let full, digests = run ~save sched in
  let choices = choices () in
  let snaps = List.rev !snaps in
  Alcotest.(check bool) "the run spans many rounds" true (List.length snaps >= 40);
  Alcotest.(check bool) "choices fall mid-round" true (!mid_round > 0);
  Alcotest.(check int) "one snapshot per round" (List.length digests)
    (List.length snaps);
  let events (t : (int, int) Sim.Trace.t) =
    List.map (fun (e : _ Sim.Trace.event) -> (e.time, e.pid, e.value)) t.outputs
  in
  List.iteri
    (fun r (consumed, snap) ->
      let rest = List.filteri (fun i _ -> i >= consumed) choices in
      let t, ds =
        run ~resume:snap (Sim.Scheduler.replay rest ~rest:Sim.Scheduler.first)
      in
      let name = Printf.sprintf "resumed after round %d" r in
      Alcotest.(check (list (triple int int int)))
        (name ^ ": outputs") (events full) (events t);
      Alcotest.(check (list int))
        (name ^ ": steps, ticks, sent, delivered")
        [ full.steps; full.ticks; full.messages_sent; full.messages_delivered ]
        [ t.steps; t.ticks; t.messages_sent; t.messages_delivered ];
      Alcotest.(check bool) (name ^ ": stopped") true (full.stopped = t.stopped);
      Alcotest.(check (array int))
        (name ^ ": final states") full.final_states t.final_states;
      Alcotest.(check (list int))
        (name ^ ": digests of the later rounds")
        (List.filteri (fun i _ -> i > r) digests)
        ds)
    snaps;
  let _, snap = List.hd snaps in
  let cfg = Sim.Engine.config ~fd:(fun _ _ -> ()) fp in
  Alcotest.check_raises "resuming needs a scheduler"
    (Invalid_argument "Engine.run: resuming needs a scheduler") (fun () ->
      ignore (Sim.Engine.run ~resume:snap cfg Relay.proto));
  Alcotest.check_raises "no snapshots with a sink"
    (Invalid_argument "Engine.run: snapshots are taken only without a sink")
    (fun () ->
      ignore
        (Sim.Engine.run ~save:ignore
           {
             cfg with
             sink =
               Some
                 {
                   Sim.Event.emit = ignore;
                   phase_enter = ignore;
                   phase_exit = ignore;
                 };
           }
           Relay.proto))

let test_vclock () =
  let open Sim.Vclock in
  let a = zero 3 in
  let b = tick a 0 in
  let c = tick b 1 in
  Alcotest.(check bool) "a <= b" true (leq a b);
  Alcotest.(check bool) "b <= c" true (leq b c);
  Alcotest.(check bool) "not c <= b" false (leq c b);
  Alcotest.(check bool) "dominates" true (dominates c a);
  let d = tick a 2 in
  Alcotest.(check bool) "concurrent" true (concurrent d c);
  let m = merge c d in
  Alcotest.(check bool) "merge upper bound" true (leq c m && leq d m);
  Alcotest.(check int) "get" 1 (get m 0)

let test_network_partition_freezes_cross_traffic () =
  let rng = Sim.Rng.make 3 in
  let groups =
    [ Sim.Pidset.of_list [ 0; 1 ]; Sim.Pidset.of_list [ 2; 3 ] ]
  in
  let net =
    Sim.Network.create
      (Sim.Network.Partition { groups; heal_at = 100 })
      (Sim.Scheduler.random rng)
  in
  (* Cross-group message at t=5: not deliverable before the heal. *)
  Sim.Network.send net ~now:5 ~src:0 ~dst:2 "x";
  (* Intra-group message: deliverable promptly. *)
  Sim.Network.send net ~now:5 ~src:0 ~dst:1 "y";
  Alcotest.(check (option (pair int string)))
    "intra delivered" (Some (0, "y"))
    (Sim.Network.deliver net ~now:6 ~dst:1);
  Alcotest.(check bool) "cross frozen" true
    (Sim.Network.deliver net ~now:50 ~dst:2 = None);
  Alcotest.(check (option (pair int string)))
    "cross delivered after heal" (Some (0, "x"))
    (Sim.Network.deliver net ~now:101 ~dst:2)

let test_layered_isolation () =
  (* The detector layer's messages must never leak into the main protocol
     and vice versa: run Σ-from-majority under the flood protocol and check
     the flood still completes and only sees Tokens. *)
  let fp = Sim.Failure_pattern.failure_free 4 in
  (* The flood protocol, reading a Σ value it ignores. *)
  let flood_with_fd :
      (Flood.state, Flood.msg, Sim.Pidset.t, unit, int) Sim.Protocol.t =
    {
      init = Flood.proto.Sim.Protocol.init;
      on_step =
        (fun ctx st recv ->
          Flood.proto.Sim.Protocol.on_step
            { ctx with Sim.Protocol.fd = () }
            st recv);
      on_input = Sim.Protocol.no_input;
    }
  in
  let layered =
    Sim.Layered.with_detector Fd.Emulated.Sigma_majority.detector flood_with_fd
  in
  let cfg =
    Sim.Engine.config ~seed:5 ~max_steps:20_000
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false
      ~fd:(fun _ _ -> ())
      fp
  in
  let trace = Sim.Engine.run cfg layered in
  Alcotest.(check bool) "flood completed under layering" true
    (Sim.Trace.all_correct_output trace)

let test_engine_fairness () =
  (* Round-based scheduling: step counts of correct processes differ by at
     most the number of rounds a crashed process missed. *)
  let fp = Sim.Failure_pattern.failure_free 5 in
  let counts = Array.make 5 0 in
  let counter : (unit, unit, unit, unit, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> ());
      on_step =
        (fun ctx () _ ->
          counts.(ctx.self) <- counts.(ctx.self) + 1;
          ((), []));
      on_input = Sim.Protocol.no_input;
    }
  in
  let cfg =
    Sim.Engine.config ~seed:9 ~max_steps:1_000 ~detect_quiescence:false
      ~fd:(fun _ _ -> ())
      fp
  in
  ignore (Sim.Engine.run cfg counter);
  let mn = Array.fold_left min max_int counts in
  let mx = Array.fold_left max 0 counts in
  Alcotest.(check bool) "balanced steps" true (mx - mn <= 1)

(* A sub-protocol for [Sim.Protocol.apply]'s contract: its state is the
   trail of events it was handed, each step returns [script], and each
   input outputs 0. *)
let scripted script : (string list, string, unit, string, int) Sim.Protocol.t
    =
  {
    init = (fun ~n:_ _ -> []);
    on_step =
      (fun _ctx trail recv ->
        let event =
          match recv with
          | Some (p, m) -> Printf.sprintf "step %d %s" p m
          | None -> "step λ"
        in
        (event :: trail, script));
    on_input =
      (fun _ctx trail inp ->
        (("input " ^ inp) :: trail, [ Sim.Protocol.Output 0 ]));
  }

let script =
  Sim.Protocol.
    [
      Send (1, "a"); Output 1; Broadcast "b"; Output 2; Send (0, "c"); Output 3;
    ]

let host_ctx = { Sim.Protocol.self = 0; n = 3; now = 0; fd = () }

let show_action : (string, int) Sim.Protocol.action -> string = function
  | Sim.Protocol.Send (p, m) -> Printf.sprintf "send %d %s" p m
  | Sim.Protocol.Broadcast m -> "broadcast " ^ m
  | Sim.Protocol.Output o -> Printf.sprintf "output %d" o

let test_apply_retags_sends () =
  let _, sends, _ =
    Sim.Protocol.apply (scripted script) host_ctx [] (Sim.Protocol.Step None)
      ~msg:(fun m -> "<" ^ m ^ ">")
  in
  Alcotest.(check (list string))
    "sends and broadcasts, re-tagged, in order"
    [ "send 1 <a>"; "broadcast <b>"; "send 0 <c>" ]
    (List.map show_action sends)

(* A fan-out keeps one physical message through every re-tagging: the
   consecutive [Send]s of one message share its wrapped message, through
   a host's [apply] and then a [Layered] tag, however many peers it has.
   A different message starts a new run, even an equal one. *)
let test_map_actions_shares_fan_out () =
  let m = "m" and m2 = String.make 1 'm' in
  let script =
    Fd.Peers.send ~n:5 ~except:[ 0 ] m
    @ (Sim.Protocol.Output 1 :: Fd.Peers.send ~n:5 ~except:[ 0; 1 ] m2)
  in
  let _, sends, _ =
    Sim.Protocol.apply (scripted script) host_ctx [] (Sim.Protocol.Step None)
      ~msg:(fun m -> (7, m))
  in
  let wrapped =
    List.map
      (function
        | Sim.Protocol.Send (_, w) -> w
        | Sim.Protocol.Broadcast _ | Sim.Protocol.Output _ ->
          Alcotest.fail "only sends expected")
      (Sim.Protocol.map_actions
         ~msg:(fun m -> Sim.Layered.Main m)
         ~out:Option.some sends)
  in
  Alcotest.(check int) "every send" 7 (List.length wrapped);
  Alcotest.(check bool) "each carries m, re-tagged twice" true
    (List.for_all (( = ) (Sim.Layered.Main (7, "m"))) wrapped);
  let first = List.filteri (fun i _ -> i < 4) wrapped
  and second = List.filteri (fun i _ -> i >= 4) wrapped in
  let shared l = List.for_all (fun w -> w == List.hd l) l in
  Alcotest.(check bool) "4 peers share one wrapped message" true (shared first);
  Alcotest.(check bool) "the next fan-out shares its own" true (shared second);
  Alcotest.(check bool) "an equal message is not merged" false
    (List.hd first == List.hd second)

let test_apply_keeps_outputs () =
  let _, _, outs =
    Sim.Protocol.apply (scripted script) host_ctx [] (Sim.Protocol.Step None)
      ~msg:Fun.id
  in
  Alcotest.(check (list int)) "every output, in order" [ 1; 2; 3 ] outs;
  let _, sends, outs =
    Sim.Protocol.apply
      (scripted [ Sim.Protocol.Broadcast "x" ])
      host_ctx [] (Sim.Protocol.Step None) ~msg:Fun.id
  in
  Alcotest.(check (list int)) "a step that outputs nothing" [] outs;
  Alcotest.(check (list string)) "its send" [ "broadcast x" ]
    (List.map show_action sends)

let test_apply_routes_events () =
  let proto = scripted [] in
  let st, _, outs =
    Sim.Protocol.apply proto host_ctx [] (Sim.Protocol.Input "w") ~msg:Fun.id
  in
  Alcotest.(check (list string)) "Input reaches on_input" [ "input w" ] st;
  Alcotest.(check (list int)) "on_input's output" [ 0 ] outs;
  let st, _, _ =
    Sim.Protocol.apply proto host_ctx st
      (Sim.Protocol.Step (Some (2, "m")))
      ~msg:Fun.id
  in
  let st, _, _ =
    Sim.Protocol.apply proto host_ctx st (Sim.Protocol.Step None) ~msg:Fun.id
  in
  Alcotest.(check (list string))
    "Step reaches on_step, with its message"
    [ "step λ"; "step 2 m"; "input w" ]
    st

(* A host that runs Flood through [apply] and passes its outputs on: the
   run must be the bare protocol's, output for output. *)
type hosted = Hosted of Flood.msg

let test_apply_hosted_run () =
  let host : (Flood.state, hosted, unit, unit, int) Sim.Protocol.t =
    {
      init = Flood.proto.Sim.Protocol.init;
      on_step =
        (fun ctx st recv ->
          let recv = Option.map (fun (p, Hosted m) -> (p, m)) recv in
          let st, sends, outs =
            Sim.Protocol.apply Flood.proto ctx st (Sim.Protocol.Step recv)
              ~msg:(fun m -> Hosted m)
          in
          (st, sends @ List.map (fun o -> Sim.Protocol.Output o) outs));
      on_input = Sim.Protocol.no_input;
    }
  in
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 4) ] in
  List.iter
    (fun policy ->
      let cfg =
        Sim.Engine.config ~policy ~seed:11
          ~stop:(Sim.Engine.stop_when_all_correct_output fp)
          ~fd:(fun _ _ -> ())
          fp
      in
      let bare = Sim.Engine.run cfg Flood.proto in
      let hosted = Sim.Engine.run cfg host in
      Alcotest.(check bool) "bare run completes" true
        (Sim.Trace.all_correct_output bare);
      Alcotest.(check bool) "same outputs" true
        (bare.Sim.Trace.outputs = hosted.Sim.Trace.outputs);
      Alcotest.(check int) "same steps" bare.Sim.Trace.steps
        hosted.Sim.Trace.steps;
      Alcotest.(check int) "same messages" bare.Sim.Trace.messages_sent
        hosted.Sim.Trace.messages_sent)
    [
      Sim.Network.Fifo;
      Sim.Network.Random_delay { max_delay = 7; lambda_prob = 0.3 };
      Sim.Network.Partial_synchrony { gst = 40; delta = 3 };
    ]

(* Property: the network delivers every message under every policy when the
   destination keeps stepping. *)
let prop_network_delivers =
  QCheck.Test.make ~name:"network eventually delivers all messages" ~count:60
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed, policy_idx) ->
      let policy =
        match policy_idx with
        | 0 -> Sim.Network.Fifo
        | 1 -> Sim.Network.Random_delay { max_delay = 5; lambda_prob = 0.4 }
        | _ -> Sim.Network.Partial_synchrony { gst = 30; delta = 2 }
      in
      let rng = Sim.Rng.make (seed + 1) in
      let net = Sim.Network.create policy (Sim.Scheduler.random rng) in
      (* Send 30 messages to pid 0 at various times, then step pid 0 until
         drained. *)
      for i = 1 to 30 do
        Sim.Network.send net ~now:i ~src:1 ~dst:0 i
      done;
      let received = ref 0 in
      let now = ref 31 in
      while !received < 30 && !now < 10_000 do
        (match Sim.Network.deliver net ~now:!now ~dst:0 with
        | Some _ -> incr received
        | None -> ());
        incr now
      done;
      !received = 30)

(* --- Algebraic laws of the two value types every layer leans on.
   [Pidset] is a [Set.Make] wrapper, but [intersects]/[majorities]/[full]
   are hand-written; [Vclock] is entirely hand-rolled, and the Figure 1
   extraction plus the tracing layer both depend on merge/leq being a
   semilattice and its partial order.  Checked by QCheck over random
   values rather than by example. --- *)

let pidset_arb =
  QCheck.map
    ~rev:(fun s -> List.map (fun p -> (p, true)) (Sim.Pidset.elements s))
    (fun l ->
      Sim.Pidset.of_list (List.filter_map (fun (i, keep) ->
          if keep then Some (abs i mod 8) else None) l))
    QCheck.(small_list (pair small_int bool))

let pidset_pair = QCheck.pair pidset_arb pidset_arb
let pidset_triple = QCheck.triple pidset_arb pidset_arb pidset_arb
let ps_eq = Sim.Pidset.equal

let prop_pidset_union_laws =
  QCheck.Test.make ~name:"pidset union: idempotent, commutative, associative"
    ~count:300 pidset_triple (fun (a, b, c) ->
      let open Sim.Pidset in
      ps_eq (union a a) a
      && ps_eq (union a b) (union b a)
      && ps_eq (union (union a b) c) (union a (union b c)))

let prop_pidset_inter_laws =
  QCheck.Test.make ~name:"pidset inter: idempotent, commutative, associative"
    ~count:300 pidset_triple (fun (a, b, c) ->
      let open Sim.Pidset in
      ps_eq (inter a a) a
      && ps_eq (inter a b) (inter b a)
      && ps_eq (inter (inter a b) c) (inter a (inter b c)))

let prop_pidset_absorption =
  QCheck.Test.make ~name:"pidset lattice absorption + distributivity"
    ~count:300 pidset_triple (fun (a, b, c) ->
      let open Sim.Pidset in
      ps_eq (union a (inter a b)) a
      && ps_eq (inter a (union a b)) a
      && ps_eq (inter a (union b c)) (union (inter a b) (inter a c)))

let prop_pidset_intersects_spec =
  QCheck.Test.make ~name:"pidset intersects a b <=> inter a b nonempty"
    ~count:300 pidset_pair (fun (a, b) ->
      Sim.Pidset.intersects a b
      = not (Sim.Pidset.is_empty (Sim.Pidset.inter a b)))

(* A vector clock for n=4, built by replaying a random tick script. *)
let vclock_arb =
  QCheck.map
    (fun ticks ->
      List.fold_left (fun c p -> Sim.Vclock.tick c (abs p mod 4))
        (Sim.Vclock.zero 4) ticks)
    QCheck.(small_list small_int)

let vclock_pair = QCheck.pair vclock_arb vclock_arb
let vclock_triple = QCheck.triple vclock_arb vclock_arb vclock_arb

let prop_vclock_merge_semilattice =
  QCheck.Test.make
    ~name:"vclock merge: idempotent, commutative, associative" ~count:300
    vclock_triple (fun (a, b, c) ->
      let open Sim.Vclock in
      equal (merge a a) a
      && equal (merge a b) (merge b a)
      && equal (merge (merge a b) c) (merge a (merge b c)))

let prop_vclock_partial_order =
  QCheck.Test.make
    ~name:"vclock leq: reflexive, antisymmetric, transitive" ~count:300
    vclock_triple (fun (a, b, c) ->
      let open Sim.Vclock in
      (* reflexivity *)
      leq a a
      (* antisymmetry *)
      && ((not (leq a b && leq b a)) || equal a b)
      (* transitivity, on a chain built to be ordered *)
      &&
      let ab = merge a b in
      let abc = merge ab c in
      leq a ab && leq ab abc && leq a abc)

let prop_vclock_merge_is_lub =
  QCheck.Test.make ~name:"vclock merge is the least upper bound" ~count:300
    vclock_triple (fun (a, b, c) ->
      let open Sim.Vclock in
      let m = merge a b in
      leq a m && leq b m
      && (* least: any common upper bound is above the merge *)
      let u = merge c m in
      ((not (leq a c && leq b c)) || leq m c) && leq m u)

let prop_vclock_tick_dominates =
  QCheck.Test.make ~name:"vclock tick strictly dominates" ~count:300
    QCheck.(pair vclock_arb (int_bound 3))
    (fun (a, p) ->
      let open Sim.Vclock in
      let a' = tick a p in
      dominates a' a && (not (leq a' a)) && get a' p = get a p + 1)

let prop_vclock_concurrent_symmetric =
  QCheck.Test.make
    ~name:"vclock concurrent: symmetric, irreflexive, excludes leq"
    ~count:300 vclock_pair (fun (a, b) ->
      let open Sim.Vclock in
      concurrent a b = concurrent b a
      && (not (concurrent a a))
      && ((not (concurrent a b)) || not (leq a b || leq b a)))

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are reproducible" ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (seed, crash_seed) ->
      let rng = Sim.Rng.make (crash_seed + 1) in
      let fp = Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:30 rng in
      let t1 = run_flood ~seed:(seed + 1) fp in
      let t2 = run_flood ~seed:(seed + 1) fp in
      Sim.Trace.decision_times t1 = Sim.Trace.decision_times t2
      && t1.Sim.Trace.messages_sent = t2.Sim.Trace.messages_sent)

let () =
  ignore fp_testable;
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "derive idempotent" `Quick
            test_rng_derive_idempotent;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutation" `Quick
            test_shuffle_permutation;
        ] );
      ( "pidset",
        [
          Alcotest.test_case "majorities" `Quick test_pidset_majorities;
          Alcotest.test_case "full" `Quick test_pidset_full;
        ] );
      ( "failure-pattern",
        [
          Alcotest.test_case "basics" `Quick test_failure_pattern_basics;
          Alcotest.test_case "validation" `Quick
            test_failure_pattern_validation;
        ] );
      ( "environment",
        [
          Alcotest.test_case "membership" `Quick test_environment_membership;
          Alcotest.test_case "sampling" `Quick test_environment_sampling;
        ] );
      ( "engine",
        [
          Alcotest.test_case "flood reaches all" `Quick
            test_engine_flood_reaches_all;
          Alcotest.test_case "flood under policies" `Quick
            test_engine_flood_policies;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "byte-identical determinism" `Quick
            test_engine_byte_determinism;
          Alcotest.test_case "crashed never steps" `Quick
            test_engine_crashed_never_steps;
          Alcotest.test_case "quiescence" `Quick test_engine_quiescence;
          Alcotest.test_case "inputs delivered" `Quick
            test_engine_inputs_delivered;
          Alcotest.test_case "lazy digest never changes the run" `Quick
            test_engine_lazy_digest;
          Alcotest.test_case "resume from round snapshots" `Quick
            test_engine_resume_from_snapshots;
        ] );
      ("vclock", [ Alcotest.test_case "laws" `Quick test_vclock ]);
      ( "network",
        [
          Alcotest.test_case "partition freezes cross traffic" `Quick
            test_network_partition_freezes_cross_traffic;
        ] );
      ( "composition",
        [
          Alcotest.test_case "layered isolation" `Quick test_layered_isolation;
          Alcotest.test_case "engine fairness" `Quick test_engine_fairness;
          Alcotest.test_case "apply re-tags sends in order" `Quick
            test_apply_retags_sends;
          Alcotest.test_case "apply keeps every output" `Quick
            test_apply_keeps_outputs;
          Alcotest.test_case "a fan-out keeps one physical message" `Quick
            test_map_actions_shares_fan_out;
          Alcotest.test_case "apply routes step and input" `Quick
            test_apply_routes_events;
          Alcotest.test_case "hosted run equals bare run" `Quick
            test_apply_hosted_run;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_network_delivers;
          QCheck_alcotest.to_alcotest prop_engine_deterministic;
        ] );
      ( "algebraic-laws",
        [
          QCheck_alcotest.to_alcotest prop_pidset_union_laws;
          QCheck_alcotest.to_alcotest prop_pidset_inter_laws;
          QCheck_alcotest.to_alcotest prop_pidset_absorption;
          QCheck_alcotest.to_alcotest prop_pidset_intersects_spec;
          QCheck_alcotest.to_alcotest prop_vclock_merge_semilattice;
          QCheck_alcotest.to_alcotest prop_vclock_partial_order;
          QCheck_alcotest.to_alcotest prop_vclock_merge_is_lub;
          QCheck_alcotest.to_alcotest prop_vclock_tick_dominates;
          QCheck_alcotest.to_alcotest prop_vclock_concurrent_symmetric;
        ] );
    ]
