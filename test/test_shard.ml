(* The sharded service (docs/SHARDING.md):
   - Ring: FNV-1a determinism against fixed vectors, total coverage,
     cross-construction determinism, and minimal movement on add/remove
     (QCheck); the workload generator's keys reach every shard;
   - the epoch handoff: an old-epoch Σ quorum is never output once the
     next epoch activates, in-flight old-epoch acks included, and
     Epoch.check_quorum refuses stale-epoch quorums outright;
   - Group: a shard's replicas agree on writes; a Reconfig decided
     through the shard's own log installs the next configuration, the
     removed member can crash and the rotated group keeps deciding, and
     a stale Reconfig is a no-op everywhere;
   - snapshot catch-up: a blocked straggler that missed decisions for
     good (no Rel underneath) recovers the log via Snap_req/Snap;
   - Router: linearizable per-key reads over the ring, and the TCP
     client's reads (Router over Server.ops) equal to the in-process
     ones, through a rotation;
   - Cluster: the workload generator's keys are applied on every shard;
   - Chaos: a sharded run with partition+heal and a scripted mid-run
     reconfiguration holds every invariant. *)

module Ring = Shard.Ring
module Epoch = Shard.Epoch
module Replica = Shard.Replica
module Group = Shard.Group
module Cluster = Shard.Cluster
module Router = Shard.Router
module Sig = Fd.Emulated.Sigma_epoch

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let test_ring_hash_vectors () =
  (* FNV-1a/64 published vectors: the mapping is a pure function of the
     key bytes, so any process on any host computes the same ring *)
  Alcotest.(check int64)
    "empty" 0xcbf29ce484222325L (Ring.hash64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Ring.hash64 "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (Ring.hash64 "foobar")

let arb_ids = QCheck.(list_of_size Gen.(1 -- 10) (0 -- 99))
let arb_keys = QCheck.(small_list (string_of_size Gen.(0 -- 24)))

let prop_ring_total =
  QCheck.Test.make ~name:"ring: every key maps to a live shard" ~count:200
    QCheck.(pair arb_ids arb_keys)
    (fun (ids, keys) ->
      let t = Ring.create ids in
      List.for_all (fun k -> List.mem (Ring.shard_of t k) (Ring.shards t)) keys)

let prop_ring_deterministic =
  QCheck.Test.make
    ~name:"ring: same ids (any order) build the same mapping" ~count:200
    QCheck.(pair arb_ids arb_keys)
    (fun (ids, keys) ->
      let a = Ring.create ids and b = Ring.create (List.rev ids) in
      List.for_all (fun k -> Ring.shard_of a k = Ring.shard_of b k) keys)

let prop_ring_add_minimal =
  QCheck.Test.make
    ~name:"ring: adding a shard only moves keys onto it" ~count:200
    QCheck.(pair arb_ids arb_keys)
    (fun (ids, keys) ->
      let t = Ring.create ids in
      let fresh = 1 + List.fold_left max 0 ids in
      let t' = Ring.add t fresh in
      List.for_all
        (fun k ->
          let before = Ring.shard_of t k and after = Ring.shard_of t' k in
          after = before || after = fresh)
        keys)

let prop_ring_remove_minimal =
  QCheck.Test.make
    ~name:"ring: removing a shard only moves its own keys" ~count:200
    QCheck.(pair arb_ids arb_keys)
    (fun (ids, keys) ->
      QCheck.assume (List.length (List.sort_uniq compare ids) >= 2);
      let t = Ring.create ids in
      let victim = List.hd (Ring.shards t) in
      let t' = Ring.remove t victim in
      List.for_all
        (fun k ->
          let before = Ring.shard_of t k in
          before = victim || Ring.shard_of t' k = before)
        keys)

let test_ring_balance () =
  let owners shards keys =
    let t = Ring.create (List.init shards Fun.id) in
    let hits = Array.make shards 0 in
    List.iter
      (fun k ->
        let s = Ring.shard_of t k in
        hits.(s) <- hits.(s) + 1)
      keys;
    hits
  in
  let all_own what hits =
    Array.iteri
      (fun s c ->
        if c = 0 then Alcotest.failf "shard %d owns no keys of %s" s what)
      hits
  in
  all_own "10k" (owners 8 (List.init 10_000 (Printf.sprintf "key-%d")));
  (* the workload generator's own keys differ only in their last bytes *)
  let z = Shard.Zipf.create ~seed:1 ~keys:64 () in
  let zipf_keys = List.init 64 (Shard.Zipf.key z) in
  List.iter
    (fun shards ->
      all_own
        (Printf.sprintf "k000000..k000063 (%d shards)" shards)
        (owners shards zipf_keys))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let test_zipf () =
  let z1 = Shard.Zipf.create ~seed:42 ~keys:32 () in
  let z2 = Shard.Zipf.create ~seed:42 ~keys:32 () in
  let s1 = List.init 100 (fun _ -> Shard.Zipf.next z1) in
  let s2 = List.init 100 (fun _ -> Shard.Zipf.next z2) in
  Alcotest.(check (list int)) "seeded replay" s1 s2;
  let z = Shard.Zipf.create ~seed:7 ~keys:32 () in
  let hits = Array.make 32 0 in
  for _ = 1 to 10_000 do
    let r = Shard.Zipf.next z in
    hits.(r) <- hits.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 hotter than rank 31" true
    (hits.(0) > hits.(31));
  Alcotest.(check string) "key rendering" "k000007" (Shard.Zipf.key z 7)

(* ------------------------------------------------------------------ *)
(* Epoch handoff                                                       *)

(* A minimal relay harness at the detector layer: messages stay opaque,
   every Send/Broadcast is queued to its destination, one delivery per
   step. *)
let sigma_net ~n ~members =
  let proto = (Sig.detector ~members).Sim.Layered.proto in
  let states = Array.init n (fun p -> proto.Sim.Protocol.init ~n p) in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let now = ref 0 in
  let deliver p acts =
    List.iter
      (function
        | Sim.Protocol.Send (q, m) -> Queue.push (p, m) queues.(q)
        | Sim.Protocol.Broadcast m ->
          Array.iteri (fun q _ -> Queue.push (p, m) queues.(q)) states
        | Sim.Protocol.Output () -> ())
      acts
  in
  let step_all () =
    incr now;
    Array.iteri
      (fun p st ->
        let recv =
          if Queue.is_empty queues.(p) then None
          else Some (Queue.pop queues.(p))
        in
        let ctx = { Sim.Protocol.self = p; n; now = !now; fd = () } in
        let st, acts = proto.Sim.Protocol.on_step ctx st recv in
        states.(p) <- st;
        deliver p acts)
      states
  in
  (states, step_all)

let test_epoch_handoff () =
  let members0 = Sim.Pidset.of_list [ 0; 1; 2 ] in
  let members1 = Sim.Pidset.of_list [ 1; 2; 3 ] in
  let states, step_all = sigma_net ~n:4 ~members:members0 in
  for _ = 1 to 60 do
    step_all ()
  done;
  Array.iter
    (fun st ->
      Alcotest.(check bool) "epoch-0 rounds completed" true (Sig.rounds st > 0);
      Alcotest.(check int) "quorum of epoch 0" 0 (Sig.quorum_epoch st);
      Alcotest.(check bool) "quorum within members" true
        (Sim.Pidset.subset (Sig.current st) members0))
    states;
  let q_old = Sig.current states.(0) in
  (* the Reconfig applies: every process installs epoch 1 — queues still
     hold in-flight epoch-0 joins and acks *)
  Array.iteri
    (fun p st -> states.(p) <- Sig.set_config st ~epoch:1 ~members:members1)
    states;
  Array.iter
    (fun st ->
      Alcotest.(check int) "handoff discards the old-epoch quorum" 1
        (Sig.quorum_epoch st);
      Alcotest.(check bool) "interim output is the new member set" true
        (Sim.Pidset.equal (Sig.current st) members1))
    states;
  (* old-epoch traffic must never resurrect an epoch-0 quorum *)
  for _ = 1 to 80 do
    step_all ();
    Array.iter
      (fun st ->
        Alcotest.(check int) "no quorum from epoch 0 after epoch 1" 1
          (Sig.quorum_epoch st);
        Alcotest.(check bool) "output always within epoch-1 members" true
          (Sim.Pidset.subset (Sig.current st) members1);
        Alcotest.(check bool) "removed member never in a quorum" false
          (Sim.Pidset.mem 0 (Sig.current st)))
      states
  done;
  (* epoch-1 rounds do complete (members re-join under the new epoch) *)
  Array.iteri
    (fun p st ->
      if Sim.Pidset.mem p members1 then
        Alcotest.(check bool)
          (Printf.sprintf "member %d completes an epoch-1 round" p)
          true
          (Sig.rounds st > 1))
    states;
  (* the pure-config side refuses stale-epoch quorums outright *)
  let cfg = { Epoch.epoch = 1; members = members1 } in
  (match Epoch.check_quorum cfg ~epoch:0 q_old with
  | Error e ->
    Alcotest.(check bool) "refusal names the epochs" true
      (String.length e > 0)
  | Ok () -> Alcotest.fail "old-epoch quorum accepted after activation");
  Alcotest.(check bool) "same-epoch member majority accepted" true
    (Epoch.check_quorum cfg ~epoch:1 (Sim.Pidset.of_list [ 1; 2 ]) = Ok ())

(* ------------------------------------------------------------------ *)
(* Group: agreement, reconfiguration, snapshot catch-up                *)

let members012 = Sim.Pidset.of_list [ 0; 1; 2 ]

let kv_check g p key expected =
  match Replica.kv_find (Group.state g p) key with
  | Some (_, v) -> Alcotest.(check string) (key ^ " at " ^ string_of_int p) expected v
  | None -> Alcotest.failf "replica %d never applied %s" p key

let test_group_agreement () =
  let g = Group.create ~period:8 ~id:0 ~universe:4 ~members:members012 () in
  Group.run g ~rounds:50;
  for i = 0 to 4 do
    Group.submit g 0
      (Replica.App { key = "k"; value = Printf.sprintf "v%d" i });
    Group.run g ~rounds:120
  done;
  Group.run g ~rounds:600;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "member %d applied all" p)
        5
        (Replica.applied (Group.state g p));
      kv_check g p "k" "v4")
    [ 0; 1; 2 ];
  let l0 = Group.applied_log g 0 in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "log of %d identical to 0" p)
        true
        (Group.applied_log g p = l0))
    [ 1; 2 ]

let test_group_reconfig () =
  let g = Group.create ~period:8 ~id:0 ~universe:4 ~members:members012 () in
  Group.run g ~rounds:50;
  Group.submit g 0 (Replica.App { key = "a"; value = "before" });
  Group.run g ~rounds:400;
  (* rotate: drop 0, install spare 3 — through the shard's own log *)
  Group.submit g 1 (Replica.Reconfig { epoch = 1; members = [ 1; 2; 3 ] });
  Group.run g ~rounds:1_000;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d installed epoch 1" p)
        1
        (Replica.epoch (Group.state g p)))
    [ 1; 2; 3 ];
  (* the removed member crashes; the rotated group keeps deciding *)
  Group.crash g 0;
  Group.submit g 1 (Replica.App { key = "b"; value = "after" });
  Group.run g ~rounds:1_200;
  List.iter (fun p -> kv_check g p "b" "after") [ 1; 2; 3 ];
  List.iter (fun p -> kv_check g p "a" "before") [ 1; 2; 3 ];
  (* a stale Reconfig (not current + 1) is a deterministic no-op *)
  Group.submit g 1 (Replica.Reconfig { epoch = 1; members = [ 0; 1 ] });
  Group.run g ~rounds:600;
  List.iter
    (fun p ->
      let st = Group.state g p in
      Alcotest.(check int) "epoch unchanged" 1 (Replica.epoch st);
      Alcotest.(check bool) "members unchanged" true
        (Sim.Pidset.equal (Replica.config st).Epoch.members
           (Sim.Pidset.of_list [ 1; 2; 3 ])))
    [ 1; 2; 3 ]

let test_group_snapshot_catchup () =
  (* a lossy wrap severs replica 2 from the group: frames to and from it
     are dropped outright (no Rel underneath to retransmit them), so the
     decisions it misses are gone for good and only Snap_req/Snap can
     recover it *)
  let dark = ref false in
  let wrap p (tr : Net.Transport.t) =
    {
      tr with
      Net.Transport.send =
        (fun dst frame ->
          if !dark && (p = 2 || dst = 2) && p <> dst then ()
          else tr.Net.Transport.send dst frame);
    }
  in
  let g =
    Group.create ~period:8 ~snap_every:4 ~lag_gap:8 ~wrap ~id:0 ~universe:3
      ~members:members012 ()
  in
  Group.run g ~rounds:50;
  dark := true;
  for i = 0 to 19 do
    Group.submit g 0
      (Replica.App { key = Printf.sprintf "k%d" i; value = string_of_int i });
    Group.run g ~rounds:60
  done;
  Group.run g ~rounds:400;
  Alcotest.(check int) "majority decided while 2 was dark" 20
    (Replica.applied (Group.state g 0));
  Alcotest.(check int) "2 missed everything" 0
    (Replica.applied (Group.state g 2));
  dark := false;
  (* a nudge write generates slot traffic that reveals the lag *)
  Group.submit g 0 (Replica.App { key = "nudge"; value = "x" });
  Group.run g ~rounds:1_500;
  Alcotest.(check int) "straggler caught up" 21
    (Replica.applied (Group.state g 2));
  Alcotest.(check bool) "catch-up went through a snapshot" true
    (Replica.snaps_installed (Group.state g 2) > 0);
  Alcotest.(check bool) "someone served it" true
    (List.exists (fun p -> Replica.snaps_served (Group.state g p) > 0) [ 0; 1 ]);
  Alcotest.(check bool) "logs identical after catch-up" true
    (Group.applied_log g 2 = Group.applied_log g 0)

(* ------------------------------------------------------------------ *)
(* Router over a small cluster                                         *)

let test_router_reads () =
  let cl = Cluster.create ~period:8 ~shards:2 ~replicas:3 ~spares:1 () in
  Cluster.run cl ~rounds:50;
  let router = Cluster.router cl in
  let keys = List.init 6 (Printf.sprintf "key-%d") in
  List.iter
    (fun k ->
      match Router.write router ~key:k ~value:("val:" ^ k) with
      | Some _ -> ()
      | None -> Alcotest.failf "write of %s rejected" k)
    keys;
  Cluster.run cl ~rounds:1_500;
  List.iter
    (fun k ->
      match Router.read router ~key:k with
      | Ok (Some v) -> Alcotest.(check string) k ("val:" ^ k) v
      | Ok None -> Alcotest.failf "%s reads as unwritten" k
      | Error e -> Alcotest.failf "read %s: %s" k e)
    keys;
  match Router.read router ~key:"never-written" with
  | Ok None -> ()
  | Ok (Some v) -> Alcotest.failf "phantom value %s" v
  | Error e -> Alcotest.fail e

(* The TCP client's read path without sockets: Router.read over
   Server.ops, whose round trip hands each encoded request to
   Server.impl's on_request against the replica's state and returns the
   reply frame, must read what Router.read over Cluster.ops reads —
   before and after a rotation, with member 2 dead: crashed in process,
   and over the wire a round trip that raises, as a write to a killed
   server does. *)
let test_server_ops_reads () =
  let cl = Cluster.create ~period:8 ~shards:1 ~replicas:3 ~spares:1 () in
  Cluster.run cl ~rounds:50;
  let g = Cluster.group cl 0 in
  let dead = 2 in
  Group.crash g dead;
  let roundtrip =
    match Shard.Server.impl ~period:8 ~members:members012 () with
    | Net.Smr_node.Impl impl -> (
      fun p frame ->
        if p = dead then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
        match
          impl.on_request
            ~state:(fun () -> Group.state g p)
            ~inject:(fun _ -> ())
            frame
        with
        | `Reply reply -> reply
        | `Submit _ -> Alcotest.fail "a read entered the log")
  in
  let local = Cluster.router cl in
  let wire =
    Router.create ~ring:(Cluster.ring cl)
      ~ops:(fun _ ->
        Shard.Server.ops ~config:(fun () -> Group.config g) ~roundtrip)
      ~step:(fun () -> Cluster.step cl)
  in
  let show = function
    | Ok (Some v) -> v
    | Ok None -> "(unwritten)"
    | Error e -> "error: " ^ e
  in
  let write value keys =
    List.iter
      (fun key -> ignore (Router.write local ~key ~value:(value ^ key)))
      keys;
    Cluster.run cl ~rounds:1_500
  in
  let reads_agree expected =
    List.iter
      (fun (key, want) ->
        let got = show (Router.read local ~key) in
        Alcotest.(check string) ("in process: " ^ key) want got;
        Alcotest.(check string) ("over the wire: " ^ key) got
          (show (Router.read wire ~key)))
      (("never-written", "(unwritten)") :: expected)
  in
  write "v1:" [ "a"; "b"; "c" ];
  reads_agree [ ("a", "v1:a"); ("b", "v1:b"); ("c", "v1:c") ];
  (match Epoch.rotate (Group.config g) ~universe:4 with
  | Some next ->
    Alcotest.(check bool) "rotation submitted" true
      (Cluster.reconfig cl ~shard:0 next)
  | None -> Alcotest.fail "no spare to rotate in");
  write "v2:" [ "b"; "d" ];
  Alcotest.(check int) "rotation installed" 1 (Group.config g).Epoch.epoch;
  reads_agree [ ("a", "v1:a"); ("b", "v2:b"); ("c", "v1:c"); ("d", "v2:d") ]

(* ------------------------------------------------------------------ *)
(* Whole-cluster spread of the workload                                *)

(* Regression: keys the workload generator draws ("k000000".."k000063")
   all used to route to one shard, leaving the other groups idle. *)
let test_cluster_spread () =
  let shards = 4 in
  let cl = Cluster.create ~period:8 ~shards ~replicas:3 ~spares:0 () in
  Cluster.run cl ~rounds:50;
  let router = Cluster.router cl in
  let z = Shard.Zipf.create ~seed:1 ~keys:64 () in
  let total = Shard.Zipf.keys z in
  for i = 0 to total - 1 do
    let key = Shard.Zipf.key z i in
    match Router.write router ~key ~value:(string_of_int i) with
    | Some _ -> ()
    | None -> Alcotest.failf "write of %s rejected" key
  done;
  let rounds = ref 0 in
  while Cluster.applied_total cl < total && !rounds < 5_000 do
    Cluster.step cl;
    incr rounds
  done;
  Alcotest.(check int) "every write applied" total (Cluster.applied_total cl);
  for s = 0 to shards - 1 do
    if Group.applied_max (Cluster.group cl s) = 0 then
      Alcotest.failf "shard %d applied none of the %d writes" s total
  done

(* ------------------------------------------------------------------ *)
(* Sharded chaos with a scripted reconfiguration                       *)

let test_sharded_chaos_reconfig () =
  let schedule =
    match
      Net.Nemesis.parse_schedule "at 300 partition 0 1 | 2 3\nat 700 heal"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (Shard.Chaos.default ~shards:2 ~replicas:3 ~schedule) with
      rounds = 2_400;
      cmds = 12;
      cmd_every = 60;
      reconfig_at = Some 1_200;
      reads = 4;
      seed = 1;
    }
  in
  let r = Shard.Chaos.run cfg in
  if not (Net.Chaos.ok r) then
    Alcotest.failf "chaos invariants failed:@.%a" Shard.Chaos.pp_report r;
  Alcotest.(check bool) "reconfiguration completed" true r.detail.reconfig_done;
  Array.iteri
    (fun s e ->
      Alcotest.(check int) (Printf.sprintf "shard %d in epoch 1" s) 1 e)
    r.detail.epochs;
  Alcotest.(check int) "no bad reads" 0 r.detail.reads_bad;
  Alcotest.(check bool) "some reads verified" true (r.detail.reads_ok > 0)

(* Regression: with a majority of every shard crashed at round 500 the
   model owes no progress; the watchdog used to report "no progress for
   900 rounds on a healthy network" at round 1359. *)
let test_sharded_chaos_majority_crash () =
  let schedule =
    match Net.Nemesis.parse_schedule "at 500 kill 1\nat 500 kill 2" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let r =
    Shard.Chaos.run
      {
        (Shard.Chaos.default ~shards:2 ~replicas:3 ~schedule) with
        rounds = 2_400;
        cmds = 12;
        cmd_every = 60;
        seed = 1;
      }
  in
  Alcotest.(check (list string)) "no invariant failures" [] r.failures

let () =
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_ring_hash_vectors;
          Alcotest.test_case "8-way balance over 10k keys" `Quick
            test_ring_balance;
          QCheck_alcotest.to_alcotest prop_ring_total;
          QCheck_alcotest.to_alcotest prop_ring_deterministic;
          QCheck_alcotest.to_alcotest prop_ring_add_minimal;
          QCheck_alcotest.to_alcotest prop_ring_remove_minimal;
        ] );
      ("zipf", [ Alcotest.test_case "seeded, skewed" `Quick test_zipf ]);
      ( "epoch",
        [ Alcotest.test_case "handoff refuses old-epoch quorums" `Quick
            test_epoch_handoff ] );
      ( "group",
        [
          Alcotest.test_case "members agree on writes" `Quick
            test_group_agreement;
          Alcotest.test_case "reconfig through the shard's own log" `Quick
            test_group_reconfig;
          Alcotest.test_case "snapshot catch-up of a dark straggler" `Quick
            test_group_snapshot_catchup;
        ] );
      ( "router",
        [
          Alcotest.test_case "linearizable reads" `Quick test_router_reads;
          Alcotest.test_case "the socket client's reads, without sockets"
            `Quick test_server_ops_reads;
        ] );
      ( "cluster",
        [ Alcotest.test_case "workload keys reach every shard" `Quick
            test_cluster_spread ] );
      ( "chaos",
        [
          Alcotest.test_case "partition+heal with mid-run reconfig" `Quick
            test_sharded_chaos_reconfig;
          Alcotest.test_case "majority crash owes no progress" `Quick
            test_sharded_chaos_majority_crash;
        ] );
    ]
