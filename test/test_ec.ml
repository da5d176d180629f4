(* The eventually-consistent store (docs/EC.md):
   - QCheck: Entry.join is a join-semilattice (idempotent, commutative,
     associative) on arbitrary entries — including concurrent vector
     clocks — and the LWW winner respects causal dominance for
     store-produced entries;
   - QCheck: n stores fed the same writes in any delivery order / gossip
     order converge to equal fingerprints;
   - binary codec round-trips for entries, anti-entropy messages and the
     mixed client request/reply frames;
   - two Replica protocols pumped message-by-message converge and then go
     quiet (anti-entropy quiescence);
   - the Ec.Chaos harness: default run green, bit-for-bit deterministic,
     EC available in the partition while SMR freezes; no freeze owed
     while a majority component exists and no progress owed after a
     majority crash; a run cut at the heal reports its failures. *)

let vclock n l =
  List.fold_left
    (fun vc (p, k) ->
      let rec tick vc k = if k = 0 then vc else tick (Sim.Vclock.tick vc p) (k - 1) in
      tick vc k)
    (Sim.Vclock.zero n) l

let entry_gen =
  QCheck.Gen.(
    let* value = oneofl [ "a"; "b"; "c"; "long-value" ] in
    let* lamport = int_range 0 5 in
    let* origin = int_range 0 2 in
    let* ticks = list_size (int_range 0 3) (pair (int_range 0 2) (int_range 0 3)) in
    return (Ec.Entry.make ~value ~lamport ~origin ~vc:(vclock 3 ticks)))

let entry_arb =
  QCheck.make entry_gen ~print:(fun e -> Format.asprintf "%a" Ec.Entry.pp e)

(* Full equality including the vector clock: the semilattice laws hold on
   the whole carrier, not just the abstract state. *)
let entry_eq a b = Ec.Entry.equal a b && Sim.Vclock.equal a.Ec.Entry.vc b.Ec.Entry.vc

let prop_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:500 entry_arb (fun e ->
      entry_eq e (Ec.Entry.join e e))

let prop_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:500
    QCheck.(pair entry_arb entry_arb)
    (fun (a, b) -> entry_eq (Ec.Entry.join a b) (Ec.Entry.join b a))

let prop_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:500
    QCheck.(triple entry_arb entry_arb entry_arb)
    (fun (a, b, c) ->
      entry_eq
        (Ec.Entry.join (Ec.Entry.join a b) c)
        (Ec.Entry.join a (Ec.Entry.join b c)))

let prop_join_picks_an_argument =
  (* the abstract winner is always one of the two entries — join invents
     no values *)
  QCheck.Test.make ~name:"join picks an argument" ~count:500
    QCheck.(pair entry_arb entry_arb)
    (fun (a, b) ->
      let j = Ec.Entry.join a b in
      Ec.Entry.equal j a || Ec.Entry.equal j b)

let test_store_dominance () =
  (* store-produced entries are causally ordered by put: the later put
     strictly dominates in vc and must win the join both ways *)
  let s = Ec.Store.create ~n:3 0 in
  let e1, s = Ec.Store.put s ~key:"k" ~value:"old" in
  let e2, _ = Ec.Store.put s ~key:"k" ~value:"new" in
  Alcotest.(check bool) "later put dominates in vc" true
    (Sim.Vclock.dominates e2.Ec.Entry.vc e1.Ec.Entry.vc);
  Alcotest.(check bool) "dominating entry has the higher stamp" true
    (Ec.Entry.newer_than e2 ~stamp:(Ec.Entry.stamp e1));
  Alcotest.(check string) "join keeps the causally newer value" "new"
    (Ec.Entry.join e1 e2).Ec.Entry.value;
  Alcotest.(check string) "in either order" "new"
    (Ec.Entry.join e2 e1).Ec.Entry.value

(* --- convergence under arbitrary gossip ------------------------------- *)

(* A write script: (writer, key index, value).  Each writer applies its
   own writes in order (session order), then entries gossip between
   stores in a QCheck-chosen pair order until a fixpoint.  Whatever the
   orders, all fingerprints must agree — store-level confluence. *)
let writes_gen =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (triple (int_range 0 2) (int_range 0 2) (int_range 0 99)))

let prop_stores_converge =
  QCheck.Test.make ~name:"stores converge under any gossip order" ~count:200
    (QCheck.make
       QCheck.Gen.(pair writes_gen (int_range 0 1000))
       ~print:(fun (ws, seed) ->
         Printf.sprintf "writes=%s seed=%d"
           (String.concat ";"
              (List.map
                 (fun (p, k, v) -> Printf.sprintf "%d:k%d=%d" p k v)
                 ws))
           seed))
    (fun (ws, seed) ->
      let n = 3 in
      let stores =
        Array.init n (fun p -> ref (Ec.Store.create ~n p))
      in
      List.iter
        (fun (p, k, v) ->
          let _, s =
            Ec.Store.put !(stores.(p))
              ~key:(Printf.sprintf "k%d" k)
              ~value:(string_of_int v)
          in
          stores.(p) := s)
        ws;
      (* gossip: random directed pairs until a full quiet lap *)
      let rng = Random.State.make [| seed |] in
      let fingerprints_equal () =
        let f0 = Ec.Store.fingerprint !(stores.(0)) in
        Array.for_all (fun s -> Ec.Store.fingerprint !s = f0) stores
      in
      let push src dst =
        let entries =
          Ec.Store.entries_for !(stores.(src)) (Ec.Store.keys !(stores.(src)))
        in
        let changed, s = Ec.Store.merge_entries !(stores.(dst)) entries in
        stores.(dst) := s;
        changed
      in
      let rounds = ref 0 in
      (* random gossip phase, then a deterministic full mesh to finish *)
      while not (fingerprints_equal ()) && !rounds < 200 do
        incr rounds;
        let src = Random.State.int rng n in
        let dst = (src + 1 + Random.State.int rng (n - 1)) mod n in
        ignore (push src dst)
      done;
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then ignore (push src dst)
        done
      done;
      fingerprints_equal ())

(* --- codecs ----------------------------------------------------------- *)

let roundtrip (codec : _ Net.Wire.codec) eq v =
  let buf = Buffer.create 64 in
  codec.Net.Wire.enc buf v;
  let bytes = Buffer.to_bytes buf in
  eq v (codec.Net.Wire.dec bytes ~pos:0 ~len:(Bytes.length bytes))

let prop_codec_entry =
  QCheck.Test.make ~name:"entry codec round-trips" ~count:300 entry_arb
    (fun e -> roundtrip Ec.Codecs.entry entry_eq e)

let roundtrip_msg m = roundtrip Ec.Codecs.msg ( = ) m

let test_codec_msgs () =
  let e = Ec.Entry.make ~value:"v" ~lamport:3 ~origin:1 ~vc:(vclock 3 [ (1, 2) ]) in
  List.iter
    (fun m -> Alcotest.(check bool) "msg round-trips" true (roundtrip_msg m))
    [
      Ec.Replica.Digest { rev = 7; summary = [ ("k", (3, 1)); ("x", (1, 0)) ] };
      Ec.Replica.Digest { rev = 0; summary = [] };
      Ec.Replica.Delta
        { entries = [ ("k", e) ]; pull = [ "a"; "b" ]; rev_echo = 9 };
      Ec.Replica.Delta { entries = []; pull = []; rev_echo = 1 };
      Ec.Replica.Push { entries = [ ("k", e); ("k2", e) ] };
    ]

let test_codec_requests () =
  List.iter
    (fun r ->
      let c = Ec.Mixed.request_codec in
      Alcotest.(check bool) "request round-trips" true
        (Net.Wire.of_bytes c (Net.Wire.to_bytes c r) = r))
    [
      Ec.Mixed.Lin "some-command";
      Ec.Mixed.Eput { key = "k"; value = "v" };
      Ec.Mixed.Eput { key = ""; value = "" };
      Ec.Mixed.Eget { key = "session-key" };
    ];
  List.iter
    (fun r ->
      let c = Ec.Mixed.ereply_codec in
      Alcotest.(check bool) "ereply round-trips" true
        (Net.Wire.of_bytes c (Net.Wire.to_bytes c r) = r))
    [
      Ec.Mixed.Put_ack { lamport = 12; origin = 2 };
      Ec.Mixed.Get_hit { value = "v"; lamport = 3; origin = 0 };
      Ec.Mixed.Get_miss;
    ]

(* --- replica pump: convergence then quiescence ------------------------ *)

let test_replica_pump_quiesces () =
  (* two replicas, FIFO queues both ways, fd = constant leader 0: after
     both write, anti-entropy must converge the stores and then fall
     silent (bounded [synced]/backoff state — no digest chatter at the
     fixpoint) *)
  let proto = Ec.Replica.make ~sync_every:2 ~emit_fp:false () in
  let n = 2 in
  let sts = Array.init n (fun p -> proto.Sim.Protocol.init ~n p) in
  let queues = Array.make_matrix n n [] in
  let ctx p now =
    { Sim.Protocol.self = p; n; now; fd = (0, 0) }
  in
  let sends = ref 0 in
  let step now p =
    let recv =
      match queues.(1 - p).(p) with
      | [] -> None
      | m :: rest ->
        queues.(1 - p).(p) <- rest;
        Some (1 - p, m)
    in
    let st, acts = proto.Sim.Protocol.on_step (ctx p now) sts.(p) recv in
    sts.(p) <- st;
    List.iter
      (function
        | Sim.Protocol.Send (q, m) ->
          incr sends;
          queues.(p).(q) <- queues.(p).(q) @ [ m ]
        | _ -> ())
      acts
  in
  let input p k v =
    let st, _ =
      proto.Sim.Protocol.on_input (ctx p 0) sts.(p)
        (Ec.Replica.Put { key = k; value = v })
    in
    sts.(p) <- st
  in
  input 0 "x" "from0";
  input 1 "x" "from1";
  input 1 "y" "only1";
  for r = 1 to 60 do
    step r 0;
    step r 1
  done;
  let fp p = Ec.Store.fingerprint (Ec.Replica.store sts.(p)) in
  Alcotest.(check string) "stores converged" (fp 0) (fp 1);
  (* quiescence: a further long run makes no sends at all *)
  let sends_before = !sends in
  for r = 61 to 120 do
    step r 0;
    step r 1
  done;
  Alcotest.(check int) "anti-entropy went quiet" sends_before !sends;
  (* a fresh write re-arms it *)
  input 0 "z" "late";
  for r = 121 to 180 do
    step r 0;
    step r 1
  done;
  Alcotest.(check bool) "new write re-armed the digests" true
    (!sends > sends_before);
  Alcotest.(check string) "and re-converged" (fp 0) (fp 1)

(* --- the chaos harness ------------------------------------------------- *)

let default_cfg n =
  Ec.Chaos.default ~n ~schedule:(Ec.Chaos.default_schedule n)

let test_chaos_default_green () =
  let r = Ec.Chaos.run (default_cfg 3) in
  Alcotest.(check bool) "all invariants held" true (Net.Chaos.ok r);
  Alcotest.(check bool) "EC made progress inside the partition" true
    (r.detail.ec_puts_in_partition > 0);
  Alcotest.(check bool) "SMR was frozen inside the partition" true
    r.detail.smr_frozen_in_partition;
  Alcotest.(check bool) "stores converged after the last write" true
    (match r.detail.converged_in with Some d -> d >= 0 | None -> false);
  Alcotest.(check bool) "all lin commands decided in the end" true
    r.all_applied

(* Positive control: stop one round after the heal, before the cut-era
   backlog drains — convergence, SMR agreement and completion must all
   be reported. *)
let test_chaos_positive_control () =
  let r = Ec.Chaos.run { (default_cfg 3) with Ec.Chaos.rounds = 1_601 } in
  List.iter
    (fun msg ->
      Alcotest.(check bool) ("reports: " ^ msg) true
        (List.mem msg r.Net.Chaos.failures))
    [
      "end of run: stores never converged";
      "end of run: survivor SMR logs differ";
      "end of run: submitted lin commands missing";
    ]

let schedule text =
  match Net.Nemesis.parse_schedule text with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let green label text =
  let r =
    Ec.Chaos.run
      { (Ec.Chaos.default ~n:3 ~schedule:(schedule text)) with seed = 1 }
  in
  Alcotest.(check (list string)) (label ^ ": no invariant failures") []
    r.failures;
  r

(* Regressions: the SMR freeze is owed only when the cut leaves no
   majority component — {0, 1} is one under both schedules, so SMR
   keeps deciding there (both used to fail "SMR applied grew ... with no
   majority component") — and the watchdog owes no progress once a
   majority has crashed (it used to fail at round 1617). *)
let test_chaos_majority_regimes () =
  let partitioned =
    green "partition 0 1 | 2" "at 300 partition 0 1 | 2\nat 900 heal"
  in
  Alcotest.(check bool) "the majority side kept deciding" false
    partitioned.detail.smr_frozen_in_partition;
  ignore (green "isolate 2" "at 400 isolate 2\nat 1600 heal");
  ignore (green "majority crash" "at 500 kill 1\nat 500 kill 2")

let test_chaos_deterministic () =
  let a = Ec.Chaos.run (default_cfg 3) in
  let b = Ec.Chaos.run (default_cfg 3) in
  Alcotest.(check bool) "same seed replays bit-for-bit" true (a = b);
  let c = Ec.Chaos.run { (default_cfg 3) with Ec.Chaos.seed = 7 } in
  Alcotest.(check bool) "run completed under another seed" true
    (c.Net.Chaos.rounds_run = (default_cfg 3).Ec.Chaos.rounds)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ec"
    [
      ( "semilattice",
        qcheck
          [
            prop_join_idempotent;
            prop_join_commutative;
            prop_join_associative;
            prop_join_picks_an_argument;
          ]
        @ [ Alcotest.test_case "causal dominance" `Quick test_store_dominance ]
      );
      ( "convergence",
        qcheck [ prop_stores_converge ]
        @ [
            Alcotest.test_case "replica pump converges + quiesces" `Quick
              test_replica_pump_quiesces;
          ] );
      ( "codecs",
        qcheck [ prop_codec_entry ]
        @ [
            Alcotest.test_case "anti-entropy messages" `Quick test_codec_msgs;
            Alcotest.test_case "mixed client frames" `Quick
              test_codec_requests;
          ] );
      ( "chaos",
        [
          Alcotest.test_case "default run green" `Quick
            test_chaos_default_green;
          Alcotest.test_case "deterministic replay" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "run cut at the heal fails its checks" `Quick
            test_chaos_positive_control;
          Alcotest.test_case "freeze and progress owed only with a majority"
            `Quick test_chaos_majority_regimes;
        ] );
    ]
