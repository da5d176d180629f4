(* Tests for state machine replication over repeated (Ω,Σ) consensus — the
   Lamport/Schneider reduction the paper's Corollary 3 leans on ("consensus
   implements any object, in particular registers").  We check total order,
   liveness, operation completion in arbitrary environments, and build an
   atomic register on top whose histories must be linearizable. *)

let run_smr ?(max_steps = 300_000) ~inputs ~stop fp seed =
  let omega = Fd.Oracle.history Fd.Omega.oracle fp ~seed in
  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed:(seed + 1) in
  let cfg =
    Sim.Engine.config ~seed ~max_steps ~inputs ~stop ~detect_quiescence:false
      ~fd:(fun p t -> (omega p t, sigma p t))
      fp
  in
  Sim.Engine.run cfg Cons.Smr.protocol

let log_of trace p =
  Sim.Trace.outputs_of trace p
  |> List.map (fun (slot, (c : _ Cons.Smr.cmd)) ->
         (slot, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))

(* Stop once every correct process has applied [k] slots. *)
let stop_applied fp k outputs =
  Sim.Pidset.for_all
    (fun p ->
      List.length
        (List.filter
           (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid p)
           outputs)
      >= k)
    (Sim.Failure_pattern.correct fp)

(* The log specification's view of an SMR run.  An entry's key is its
   (origin, seq, payload): each process numbers its submissions 0, 1, ...
   in submission order. *)
let spec_run ~inputs fp trace =
  let pids = Sim.Pid.all (Sim.Failure_pattern.n fp) in
  let by_time = List.stable_sort (fun (t, _, _) (t', _, _) -> compare t t') in
  let submitted =
    List.concat_map
      (fun p ->
        List.filter (fun (_, q, _) -> Sim.Pid.equal q p) (by_time inputs)
        |> List.mapi (fun seq (_, _, v) -> (p, (p, seq, v))))
      pids
  in
  {
    Cons.Log_spec.logs =
      List.map (fun p -> (p, Sim.Trace.outputs_of trace p)) pids;
    correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp);
    submitted;
    key =
      (fun (_, (c : _ Cons.Smr.cmd)) ->
        Some (c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload));
  }

let pp_key ppf (o, s, v) = Format.fprintf ppf "(%d, %d, %d)" o s v

let holds label = function
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %a" label
      (Format.pp_print_list (Cons.Log_spec.pp_violation pp_key))
      vs

let test_total_order () =
  for seed = 1 to 8 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:100
        (Sim.Rng.make (seed * 3))
    in
    (* Correct processes submit two commands each. *)
    let correct = Sim.Failure_pattern.correct fp in
    let inputs =
      List.concat_map
        (fun p -> [ (0, p, (p * 10) + 1); (30, p, (p * 10) + 2) ])
        (Sim.Pidset.elements correct)
    in
    let expected = List.length inputs in
    let trace =
      run_smr ~inputs ~stop:(stop_applied fp expected) fp seed
    in
    Alcotest.(check bool)
      (Printf.sprintf "applied everything (seed %d)" seed)
      true
      (trace.Sim.Trace.stopped = `Condition);
    holds
      (Printf.sprintf "integrity and total order (seed %d)" seed)
      (Cons.Log_spec.safety (spec_run ~inputs fp trace));
    let logs =
      List.map (fun p -> log_of trace p) (Sim.Pidset.elements correct)
    in
    (* Slots are consecutive from 0. *)
    List.iter
      (fun l ->
        List.iteri
          (fun i (slot, _, _, _) -> Alcotest.(check int) "slot order" i slot)
          l)
      logs
  done

let test_minority_correct_progress () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (0, 30); (1, 60); (2, 90) ] in
  let inputs = [ (0, 3, 100); (50, 4, 200); (120, 3, 300) ] in
  let trace = run_smr ~inputs ~stop:(stop_applied fp 3) fp 4 in
  Alcotest.(check bool) "SMR lives with 2 of 5" true
    (trace.Sim.Trace.stopped = `Condition);
  (* Both survivors saw all three commands in the same order. *)
  Alcotest.(check bool) "same logs" true (log_of trace 3 = log_of trace 4)

(* --- an atomic register implemented from consensus ----------------------- *)

(* Register commands; the log order defines the register's history. *)
type reg_cmd = Rread | Rwrite of int

let test_register_from_consensus () =
  for seed = 1 to 6 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:80
        (Sim.Rng.make (seed * 11))
    in
    let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
    (* Every correct process: write then read. *)
    let inputs =
      List.concat_map
        (fun p -> [ (0, p, Rwrite (100 + p)); (40, p, Rread) ])
        correct
    in
    let expected = List.length inputs in
    let trace = run_smr ~inputs ~stop:(stop_applied fp expected) fp seed in
    Alcotest.(check bool) "completed" true
      (trace.Sim.Trace.stopped = `Condition);
    (* Interpret the common log: replay it to assign each read its return
       value, then check the per-operation history for linearizability.
       Invocation time = submission time (0 or 40); response time = the
       moment the *origin* applied the slot holding its command. *)
    let p0 = List.hd correct in
    let common_log = Sim.Trace.outputs_of trace p0 in
    let value_before =
      (* slot -> register value before that slot is applied *)
      let tbl = Hashtbl.create 16 in
      let v = ref None in
      List.iter
        (fun (slot, (c : reg_cmd Cons.Smr.cmd)) ->
          Hashtbl.replace tbl slot !v;
          match c.Cons.Smr.payload with
          | Rwrite x -> v := Some x
          | Rread -> ())
        common_log;
      tbl
    in
    let resp_time origin seq =
      List.find_map
        (fun (e : (int * reg_cmd Cons.Smr.cmd) Sim.Trace.event) ->
          let _, c = e.value in
          if
            Sim.Pid.equal e.pid origin
            && Sim.Pid.equal c.Cons.Smr.origin origin
            && c.Cons.Smr.seq = seq
          then Some e.time
          else None)
        trace.Sim.Trace.outputs
    in
    let slot_of origin seq =
      List.find_map
        (fun (slot, (c : reg_cmd Cons.Smr.cmd)) ->
          if Sim.Pid.equal c.Cons.Smr.origin origin && c.Cons.Smr.seq = seq
          then Some slot
          else None)
        common_log
    in
    let history =
      List.concat_map
        (fun p ->
          List.filter_map
            (fun (inv, seq, cmd) ->
              match (resp_time p seq, slot_of p seq) with
              | Some resp, Some slot ->
                let kind =
                  match cmd with
                  | Rwrite v -> Regs.Linearizability.Write v
                  | Rread ->
                    Regs.Linearizability.Read (Hashtbl.find value_before slot)
                in
                Some { Regs.Linearizability.pid = p; inv; resp = Some resp; kind }
              | _ -> None)
            [ (0, 0, Rwrite (100 + p)); (40, 1, Rread) ])
        correct
    in
    Alcotest.(check bool)
      (Printf.sprintf "register-from-consensus linearizable (seed %d)" seed)
      true
      (Regs.Linearizability.check history)
  done

let test_duplicate_submissions_ignored () =
  (* The same command gossiped many times must be decided exactly once. *)
  let fp = Sim.Failure_pattern.failure_free 3 in
  let inputs = [ (0, 0, 7); (10, 1, 8) ] in
  let trace = run_smr ~inputs ~stop:(stop_applied fp 2) fp 9 in
  let log = log_of trace 2 in
  Alcotest.(check int) "exactly two entries" 2 (List.length log);
  let uniq = List.sort_uniq compare (List.map (fun (_, o, s, _) -> (o, s)) log) in
  Alcotest.(check int) "no duplicates" 2 (List.length uniq)

(* SMR is a total-order broadcast: check it against the full TO spec. *)
let test_smr_satisfies_to_broadcast_spec () =
  for seed = 1 to 8 do
    let fp =
      Sim.Environment.sample Sim.Environment.any ~n:4 ~horizon:60
        (Sim.Rng.make (seed * 17))
    in
    let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
    let inputs =
      List.concat_map (fun p -> [ (0, p, p); (20, p, p + 100) ]) correct
    in
    let expected = List.length inputs in
    let trace = run_smr ~inputs ~stop:(stop_applied fp expected) fp seed in
    Alcotest.(check bool) "completed" true
      (trace.Sim.Trace.stopped = `Condition);
    holds
      (Printf.sprintf "TO spec (seed %d)" seed)
      (Cons.Log_spec.check ~live:true (spec_run ~inputs fp trace))
  done

let prop_smr_total_order =
  QCheck.Test.make ~name:"SMR logs agree across correct processes" ~count:12
    QCheck.small_nat (fun seed ->
      let seed = seed + 1 in
      let fp =
        Sim.Environment.sample Sim.Environment.any ~n:3 ~horizon:80
          (Sim.Rng.make (seed * 53))
      in
      let correct = Sim.Pidset.elements (Sim.Failure_pattern.correct fp) in
      let inputs = List.map (fun p -> (0, p, p)) correct in
      let trace =
        run_smr ~inputs ~stop:(stop_applied fp (List.length inputs)) fp seed
      in
      trace.Sim.Trace.stopped = `Condition
      && Cons.Log_spec.safety (spec_run ~inputs fp trace) = [])

(* --- Cons.Seen against a reference set of (origin, seq) pairs ------------ *)

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type seen_op = Add of int * int | Next of int

let interesting_seqs = [ -2; -1; 0; 1; 2; max_int - 1; max_int; min_int ]

let seen_op_gen =
  let open QCheck.Gen in
  let origin = int_range 0 4 in
  let seq =
    frequency
      [
        (6, int_range 0 24);
        (2, oneofl interesting_seqs);
        (1, int_range (-5) (-1));
      ]
  in
  frequency
    [
      (5, map (fun o -> Next o) origin);
      (3, map2 (fun o s -> Add (o, s)) origin seq);
    ]

let pp_seen_op = function
  | Add (o, s) -> Printf.sprintf "add %d %d" o s
  | Next o -> Printf.sprintf "next %d" o

(* The in-order case: the smallest non-negative seq of [o] not yet
   present. *)
let next_seq ref_set o =
  let rec go s = if Pair_set.mem (o, s) ref_set then go (s + 1) else s in
  go 0

(* [seen] is in canonical form, holds exactly [ref_set]'s keys per origin
   it lists, and [mem] agrees with the reference on every present key and
   on a fixed probe set. *)
let seen_agrees seen ref_set =
  let canonical =
    List.for_all
      (fun (o, floor, above) ->
        let ref_o = Pair_set.filter (fun (o', _) -> o' = o) ref_set in
        floor >= 0
        && List.for_all (fun s -> s < 0 || s > floor) above
        && List.for_all
             (fun s -> Pair_set.mem (o, s) ref_o)
             (above @ List.init floor Fun.id)
        && floor + List.length above = Pair_set.cardinal ref_o)
      (Cons.Seen.watermarks seen)
  in
  let probes =
    Pair_set.elements ref_set
    @ List.concat_map
        (fun o ->
          List.map (fun s -> (o, s)) (interesting_seqs @ List.init 30 Fun.id))
        [ 0; 1; 2; 3; 4 ]
  in
  canonical
  && List.for_all
       (fun (o, s) -> Cons.Seen.mem seen o s = Pair_set.mem (o, s) ref_set)
       probes

let prop_seen_model =
  QCheck.Test.make ~name:"Cons.Seen agrees with a reference pair set"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_seen_op ops))
       QCheck.Gen.(list_size (int_range 0 120) seen_op_gen))
    (fun ops ->
      let rec go seen ref_set = function
        | [] -> true
        | Next o :: rest -> add seen ref_set o (next_seq ref_set o) rest
        | Add (o, s) :: rest -> add seen ref_set o s rest
      and add seen ref_set o s rest =
        let seen = Cons.Seen.add seen o s in
        let ref_set = Pair_set.add (o, s) ref_set in
        seen_agrees seen ref_set && go seen ref_set rest
      in
      go Cons.Seen.empty Pair_set.empty ops)

(* A contiguous run collapses to its watermark, whatever the arrival order. *)
let test_seen_collapses () =
  let seen =
    List.fold_left
      (fun t s -> Cons.Seen.add t 3 s)
      Cons.Seen.empty [ 4; 2; 0; 3; 1; 7; 5 ]
  in
  Alcotest.(check (list (triple int int (list int))))
    "floor 6, one straggler" [ (3, 6, [ 7 ]) ] (Cons.Seen.watermarks seen);
  let seen = Cons.Seen.add seen 3 (-1) in
  Alcotest.(check bool) "-1 present once added" true
    (Cons.Seen.mem seen 3 (-1));
  Alcotest.(check bool) "-2 still absent" false (Cons.Seen.mem seen 3 (-2))

(* Keys a decoded frame may carry but no origin generates (seq -1,
   max_int) are deduplicated exactly like ordinary ones: stepping the
   protocol with the same Submit/decision script over [(a, b)] = (-1,
   max_int) and (3, 7) must give the same observable trace.  A watermark
   that counted seq < floor as seen would drop -1 on arrival. *)
let dedup_script (a, b) =
  let proto = Cons.Smr.make ~window:4 () in
  (* Ω trusts process 1, so process 0 only queues: backlog counts what
     it accepted *)
  let ctx =
    { Sim.Protocol.self = 0; n = 3; now = 0; fd = (1, Sim.Pidset.full 3) }
  in
  let cmd seq payload = { Cons.Smr.origin = 1; seq; payload } in
  let submit st cs =
    fst (proto.Sim.Protocol.on_step ctx st (Some (1, Cons.Smr.Submit cs)))
  in
  let st = proto.Sim.Protocol.init ~n:3 0 in
  let st = submit st [ cmd 0 "z" ] in
  let b1 = Cons.Smr.backlog st in
  let st = submit st [ cmd a "a"; cmd b "b" ] in
  let b2 = Cons.Smr.backlog st in
  let st = submit st [ cmd b "b"; cmd a "a" ] in
  let b3 = Cons.Smr.backlog st in
  (* the same keys decided twice, in two instances: applied once *)
  let st, entries =
    Cons.Smr.install st
      [
        (0, [ cmd a "a"; cmd b "b" ]);
        (1, [ cmd b "b"; cmd 0 "z"; cmd a "a" ]);
      ]
  in
  let b4 = Cons.Smr.backlog st in
  let st = submit st [ cmd a "a"; cmd b "b"; cmd 0 "z" ] in
  ( [ b1; b2; b3; b4; Cons.Smr.backlog st; Cons.Smr.applied st ],
    List.map (fun (i, c) -> (i, c.Cons.Smr.payload)) entries )

let test_edge_seqs_dedup () =
  let counts, entries = dedup_script (-1, max_int) in
  Alcotest.(check (list int))
    "backlog after each frame, then applied" [ 1; 3; 3; 0; 0; 3 ] counts;
  Alcotest.(check (list (pair int string)))
    "each key applied exactly once" [ (0, "a"); (1, "b"); (2, "z") ] entries;
  Alcotest.(check bool) "same trace as ordinary keys" true
    (dedup_script (-1, max_int) = dedup_script (3, 7)
    && dedup_script (min_int, max_int - 1) = dedup_script (3, 7))

let () =
  Alcotest.run "smr"
    [
      ( "total-order",
        [
          Alcotest.test_case "logs agree" `Slow test_total_order;
          Alcotest.test_case "minority correct progress" `Quick
            test_minority_correct_progress;
          Alcotest.test_case "duplicates ignored" `Quick
            test_duplicate_submissions_ignored;
        ] );
      ( "to-broadcast",
        [
          Alcotest.test_case "SMR satisfies the TO spec" `Slow
            test_smr_satisfies_to_broadcast_spec;
        ] );
      ( "register-from-consensus",
        [
          Alcotest.test_case "linearizable (Cor 3 reduction)" `Slow
            test_register_from_consensus;
        ] );
      ( "seen",
        [
          QCheck_alcotest.to_alcotest prop_seen_model;
          Alcotest.test_case "contiguous runs collapse" `Quick
            test_seen_collapses;
          Alcotest.test_case "seq -1 and max_int deduplicated like any key"
            `Quick test_edge_seqs_dedup;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_smr_total_order ]);
    ]
