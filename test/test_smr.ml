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

(* [Run (o, first, len, up)] adds seqs [first .. first + len - 1] of [o],
   ascending if [up], else descending: a decided batch's keys, or the
   same keys arriving newest first. *)
type seen_op =
  | Add of int * int
  | Next of int
  | Run of int * int * int * bool

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
  let run =
    let* o = origin and* len = int_range 1 12 and* up = bool in
    let+ first =
      frequency
        [
          (3, int_range (-20) 40);
          (1, int);
          (1, map (fun k -> max_int - len + 1 - k) (int_range 0 2));
          (1, map (fun k -> min_int + k) (int_range 0 2));
        ]
    in
    (* the run's last seq must not wrap past max_int *)
    Run (o, min first (max_int - len + 1), len, up)
  in
  frequency
    [
      (5, map (fun o -> Next o) origin);
      (3, map2 (fun o s -> Add (o, s)) origin seq);
      (2, run);
    ]

let pp_seen_op = function
  | Add (o, s) -> Printf.sprintf "add %d %d" o s
  | Next o -> Printf.sprintf "next %d" o
  | Run (o, first, len, up) ->
    Printf.sprintf "run %d %d+%d %s" o first len (if up then "up" else "down")

let run_seqs first len up =
  let seqs = List.init len (fun i -> first + i) in
  if up then seqs else List.rev seqs

(* The in-order case: the smallest non-negative seq of [o] not yet
   present. *)
let next_seq ref_set o =
  let rec go s = if Pair_set.mem (o, s) ref_set then go (s + 1) else s in
  go 0

(* [seen] is in canonical form, holds exactly [ref_set]'s keys per origin
   it lists, and [mem] agrees with the reference on every present key, on
   its neighbours and on a fixed probe set. *)
let seen_agrees seen ref_set =
  let canonical =
    List.for_all
      (fun (o, base, floor, stragglers) ->
        let ref_o = Pair_set.filter (fun (o', _) -> o' = o) ref_set in
        (* [base - 1, floor], read without wrapping *)
        let touches s = (base = min_int || s >= base - 1) && s <= floor in
        let rec run_present s =
          s >= floor || (Pair_set.mem (o, s) ref_o && run_present (s + 1))
        in
        base <= floor
        && List.for_all
             (fun s -> (not (touches s)) || (s = max_int && floor = max_int))
             stragglers
        && List.sort_uniq compare stragglers = stragglers
        && List.for_all (fun s -> Pair_set.mem (o, s) ref_o) stragglers
        && floor - base + List.length stragglers = Pair_set.cardinal ref_o
        && run_present base)
      (Cons.Seen.watermarks seen)
  in
  let neighbours (o, s) =
    [ (o, s) ]
    @ (if s > min_int then [ (o, s - 1) ] else [])
    @ if s < max_int then [ (o, s + 1) ] else []
  in
  let probes =
    List.concat_map neighbours (Pair_set.elements ref_set)
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
        | Next o :: rest -> add seen ref_set o [ next_seq ref_set o ] rest
        | Add (o, s) :: rest -> add seen ref_set o [ s ] rest
        | Run (o, first, len, up) :: rest ->
          add seen ref_set o (run_seqs first len up) rest
      and add seen ref_set o seqs rest =
        match seqs with
        | [] -> go seen ref_set rest
        | s :: seqs ->
          let seen = Cons.Seen.add seen o s in
          let ref_set = Pair_set.add (o, s) ref_set in
          seen_agrees seen ref_set && add seen ref_set o seqs rest
      in
      go Cons.Seen.empty Pair_set.empty ops)

(* [Cons.Seen.watermarks] as [(origin, (base, floor, stragglers))]. *)
let watermarks_t = Alcotest.(list (pair int (triple int int (list int))))

let watermarks seen =
  List.map (fun (o, b, f, s) -> (o, (b, f, s))) (Cons.Seen.watermarks seen)

(* A contiguous run collapses to one run, whatever the arrival order. *)
let test_seen_collapses () =
  let seen =
    List.fold_left
      (fun t s -> Cons.Seen.add t 3 s)
      Cons.Seen.empty [ 4; 2; 0; 3; 1; 7; 5 ]
  in
  Alcotest.check watermarks_t "run [0, 6), one straggler"
    [ (3, (0, 6, [ 7 ])) ]
    (watermarks seen);
  let seen = Cons.Seen.add seen 3 (-1) in
  Alcotest.(check bool) "-1 present once added" true
    (Cons.Seen.mem seen 3 (-1));
  Alcotest.(check bool) "-2 still absent" false (Cons.Seen.mem seen 3 (-2))

(* A decided batch's key set: one origin's seqs 10,000 .. 10,499, as a
   batch drained from the middle of a FIFO queue holds them.  One run, no
   straggler, in either arrival order. *)
let test_seen_batch_is_one_run () =
  let seqs = List.init 500 (fun i -> 10_000 + i) in
  List.iter
    (fun (order, seqs) ->
      Alcotest.check watermarks_t order
        [ (2, (10_000, 10_500, [])) ]
        (watermarks
           (List.fold_left (fun t s -> Cons.Seen.add t 2 s) Cons.Seen.empty seqs)))
    [ ("ascending", seqs); ("descending", List.rev seqs) ]

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

(* Only [on_input] fills a replica's announcements, so a Submit from p
   carries origin-p commands alone.  A command naming another origin is
   forged: it must reach neither the pending queue nor [known], where a
   far seq would pin its origin's run. *)
let test_submit_keeps_sender_commands () =
  let proto = Cons.Smr.make ~window:4 () in
  (* Ω trusts process 1, so process 2 only queues *)
  let ctx =
    { Sim.Protocol.self = 2; n = 3; now = 0; fd = (1, Sim.Pidset.full 3) }
  in
  let cmd origin seq = { Cons.Smr.origin; seq; payload = "x" } in
  let submit from st cs =
    fst (proto.Sim.Protocol.on_step ctx st (Some (from, Cons.Smr.Submit cs)))
  in
  let st = proto.Sim.Protocol.init ~n:3 2 in
  let forged = submit 1 st [ cmd 0 1_000_000 ] in
  Alcotest.(check int) "another origin's command dropped" 0
    (Cons.Smr.backlog forged);
  Alcotest.(check int) "the sender's own commands kept" 1
    (Cons.Smr.backlog (submit 1 st [ cmd 0 1_000_000; cmd 1 0; cmd 2 4 ]));
  Alcotest.(check int) "the forged key was not marked seen" 1
    (Cons.Smr.backlog (submit 0 forged [ cmd 0 1_000_000 ]))

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
          Alcotest.test_case "a batch's keys are one run" `Quick
            test_seen_batch_is_one_run;
          Alcotest.test_case "seq -1 and max_int deduplicated like any key"
            `Quick test_edge_seqs_dedup;
          Alcotest.test_case "a Submit carries only its sender's commands"
            `Quick test_submit_keeps_sender_commands;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_smr_total_order ]);
    ]
