(* A linearizable replicated key-value store on ABD registers with Σ.

   Each key is one multi-writer multi-reader atomic register, replicated on
   all 5 processes.  Three of the five replicas crash during the run — any
   majority-quorum store would be dead — yet every surviving client
   operation completes and the whole history stays linearizable, because
   the quorums come from Σ (Theorem 1).

     dune exec examples/replicated_kv.exe
*)

let keys = [| "alice"; "bob"; "carol" |]

let () =
  let n = 5 in
  let fp = Sim.Failure_pattern.make ~n [ (0, 100); (1, 250); (2, 400) ] in
  let seed = 7 in
  Format.printf
    "Replicated KV store: %d replicas, keys {%s}@.%a — only 2 of 5 survive!@.@."
    n
    (String.concat ", " (Array.to_list keys))
    Sim.Failure_pattern.pp fp;

  let sigma = Fd.Oracle.history Fd.Sigma.oracle fp ~seed in

  (* A little banking workload: deposits (writes) and balance checks
     (reads), issued by all processes over time. *)
  let inputs =
    [
      (0, 3, Regs.Abd.Write (0, 100));
      (5, 4, Regs.Abd.Write (1, 250));
      (30, 3, Regs.Abd.Read 0);
      (60, 4, Regs.Abd.Write (0, 120));
      (90, 3, Regs.Abd.Read 1);
      (150, 4, Regs.Abd.Read 0);
      (200, 3, Regs.Abd.Write (2, 75));
      (300, 4, Regs.Abd.Read 2);
      (450, 3, Regs.Abd.Read 0);
      (500, 4, Regs.Abd.Write (2, 80));
      (550, 3, Regs.Abd.Read 2);
    ]
  in
  let expected_ops =
    List.length (List.filter (fun (_, p, _) -> p = 3 || p = 4) inputs)
  in
  let responded outputs =
    List.length
      (List.filter
         (fun (e : _ Sim.Trace.event) ->
           match e.value with
           | Regs.Abd.Responded _ -> true
           | Regs.Abd.Invoked _ -> false)
         outputs)
  in
  let cfg =
    Sim.Engine.config ~seed ~max_steps:100_000 ~inputs
      ~stop:(fun outputs -> responded outputs >= expected_ops)
      ~detect_quiescence:false ~fd:sigma fp
  in
  let trace =
    Sim.Engine.run cfg (Regs.Abd.protocol ~registers:(Array.length keys))
  in

  Format.printf "Operation log:@.";
  List.iter
    (fun (e : int Regs.Abd.output Sim.Trace.event) ->
      match e.value with
      | Regs.Abd.Invoked { op; _ } ->
        let txt =
          match op with
          | Regs.Abd.Read k -> Printf.sprintf "read  %s" keys.(k)
          | Regs.Abd.Write (k, v) -> Printf.sprintf "write %s := %d" keys.(k) v
        in
        Format.printf "  t=%-5d %a  %s@." e.time Sim.Pid.pp e.pid txt
      | Regs.Abd.Responded { resp; _ } ->
        let txt =
          match resp with
          | Regs.Abd.Read_value (k, Some v) ->
            Printf.sprintf "  -> %s = %d" keys.(k) v
          | Regs.Abd.Read_value (k, None) ->
            Printf.sprintf "  -> %s unset" keys.(k)
          | Regs.Abd.Written k -> Printf.sprintf "  -> %s written" keys.(k)
        in
        Format.printf "  t=%-5d %a  %s@." e.time Sim.Pid.pp e.pid txt)
    trace.Sim.Trace.outputs;

  Format.printf "@.All operations completed: %b@."
    (trace.Sim.Trace.stopped = `Condition);
  Format.printf "History linearizable:     %b@."
    (Regs.Linearizability.check_trace trace.Sim.Trace.outputs);
  Format.printf "(majority quorums would have blocked after t=400: only 2 \
                 replicas remain)@."
