type 'out t = {
  name : string;
  on_output :
    Sim.Failure_pattern.t ->
    'out Sim.Trace.event list ->
    (unit, string) result;
  final :
    Sim.Failure_pattern.t ->
    must_terminate:bool ->
    'out Sim.Trace.event list ->
    (unit, string) result;
}

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let decision (p : _ Cons.Spec.problem) =
  {
    name = p.name;
    on_output = Cons.Spec.safety p;
    final =
      (fun fp ~must_terminate ->
        if must_terminate then Cons.Spec.check p fp else Cons.Spec.safety p fp);
  }

(* ------------------------------------------------------------------ *)
(* Atomic registers: the history of Invoked/Responded events must be
   linearizable (checked at the end of the run — the check is global),
   and once the run can no longer progress every operation a correct
   process invoked must have completed.                                *)

let linearizable () =
  let ops_complete fp events =
    let count pid f =
      List.length
        (List.filter
           (fun (e : _ Sim.Trace.event) -> Sim.Pid.equal e.pid pid && f e.value)
           events)
    in
    match
      List.find_opt
        (fun p ->
          count p (function Regs.Abd.Invoked _ -> true | _ -> false)
          > count p (function Regs.Abd.Responded _ -> true | _ -> false))
        (Sim.Pidset.elements (Sim.Failure_pattern.correct fp))
    with
    | Some p ->
      Error
        (Format.asprintf
           "termination violated: an operation of correct %a never completed"
           Sim.Pid.pp p)
    | None -> Ok ()
  in
  {
    name = "linearizability";
    on_output = (fun _ _ -> Ok ());
    final =
      (fun fp ~must_terminate events ->
        let* () =
          if Regs.Linearizability.check_trace events then Ok ()
          else Error "linearizability violated: history admits no legal order"
        in
        if must_terminate then ops_complete fp events else Ok ());
  }

let ec_convergence () =
  {
    name = "ec_convergence";
    (* Divergence between replicas mid-run is not a fault — eventual
       consistency promises nothing before quiescence — so there is no
       online safety clause.  The whole spec is the termination clause:
       once the run has drained, every correct replica's last emitted
       store fingerprint must agree. *)
    on_output = (fun _ _ -> Ok ());
    final =
      (fun fp ~must_terminate events ->
        if not must_terminate then Ok ()
        else
          let last = Hashtbl.create 8 in
          List.iter
            (fun (e : _ Sim.Trace.event) ->
              let (Ec.Replica.Fp fp) = e.value in
              Hashtbl.replace last e.pid fp)
            events;
          let correct =
            Sim.Pidset.elements (Sim.Failure_pattern.correct fp)
          in
          match
            List.find_opt (fun p -> not (Hashtbl.mem last p)) correct
          with
          | Some p ->
            Error
              (Format.asprintf
                 "convergence violated: correct %a never reported a \
                  fingerprint"
                 Sim.Pid.pp p)
          | None -> (
            match correct with
            | [] -> Ok ()
            | p0 :: rest -> (
              let ref_fp = Hashtbl.find last p0 in
              match
                List.find_opt
                  (fun p -> Hashtbl.find last p <> ref_fp)
                  rest
              with
              | None -> Ok ()
              | Some p ->
                Error
                  (Format.asprintf
                     "convergence violated: %a settled on %s, %a on %s"
                     Sim.Pid.pp p0 ref_fp Sim.Pid.pp p
                     (Hashtbl.find last p)))));
  }
