let problem ~pp ~proposals =
  let cons = Cons.Spec.consensus ~pp ~proposals in
  {
    cons with
    Cons.Spec.name = "quittable-consensus";
    pp = Types.pp_qc_decision pp;
    validity =
      (fun fp (e : _ Sim.Trace.event) ->
        match e.value with
        | Types.Value v -> cons.validity fp { e with value = v }
        | Types.Quit -> (
          match Sim.Failure_pattern.first_crash fp with
          | Some t0 when t0 < e.time -> None
          | Some _ | None -> Some "quit without a prior failure"));
  }
