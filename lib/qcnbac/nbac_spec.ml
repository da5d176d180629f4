let problem ~votes =
  let some_no = List.exists (fun (_, v) -> Types.equal_vote v Types.No) votes in
  {
    Cons.Spec.name = "nbac";
    inputs = List.map fst votes;
    pp = Types.pp_outcome;
    validity =
      (fun fp (e : _ Sim.Trace.event) ->
        match (e.value, Sim.Failure_pattern.first_crash fp) with
        | Types.Commit, _ ->
          if List.length votes = Sim.Failure_pattern.n fp && not some_no then
            None
          else Some "committed though not all voted Yes"
        | Types.Abort, _ when some_no -> None
        | Types.Abort, Some t0 when t0 < e.time -> None
        | Types.Abort, (Some _ | None) ->
          Some "aborted with neither a No vote nor a prior failure");
  }
