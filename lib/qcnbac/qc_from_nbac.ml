type 'v msg = Proposal of 'v | Inner of Nbac_from_qc.msg

module Pid_map = Map.Make (Sim.Pid)

type 'v state = {
  proposed : bool;
  proposals : 'v Pid_map.t;
  inner : Nbac_from_qc.state;
  committed : bool;  (* the NBAC instance returned Commit *)
  decided : bool;
}

let inner_proto :
    (Nbac_from_qc.state, Nbac_from_qc.msg, Fd.Psi.output * Fd.Fs.output,
     Types.vote, Types.outcome)
    Sim.Protocol.t =
  Nbac_from_qc.protocol

let init ~n pid =
  {
    proposed = false;
    proposals = Pid_map.empty;
    inner = inner_proto.Sim.Protocol.init ~n pid;
    committed = false;
    decided = false;
  }

(* One event of the inner NBAC: its messages go out tagged, its outcome
   is harvested here. *)
let run_inner ctx st ev =
  let inner, sends, outcomes =
    Sim.Protocol.apply inner_proto ctx st.inner ev ~msg:(fun m -> Inner m)
  in
  let st = { st with inner } in
  match outcomes with
  | Types.Abort :: _ when not st.decided ->
    ({ st with decided = true }, sends @ [ Sim.Protocol.Output Types.Quit ])
  | Types.Commit :: _ -> ({ st with committed = true }, sends)
  | Types.Abort :: _ | [] -> (st, sends)

(* Once committed, wait for every process's proposal and return the
   smallest (line 6-7 of Figure 5). *)
let maybe_finish (ctx : _ Sim.Protocol.ctx) st =
  if
    st.committed && (not st.decided)
    && Pid_map.cardinal st.proposals = ctx.Sim.Protocol.n
  then
    let smallest =
      Pid_map.fold
        (fun _ v acc ->
          match acc with
          | None -> Some v
          | Some w -> if compare v w < 0 then Some v else Some w)
        st.proposals None
    in
    match smallest with
    | Some v ->
      ({ st with decided = true }, [ Sim.Protocol.Output (Types.Value v) ])
    | None -> (st, [])
  else (st, [])

let on_step ctx st recv =
  let st, acts1 =
    match recv with
    | Some (from, Proposal v) ->
      ({ st with proposals = Pid_map.add from v st.proposals }, [])
    | Some (from, Inner m) ->
      run_inner ctx st (Sim.Protocol.Step (Some (from, m)))
    | None -> run_inner ctx st (Sim.Protocol.Step None)
  in
  let st, acts2 = maybe_finish ctx st in
  (st, acts1 @ acts2)

let on_input ctx st v =
  if st.proposed then (st, [])
  else
    let st, acts =
      run_inner ctx { st with proposed = true } (Sim.Protocol.Input Types.Yes)
    in
    (st, Sim.Protocol.Broadcast (Proposal v) :: acts)

let protocol = { Sim.Protocol.init; on_step; on_input }
