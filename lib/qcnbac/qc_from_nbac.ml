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

(* The inner NBAC's messages, tagged; its outcome is harvested apart. *)
let inner_sends acts =
  Sim.Protocol.map_actions ~msg:(fun m -> Inner m) ~out:(fun _ -> None) acts

let harvest st acts =
  let decision =
    List.find_map
      (fun a ->
        match a with
        | Sim.Protocol.Output d -> Some d
        | Sim.Protocol.Send _ | Sim.Protocol.Broadcast _ -> None)
      acts
  in
  match decision with
  | Some Types.Abort when not st.decided ->
    ({ st with decided = true }, [ Sim.Protocol.Output Types.Quit ])
  | Some Types.Commit -> ({ st with committed = true }, [])
  | Some Types.Abort | None -> (st, [])

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
      let inner, acts =
        inner_proto.Sim.Protocol.on_step ctx st.inner (Some (from, m))
      in
      let st = { st with inner } in
      let st, outs = harvest st acts in
      (st, inner_sends acts @ outs)
    | None ->
      let inner, acts = inner_proto.Sim.Protocol.on_step ctx st.inner None in
      let st = { st with inner } in
      let st, outs = harvest st acts in
      (st, inner_sends acts @ outs)
  in
  let st, acts2 = maybe_finish ctx st in
  (st, acts1 @ acts2)

let on_input ctx st v =
  if st.proposed then (st, [])
  else
    let inner, acts =
      inner_proto.Sim.Protocol.on_input ctx st.inner Types.Yes
    in
    ( { st with proposed = true; inner },
      Sim.Protocol.Broadcast (Proposal v) :: inner_sends acts )

let protocol = { Sim.Protocol.init; on_step; on_input }
