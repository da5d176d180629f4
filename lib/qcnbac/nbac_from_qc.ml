type msg = Vote_msg of Types.vote | Inner of int Qc_psi.msg

module Pid_map = Map.Make (Sim.Pid)

type state = {
  voted : bool;
  votes : Types.vote Pid_map.t;
  proposal : int option;  (* what we proposed to QC, once known *)
  inner : int Qc_psi.state;
  decided : bool;
}

let qc_proposal st = st.proposal

let inner_proto :
    (int Qc_psi.state, int Qc_psi.msg, Fd.Psi.output, int,
     int Types.qc_decision)
    Sim.Protocol.t =
  Qc_psi.protocol

let init ~n pid =
  {
    voted = false;
    votes = Pid_map.empty;
    proposal = None;
    inner = inner_proto.Sim.Protocol.init ~n pid;
    decided = false;
  }

(* The inner QC's messages, tagged; its decision is harvested below. *)
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
  | Some d when not st.decided ->
    let outcome =
      match d with
      | Types.Value 1 -> Types.Commit
      | Types.Value _ | Types.Quit -> Types.Abort
    in
    ({ st with decided = true }, [ Sim.Protocol.Output outcome ])
  | Some _ | None -> (st, [])

(* Line 2-6 of Figure 4: close the vote-collection phase on a full tally or
   on a red failure signal. *)
let maybe_propose (ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st =
  let _, fs = ctx.fd in
  if st.proposal <> None || not st.voted then (st, [])
  else
    let have_all = Pid_map.cardinal st.votes = ctx.n in
    let all_yes =
      Pid_map.for_all (fun _ v -> Types.equal_vote v Types.Yes) st.votes
    in
    if have_all && all_yes then
      let psi, _ = ctx.fd in
      let ictx = { ctx with Sim.Protocol.fd = psi } in
      let inner, acts = inner_proto.Sim.Protocol.on_input ictx st.inner 1 in
      ({ st with proposal = Some 1; inner }, inner_sends acts)
    else if have_all || Fd.Fs.equal_output fs Fd.Fs.Red then
      let psi, _ = ctx.fd in
      let ictx = { ctx with Sim.Protocol.fd = psi } in
      let inner, acts = inner_proto.Sim.Protocol.on_input ictx st.inner 0 in
      ({ st with proposal = Some 0; inner }, inner_sends acts)
    else (st, [])

let on_step (ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st recv =
  let psi, _ = ctx.fd in
  let ictx = { ctx with Sim.Protocol.fd = psi } in
  let st, acts1 =
    match recv with
    | Some (from, Vote_msg v) ->
      ({ st with votes = Pid_map.add from v st.votes }, [])
    | Some (from, Inner m) ->
      let inner, acts =
        inner_proto.Sim.Protocol.on_step ictx st.inner (Some (from, m))
      in
      let st = { st with inner } in
      let st, outs = harvest st acts in
      (st, inner_sends acts @ outs)
    | None ->
      let inner, acts = inner_proto.Sim.Protocol.on_step ictx st.inner None in
      let st = { st with inner } in
      let st, outs = harvest st acts in
      (st, inner_sends acts @ outs)
  in
  let st, acts2 = maybe_propose ctx st in
  (st, acts1 @ acts2)

let on_input (_ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st v =
  if st.voted then (st, [])
  else ({ st with voted = true }, [ Sim.Protocol.Broadcast (Vote_msg v) ])

let protocol = { Sim.Protocol.init; on_step; on_input }
