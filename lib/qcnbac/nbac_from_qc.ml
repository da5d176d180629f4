type msg = Vote_msg of Types.vote | Inner of int Qc_psi.msg

module Pid_map = Map.Make (Sim.Pid)

type state = {
  voted : bool;
  votes : Types.vote Pid_map.t;
  proposal : int option;  (* what we proposed to QC, once known *)
  inner : int Qc_psi.state;
  decided : bool;
}

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

(* One event of the inner QC, on the Ψ half of the detector: its messages
   go out tagged, its decision is harvested here. *)
let run_inner (ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st ev =
  let psi, _ = ctx.fd in
  let inner, sends, decisions =
    Sim.Protocol.apply inner_proto
      { ctx with Sim.Protocol.fd = psi }
      st.inner ev
      ~msg:(fun m -> Inner m)
  in
  let st = { st with inner } in
  match decisions with
  | d :: _ when not st.decided ->
    let outcome =
      match d with
      | Types.Value 1 -> Types.Commit
      | Types.Value _ | Types.Quit -> Types.Abort
    in
    ({ st with decided = true }, sends @ [ Sim.Protocol.Output outcome ])
  | _ :: _ | [] -> (st, sends)

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
    let proposal =
      if have_all && all_yes then Some 1
      else if have_all || Fd.Fs.equal_output fs Fd.Fs.Red then Some 0
      else None
    in
    match proposal with
    | Some v -> run_inner ctx { st with proposal } (Sim.Protocol.Input v)
    | None -> (st, [])

let on_step (ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st recv =
  let st, acts1 =
    match recv with
    | Some (from, Vote_msg v) ->
      ({ st with votes = Pid_map.add from v st.votes }, [])
    | Some (from, Inner m) ->
      run_inner ctx st (Sim.Protocol.Step (Some (from, m)))
    | None -> run_inner ctx st (Sim.Protocol.Step None)
  in
  let st, acts2 = maybe_propose ctx st in
  (st, acts1 @ acts2)

let on_input (_ctx : (Fd.Psi.output * Fd.Fs.output) Sim.Protocol.ctx) st v =
  if st.voted then (st, [])
  else ({ st with voted = true }, [ Sim.Protocol.Broadcast (Vote_msg v) ])

let protocol = { Sim.Protocol.init; on_step; on_input }
