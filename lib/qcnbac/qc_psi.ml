type 'v msg = Inner of 'v Cons.Quorum_paxos.msg

type 'v phase =
  | Waiting of (Sim.Pid.t * 'v msg) list  (* buffered messages, newest first *)
  | Running of 'v Cons.Quorum_paxos.state
  | Done

type 'v state = {
  proposal : 'v option;
  fed : bool;  (* the proposal has been passed to the inner consensus *)
  phase : 'v phase;
}

let inner :
    ('v Cons.Quorum_paxos.state, 'v Cons.Quorum_paxos.msg,
     Sim.Pid.t * Sim.Pidset.t, 'v, 'v)
    Sim.Protocol.t =
  Cons.Quorum_paxos.protocol

let init ~n:_ _self = { proposal = None; fed = false; phase = Waiting [] }

(* Feed the stored proposal to the inner consensus if we have not yet. *)
let feed ictx st ist =
  match (st.fed, st.proposal) with
  | false, Some v ->
    let ist, acts = inner.Sim.Protocol.on_input ictx ist v in
    ({ st with fed = true }, ist, acts)
  | true, _ | _, None -> (st, ist, [])

let run_inner ictx st ist recv =
  let st, ist, acts0 = feed ictx st ist in
  let ist, acts = inner.Sim.Protocol.on_step ictx ist recv in
  let acts = acts0 @ acts in
  let decided =
    List.exists
      (fun a ->
        match a with
        | Sim.Protocol.Output _ -> true
        | Sim.Protocol.Send _ | Sim.Protocol.Broadcast _ -> false)
      acts
  in
  let st = { st with phase = (if decided then Done else Running ist) } in
  ( st,
    Sim.Protocol.map_actions
      ~msg:(fun m -> Inner m)
      ~out:(fun v -> Some (Types.Value v))
      acts )

let on_step (ctx : Fd.Psi.output Sim.Protocol.ctx) st recv =
  match (st.phase, ctx.fd) with
  | Done, _ -> (st, [])
  | Waiting buffered, Fd.Psi.Bot ->
    (* Still ⊥: just buffer any consensus traffic. *)
    let buffered =
      match recv with Some e -> e :: buffered | None -> buffered
    in
    ({ st with phase = Waiting buffered }, [])
  | Waiting _, Fd.Psi.Fs_mode _ ->
    (* Ψ chose the failure-signal behaviour: a failure occurred; quit. *)
    ({ st with phase = Done }, [ Sim.Protocol.Output Types.Quit ])
  | Waiting buffered, Fd.Psi.Cons_mode (omega, sigma) ->
    (* Ψ chose (Ω, Σ): start consensus, replaying buffered traffic. *)
    let ictx = { ctx with Sim.Protocol.fd = (omega, sigma) } in
    let ist = inner.Sim.Protocol.init ~n:ctx.n ctx.self in
    let events =
      match recv with
      | Some e -> List.rev (e :: buffered)
      | None -> List.rev buffered
    in
    let st = { st with phase = Running ist } in
    let st, acts =
      List.fold_left
        (fun (st, acc) (from, Inner m) ->
          match st.phase with
          | Running ist ->
            let st, acts = run_inner ictx st ist (Some (from, m)) in
            (st, acc @ acts)
          | Waiting _ | Done -> (st, acc))
        (st, []) events
    in
    (* One empty inner step so the leader logic runs even with no backlog. *)
    (match st.phase with
    | Running ist ->
      let st, acts' = run_inner ictx st ist None in
      (st, acts @ acts')
    | Waiting _ | Done -> (st, acts))
  | Running ist, Fd.Psi.Cons_mode (omega, sigma) ->
    let ictx = { ctx with Sim.Protocol.fd = (omega, sigma) } in
    let recv' =
      match recv with Some (from, Inner m) -> Some (from, m) | None -> None
    in
    run_inner ictx st ist recv'
  | Running _, (Fd.Psi.Bot | Fd.Psi.Fs_mode _) ->
    (* Ψ never relapses once it shows (Ω,Σ); treat a glitch as an empty
       step. *)
    (st, [])

let on_input _ctx st v =
  match st.proposal with
  | Some _ -> (st, [])
  | None -> ({ st with proposal = Some v }, [])

let protocol = { Sim.Protocol.init; on_step; on_input }
