module Int_map = Map.Make (Int)

type msg = Inst of int * Nbac_from_qc.msg

type state = {
  self : Sim.Pid.t;
  n : int;
  k : int;  (* the instance we are currently voting in *)
  started : bool;  (* instance [k] got our Yes vote *)
  emitted_green : bool;
  instances : Nbac_from_qc.state Int_map.t;
  red : bool;
}

let inner :
    (Nbac_from_qc.state, Nbac_from_qc.msg, Fd.Psi.output * Fd.Fs.output,
     Types.vote, Types.outcome)
    Sim.Protocol.t =
  Nbac_from_qc.protocol

let instance st = st.k

let init ~n self =
  {
    self;
    n;
    k = 0;
    started = false;
    emitted_green = false;
    instances = Int_map.empty;
    red = false;
  }

let run_instance ctx st k event =
  let ist =
    match Int_map.find_opt k st.instances with
    | Some s -> s
    | None -> inner.Sim.Protocol.init ~n:ctx.Sim.Protocol.n st.self
  in
  let ist, sends, decisions =
    Sim.Protocol.apply inner ctx ist event ~msg:(fun m -> Inst (k, m))
  in
  let st = { st with instances = Int_map.add k ist st.instances } in
  let st, outs =
    match decisions with
    | Types.Abort :: _ when not st.red ->
      ({ st with red = true }, [ Sim.Protocol.Output Fd.Fs.Red ])
    | Types.Commit :: _ when k = st.k ->
      (* Our current instance committed: everyone is alive enough to have
         voted; move to the next instance. *)
      ({ st with k = k + 1; started = false }, [])
    | _ :: _ | [] -> (st, [])
  in
  (st, sends @ outs)

let on_step ctx st recv =
  let st, acts0 =
    if st.emitted_green then (st, [])
    else
      ({ st with emitted_green = true }, [ Sim.Protocol.Output Fd.Fs.Green ])
  in
  if st.red then
    (* Permanently red; stop fuelling new instances (old ones may still
       message us — ignore, their outcome no longer matters). *)
    (st, acts0)
  else
    let st, acts1 =
      match recv with
      | Some (from, Inst (k, m)) ->
        run_instance ctx st k (Sim.Protocol.Step (Some (from, m)))
      | None -> run_instance ctx st st.k (Sim.Protocol.Step None)
    in
    let st, acts2 =
      if (not st.started) && not st.red then
        let st = { st with started = true } in
        run_instance ctx st st.k (Sim.Protocol.Input Types.Yes)
      else (st, [])
    in
    (st, acts0 @ acts1 @ acts2)

let on_input _ctx st () = (st, [])

let protocol = { Sim.Protocol.init; on_step; on_input }
