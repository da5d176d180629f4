type ('st, 'v) state = {
  app : 'st;
  abd : 'v Abd.state;
  busy : bool;  (* an ABD operation is in flight: the app must wait *)
  resp : 'v option option;  (* pending read result for the app's next step *)
}

let complete st = function
  | Abd.Invoked _ -> st
  | Abd.Responded { resp = Abd.Read_value (_, v); _ } ->
    { st with busy = false; resp = Some v }
  | Abd.Responded { resp = Abd.Written _; _ } ->
    { st with busy = false; resp = None }

let protocol ~registers (p : _ Shm.proto) =
  let abd = Abd.protocol ~registers in
  let split_ctx (ctx : ('afd * Sim.Pidset.t) Sim.Protocol.ctx) =
    let afd, sigma = ctx.Sim.Protocol.fd in
    ( { ctx with Sim.Protocol.fd = afd },
      { ctx with Sim.Protocol.fd = sigma } )
  in
  (* One event of the ABD layer: its messages pass through; its completions
     unblock the app and carry read results. *)
  let run_abd ctx st ev =
    let abd_st, sends, outs =
      Sim.Protocol.apply abd ctx st.abd ev ~msg:Fun.id
    in
    (List.fold_left complete { st with abd = abd_st } outs, sends)
  in
  (* Let the app take one shared-memory step if no register operation is in
     flight, issuing its command to the ABD layer. *)
  let app_step actx st =
    if st.busy then (st, [])
    else
      let app, cmd, outs = p.Shm.step actx st.app ~resp:st.resp in
      let st = { st with app; resp = None } in
      let invoke op =
        run_abd
          { actx with Sim.Protocol.fd = Sim.Pidset.empty }
          { st with busy = true } (Sim.Protocol.Input op)
      in
      let st, acts =
        match cmd with
        | Shm.Skip -> (st, [])
        | Shm.Read rid -> invoke (Abd.Read rid)
        | Shm.Write (rid, v) -> invoke (Abd.Write (rid, v))
      in
      (st, acts @ List.map (fun o -> Sim.Protocol.Output o) outs)
  in
  {
    Sim.Protocol.init =
      (fun ~n pid ->
        {
          app = p.Shm.init ~n pid;
          abd = abd.Sim.Protocol.init ~n pid;
          busy = false;
          resp = None;
        });
    on_step =
      (fun ctx st recv ->
        let actx, sctx = split_ctx ctx in
        (* The ABD layer runs on every step (it must answer replica
           requests and detect quorum completion with fresh Σ samples). *)
        let st, acts1 = run_abd sctx st (Sim.Protocol.Step recv) in
        let st, acts2 = app_step actx st in
        (st, acts1 @ acts2));
    on_input =
      (fun ctx st inp ->
        let actx, _ = split_ctx ctx in
        ({ st with app = p.Shm.input actx st.app inp }, []));
  }
