(* Register values: the writer's cycle counter and its set E_i of
   participant sets. *)
type reg_value = int * Sim.Pidset.t list

type msg =
  | Reg of reg_value Regs.Abd.msg
  | Probe of int  (* probe id *)
  | Probe_ack of int

type pc =
  | Writing  (* write (k, E_i) in flight *)
  | Reading of int  (* Reg_j read in flight *)
  | Probing of {
      j : int;  (* register whose sets we are probing *)
      waiting : Sim.Pidset.t;  (* the set X we probed, no answer yet *)
      rest : Sim.Pidset.t list;  (* remaining sets of Reg_j's value *)
      probe_id : int;
    }

type state = {
  self : Sim.Pid.t;
  n : int;
  abd : reg_value Regs.Abd.state;
  pc : pc;
  k : int;
  e_sets : Sim.Pidset.t list;  (* E_i *)
  last_participants : Sim.Pidset.t;  (* P_i(k-1) *)
  f_acc : Sim.Pidset.t;  (* F_i being accumulated this cycle *)
  next_probe : int;
  cycles : int;
}

let cycles st = st.cycles

let abd_proto :
    (reg_value Regs.Abd.state, reg_value Regs.Abd.msg, Sim.Pidset.t,
     reg_value Regs.Abd.input, reg_value Regs.Abd.output)
    Sim.Protocol.t =
  Regs.Abd.protocol ~registers:64

(* 64 is an upper bound on n for this transformation; register j belongs to
   process j. *)

let reg m = Reg m

let init ~n self =
  {
    self;
    n;
    abd = abd_proto.Sim.Protocol.init ~n self;
    pc = Writing;
    k = 0;
    (* Initially E_i = { P_i(0) } = { Π }. *)
    e_sets = [ Sim.Pidset.full n ];
    last_participants = Sim.Pidset.full n;
    f_acc = Sim.Pidset.full n;
    next_probe = 0;
    cycles = 0;
  }

(* Starting an operation drops ABD's [Invoked] output: only completions
   move this algorithm on. *)
let start_write ctx st =
  let k = st.k + 1 in
  let abd, sends, _invoked =
    Sim.Protocol.apply abd_proto ctx st.abd
      (Sim.Protocol.Input (Regs.Abd.Write (st.self, (k, st.e_sets))))
      ~msg:reg
  in
  ({ st with abd; k; pc = Writing }, sends)

let start_read ctx st j =
  let abd, sends, _invoked =
    Sim.Protocol.apply abd_proto ctx st.abd
      (Sim.Protocol.Input (Regs.Abd.Read j))
      ~msg:reg
  in
  ({ st with abd; pc = Reading j }, sends)

(* Move to probing the sets found in Reg_j, or to the next register, or
   finish the cycle. *)
let rec dispatch ctx st j sets =
  match sets with
  | x :: rest when not (Sim.Pidset.is_empty x) ->
    let probe_id = st.next_probe in
    let st =
      {
        st with
        next_probe = probe_id + 1;
        pc = Probing { j; waiting = x; rest; probe_id };
      }
    in
    let probes =
      Sim.Pidset.elements x
      |> List.map (fun q -> Sim.Protocol.Send (q, Probe probe_id))
    in
    (st, probes)
  | _ :: rest -> dispatch ctx st j rest
  | [] ->
    if j + 1 < st.n then start_read ctx st (j + 1)
    else begin
      (* Cycle complete: publish Σ-output := F_i and start the next write. *)
      let output = Sim.Protocol.Output st.f_acc in
      let st =
        {
          st with
          cycles = st.cycles + 1;
          f_acc = st.f_acc;
        }
      in
      let st, acts = start_write ctx st in
      (st, output :: acts)
    end

(* Handle a completed ABD operation. *)
let on_abd_output ctx st (out : reg_value Regs.Abd.output) =
  match (out, st.pc) with
  | Regs.Abd.Responded { resp = Regs.Abd.Written _; _ }, Writing ->
    (* write(k, E_i) finished: record P_i(k), reset F_i to P_i(k-1), read
       all registers. *)
    let participants = Regs.Abd.last_op_participants st.abd in
    let st =
      {
        st with
        f_acc = st.last_participants;
        last_participants = participants;
        e_sets = st.e_sets @ [ participants ];
      }
    in
    start_read ctx st 0
  | Regs.Abd.Responded { resp = Regs.Abd.Read_value (_, v); _ }, Reading j ->
    let sets = match v with Some (_, e) -> e | None -> [] in
    dispatch ctx st j sets
  | (Regs.Abd.Responded _ | Regs.Abd.Invoked _), _ -> (st, [])

let on_step (ctx : Sim.Pidset.t Sim.Protocol.ctx) st recv =
  (* First run the ABD layer with whatever register traffic arrived. *)
  let abd_recv =
    match recv with Some (from, Reg m) -> Some (from, m) | Some _ | None -> None
  in
  let abd, net_acts, completions =
    Sim.Protocol.apply abd_proto ctx st.abd (Sim.Protocol.Step abd_recv)
      ~msg:reg
  in
  let st, acts1 =
    List.fold_left
      (fun (st, acc) o ->
        let st, acts = on_abd_output ctx st o in
        (st, acc @ acts))
      ({ st with abd }, []) completions
  in
  (* Then the probe plane. *)
  let st, acts2 =
    match recv with
    | Some (from, Probe id) -> (st, [ Sim.Protocol.Send (from, Probe_ack id) ])
    | Some (from, Probe_ack id) -> (
      match st.pc with
      | Probing { j; waiting; rest; probe_id }
        when probe_id = id && Sim.Pidset.mem from waiting ->
        (* Line 16: F_i := F_i ∪ {p_t}. *)
        let st = { st with f_acc = Sim.Pidset.add from st.f_acc } in
        dispatch ctx st j rest
      | Probing _ | Writing | Reading _ -> (st, []))
    | Some (_, Reg _) | None ->
      (* Bootstrap: the very first write starts on the first step. *)
      if st.k = 0 then start_write ctx st else (st, [])
  in
  (st, net_acts @ acts1 @ acts2)

let on_input _ctx st () = (st, [])

let protocol = { Sim.Protocol.init; on_step; on_input }
