type rid = int

type 'v input = Read of rid | Write of rid * 'v

type 'v output =
  | Invoked of { op_seq : int; op : 'v input }
  | Responded of { op_seq : int; resp : 'v response }

and 'v response = Read_value of rid * 'v option | Written of rid

type opid = Sim.Pid.t * int

type 'v msg =
  | Query of opid * rid
  | Query_resp of opid * Tag.t * 'v option
  | Update of opid * rid * Tag.t * 'v option
  | Update_ack of opid

type phase = Phase1 | Phase2

type 'v pending = {
  opid : opid;
  op : 'v input;
  phase : phase;
  responders : Sim.Pidset.t;
  phase1_responders : Sim.Pidset.t;  (* kept for participant tracking *)
  best_tag : Tag.t;
  best_val : 'v option;
}

module Rid_map = Map.Make (Int)

type 'v state = {
  self : Sim.Pid.t;
  registers : int;
  store : (Tag.t * 'v option) Rid_map.t;  (* replica side *)
  pending : 'v pending option;
  queue : 'v input list;  (* newest first; reversed on dequeue *)
  op_seq : int;
  completed : int;
  last_participants : Sim.Pidset.t;
}

let stored st rid =
  match Rid_map.find_opt rid st.store with
  | Some tv -> tv
  | None -> (Tag.initial, None)

let last_op_participants st = st.last_participants

let init ~registers ~n:_ self =
  {
    self;
    registers;
    store = Rid_map.empty;
    pending = None;
    queue = [];
    op_seq = 0;
    completed = 0;
    last_participants = Sim.Pidset.empty;
  }

let rid_of = function Read rid -> rid | Write (rid, _) -> rid

(* Start the next queued operation, if idle. *)
let start_next st =
  match (st.pending, List.rev st.queue) with
  | Some _, _ | None, [] -> (st, [])
  | None, op :: rest ->
    let op_seq = st.op_seq + 1 in
    let opid = (st.self, op_seq) in
    let pending =
      {
        opid;
        op;
        phase = Phase1;
        responders = Sim.Pidset.empty;
        phase1_responders = Sim.Pidset.empty;
        best_tag = Tag.initial;
        best_val = None;
      }
    in
    ( { st with pending = Some pending; queue = List.rev rest; op_seq },
      [
        Sim.Protocol.Output (Invoked { op_seq; op });
        Sim.Protocol.Broadcast (Query (opid, rid_of op));
      ] )

(* A phase completes once the replicas that answered include one whole
   quorum sampled from Σ in this step. *)
let quorum_reached ~sigma responders = Sim.Pidset.subset sigma responders

let advance_phase st (p : 'v pending) =
  match p.phase with
  | Phase1 ->
    (* Phase 2: writers install a fresh tag; readers write back what they
       saw, so that a later read cannot observe an older value. *)
    let tag, value =
      match p.op with
      | Write (_, v) -> (Tag.next p.best_tag st.self, Some v)
      | Read _ -> (p.best_tag, p.best_val)
    in
    let pending =
      {
        p with
        phase = Phase2;
        phase1_responders = p.responders;
        responders = Sim.Pidset.empty;
        best_tag = tag;
        best_val = value;
      }
    in
    ( { st with pending = Some pending },
      [ Sim.Protocol.Broadcast (Update (p.opid, rid_of p.op, tag, value)) ] )
  | Phase2 ->
    let resp =
      match p.op with
      | Read rid -> Read_value (rid, p.best_val)
      | Write (rid, _) -> Written rid
    in
    let participants =
      Sim.Pidset.add st.self
        (Sim.Pidset.union p.phase1_responders p.responders)
    in
    let st =
      {
        st with
        pending = None;
        completed = st.completed + 1;
        last_participants = participants;
      }
    in
    let st, start_acts = start_next st in
    ( st,
      Sim.Protocol.Output (Responded { op_seq = snd p.opid; resp })
      :: start_acts )

let check_completion ~sigma st =
  match st.pending with
  | Some p when quorum_reached ~sigma p.responders -> advance_phase st p
  | Some _ | None -> (st, [])

let on_step (ctx : Sim.Pidset.t Sim.Protocol.ctx) st recv =
  let st, acts =
    match recv with
    | None -> (st, [])
    | Some (from, msg) -> (
      match msg with
      | Query (opid, rid) ->
        let tag, v = stored st rid in
        (st, [ Sim.Protocol.Send (from, Query_resp (opid, tag, v)) ])
      | Update (opid, rid, tag, v) ->
        let cur_tag, _ = stored st rid in
        let st =
          if Tag.compare tag cur_tag > 0 then
            { st with store = Rid_map.add rid (tag, v) st.store }
          else st
        in
        (st, [ Sim.Protocol.Send (from, Update_ack opid) ])
      | Query_resp (opid, tag, v) -> (
        match st.pending with
        | Some p when p.opid = opid && p.phase = Phase1 ->
          let best_tag, best_val =
            if Tag.compare tag p.best_tag > 0 then (tag, v)
            else (p.best_tag, p.best_val)
          in
          let pending =
            {
              p with
              responders = Sim.Pidset.add from p.responders;
              best_tag;
              best_val;
            }
          in
          ({ st with pending = Some pending }, [])
        | Some _ | None -> (st, []))
      | Update_ack opid -> (
        match st.pending with
        | Some p when p.opid = opid && p.phase = Phase2 ->
          let pending =
            { p with responders = Sim.Pidset.add from p.responders }
          in
          ({ st with pending = Some pending }, [])
        | Some _ | None -> (st, [])))
  in
  let st, more = check_completion ~sigma:ctx.fd st in
  (st, acts @ more)

let on_input (_ctx : Sim.Pidset.t Sim.Protocol.ctx) st op =
  let st = { st with queue = op :: st.queue } in
  start_next st

let protocol ~registers =
  {
    Sim.Protocol.init = (fun ~n p -> init ~registers ~n p);
    on_step;
    on_input;
  }
