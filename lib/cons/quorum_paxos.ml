type 'v msg =
  | Prepare of int
  | Promise of int * (int * 'v) option
  | Propose of int * 'v
  | Accept of int
  | Nack of int
  | Decide of 'v

type 'v leading =
  | Not_leading
  | Preparing of {
      b : int;
      promisers : Sim.Pidset.t;
      best : (int * 'v) option;
    }
  | Proposing of { b : int; v : 'v; acceptors : Sim.Pidset.t }

type 'v state = {
  self : Sim.Pid.t;
  n : int;
  proposal : 'v option;
  decided : bool;
  (* Acceptor role. *)
  promised : int;
  accepted : (int * 'v) option;
  (* Leader role. *)
  leading : 'v leading;
  max_ballot_seen : int;
  ballots : int;
}

let ballots_started st = st.ballots

let init ~n self =
  {
    self;
    n;
    proposal = None;
    decided = false;
    promised = 0;
    accepted = None;
    leading = Not_leading;
    max_ballot_seen = 0;
    ballots = 0;
  }

let next_ballot st =
  let base = max st.max_ballot_seen st.promised in
  (((base / st.n) + 1) * st.n) + st.self

(* The learner broadcast: Decide goes to every process that may still be
   undecided — not to ourselves, and not to [from] when its Decide is how
   we learnt the value.  Relaying on first decision is what keeps
   termination when a leader crashes mid-broadcast. *)
let decide ?from st v =
  if st.decided then (st, [])
  else
    ( { st with decided = true },
      Fd.Peers.send ~n:st.n ~except:(st.self :: Option.to_list from) (Decide v)
      @ [ Sim.Protocol.Output v ] )

(* Leader progress: check quorum completion against this step's Σ sample,
   and start a ballot when Ω points at us and we are not already running
   one. *)
let leader_drive ~omega ~sigma st =
  if st.decided then (st, [])
  else
    match (st.leading, st.proposal) with
    | Not_leading, Some _ when Sim.Pid.equal omega st.self ->
      let b = next_ballot st in
      let st =
        {
          st with
          leading = Preparing { b; promisers = Sim.Pidset.empty; best = None };
          max_ballot_seen = b;
          ballots = st.ballots + 1;
        }
      in
      (st, [ Sim.Protocol.Broadcast (Prepare b) ])
    | Preparing { b; promisers; best }, _
      when Sim.Pidset.subset sigma promisers ->
      let v =
        match (best, st.proposal) with
        | Some (_, v), _ -> v
        | None, Some v -> v
        | None, None -> assert false (* we only lead once we proposed *)
      in
      let st =
        { st with leading = Proposing { b; v; acceptors = Sim.Pidset.empty } }
      in
      (st, [ Sim.Protocol.Broadcast (Propose (b, v)) ])
    | Proposing { b = _; v; acceptors }, _
      when Sim.Pidset.subset sigma acceptors ->
      decide { st with leading = Not_leading } v
    | (Not_leading | Preparing _ | Proposing _), _ -> (st, [])

let on_msg st from msg =
  match msg with
  | Prepare b ->
    if b > st.promised then
      ( { st with promised = b; max_ballot_seen = max st.max_ballot_seen b },
        [ Sim.Protocol.Send (from, Promise (b, st.accepted)) ] )
    else (st, [ Sim.Protocol.Send (from, Nack st.promised) ])
  | Propose (b, v) ->
    if b >= st.promised then
      ( {
          st with
          promised = b;
          accepted = Some (b, v);
          max_ballot_seen = max st.max_ballot_seen b;
        },
        [ Sim.Protocol.Send (from, Accept b) ] )
    else (st, [ Sim.Protocol.Send (from, Nack st.promised) ])
  | Promise (b, acc) -> (
    match st.leading with
    | Preparing p when p.b = b ->
      let best =
        match (p.best, acc) with
        | None, a -> a
        | a, None -> a
        | Some (b1, _), Some (b2, _) -> if b2 > b1 then acc else p.best
      in
      ( {
          st with
          leading =
            Preparing { p with promisers = Sim.Pidset.add from p.promisers; best };
        },
        [] )
    | Preparing _ | Proposing _ | Not_leading -> (st, []))
  | Accept b -> (
    match st.leading with
    | Proposing p when p.b = b ->
      ( {
          st with
          leading = Proposing { p with acceptors = Sim.Pidset.add from p.acceptors };
        },
        [] )
    | Preparing _ | Proposing _ | Not_leading -> (st, []))
  | Nack promised ->
    (* Someone promised a higher ballot: abandon the current attempt. *)
    let st = { st with max_ballot_seen = max st.max_ballot_seen promised } in
    (match st.leading with
    | Preparing _ | Proposing _ -> ({ st with leading = Not_leading }, [])
    | Not_leading -> (st, []))
  | Decide v ->
    let st, acts = decide ~from st v in
    ({ st with leading = Not_leading }, acts)

let on_step (ctx : (Sim.Pid.t * Sim.Pidset.t) Sim.Protocol.ctx) st recv =
  let omega, sigma = ctx.fd in
  let st, acts1 =
    match recv with None -> (st, []) | Some (from, m) -> on_msg st from m
  in
  let st, acts2 = leader_drive ~omega ~sigma st in
  (st, acts1 @ acts2)

let on_input _ctx st v =
  match st.proposal with
  | Some _ -> (st, [])
  | None -> ({ st with proposal = Some v }, [])

let protocol = { Sim.Protocol.init; on_step; on_input }
