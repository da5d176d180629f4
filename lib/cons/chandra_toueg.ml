type 'v msg =
  | Estimate of int * 'v * int  (* round, estimate, timestamp *)
  | Proposal of int * 'v  (* coordinator's pick for the round *)
  | Ack of int
  | Nack of int
  | Decide of 'v

module Round_map = Map.Make (Int)

type 'v coord_round = {
  estimates : (Sim.Pid.t * 'v * int) list;
  proposed : 'v option;  (* the value we proposed for this round *)
  acks : int;
  nacks : int;
  closed : bool;  (* decided or gave up on this round *)
}

type 'v state = {
  self : Sim.Pid.t;
  n : int;
  started : bool;
  estimate : 'v option;
  ts : int;
  round : int;
  sent_estimate : bool;  (* sent our estimate for the current round *)
  decided : bool;
  coord : 'v coord_round Round_map.t;  (* our coordinator role, per round *)
}

let majority n = (n / 2) + 1

let coordinator st r = r mod st.n

let init ~n self =
  {
    self;
    n;
    started = false;
    estimate = None;
    ts = 0;
    round = 0;
    sent_estimate = false;
    decided = false;
    coord = Round_map.empty;
  }

let coord_round st r =
  match Round_map.find_opt r st.coord with
  | Some c -> c
  | None ->
    { estimates = []; proposed = None; acks = 0; nacks = 0; closed = false }

let decide st v =
  if st.decided then (st, [])
  else
    ( { st with decided = true },
      [ Sim.Protocol.Broadcast (Decide v); Sim.Protocol.Output v ] )

(* Enter the next round: ship our estimate to its coordinator. *)
let advance st =
  let r = st.round + 1 in
  let st = { st with round = r; sent_estimate = true } in
  match st.estimate with
  | None -> assert false (* we only advance after proposing *)
  | Some v ->
    (st, [ Sim.Protocol.Send (coordinator st r, Estimate (r, v, st.ts)) ])

(* Coordinator side of round [r]: propose once a majority of estimates is
   in; decide once a majority of acks is in; give up on a nack majority
   share. *)
let drive_coord st r =
  if coordinator st r <> st.self then (st, [])
  else
    let c = coord_round st r in
    if c.closed then (st, [])
    else
      match c.proposed with
      | None when List.length c.estimates >= majority st.n ->
        let _, best_v, _ =
          List.fold_left
            (fun ((_, _, best_ts) as best) ((_, _, ts) as e) ->
              if ts > best_ts then e else best)
            (List.hd c.estimates) (List.tl c.estimates)
        in
        ( {
            st with
            coord = Round_map.add r { c with proposed = Some best_v } st.coord;
          },
          [ Sim.Protocol.Broadcast (Proposal (r, best_v)) ] )
      | Some v when c.acks >= majority st.n ->
        (* A majority adopted (r, v): safe to decide v. *)
        let st =
          { st with coord = Round_map.add r { c with closed = true } st.coord }
        in
        decide st v
      | Some _ when c.acks + c.nacks >= majority st.n && c.nacks > 0 ->
        ( { st with coord = Round_map.add r { c with closed = true } st.coord },
          [] )
      | Some _ | None -> (st, [])

let on_msg st from msg =
  match msg with
  | Estimate (r, v, ts) ->
    let c = coord_round st r in
    let c = { c with estimates = (from, v, ts) :: c.estimates } in
    ({ st with coord = Round_map.add r c st.coord }, [])
  | Proposal (r, v) ->
    if r = st.round && not st.decided then
      (* Adopt and ack, then move to the next round. *)
      let st = { st with estimate = Some v; ts = r } in
      let st, acts = advance st in
      (st, Sim.Protocol.Send (coordinator st r, Ack r) :: acts)
    else (st, [])
  | Ack r ->
    let c = coord_round st r in
    ({ st with coord = Round_map.add r { c with acks = c.acks + 1 } st.coord }, [])
  | Nack r ->
    let c = coord_round st r in
    ( { st with coord = Round_map.add r { c with nacks = c.nacks + 1 } st.coord },
      [] )
  | Decide v ->
    let st, acts = decide st v in
    (st, acts)

let on_step (ctx : Sim.Pidset.t Sim.Protocol.ctx) st recv =
  let suspects = ctx.fd in
  let st, acts1 =
    match recv with None -> (st, []) | Some (from, m) -> on_msg st from m
  in
  (* Participant: kick off round 1 after proposing. *)
  let st, acts2 =
    if st.started && st.round = 0 && not st.decided then advance st
    else (st, [])
  in
  (* Participant: suspicion of the current coordinator lets us nack and move
     on. *)
  let st, acts3 =
    if
      st.round > 0 && (not st.decided)
      && Sim.Pidset.mem (coordinator st st.round) suspects
    then
      let r = st.round in
      let st, acts = advance st in
      (st, Sim.Protocol.Send (coordinator st r, Nack r) :: acts)
    else (st, [])
  in
  (* Coordinator: progress every round we coordinate that has traffic. *)
  let rounds = Round_map.bindings st.coord |> List.map fst in
  let st, acts4 =
    List.fold_left
      (fun (st, acc) r ->
        let st, acts = drive_coord st r in
        (st, acc @ acts))
      (st, []) rounds
  in
  (st, acts1 @ acts2 @ acts3 @ acts4)

let on_input _ctx st v =
  if st.started then (st, [])
  else ({ st with started = true; estimate = Some v; ts = 0 }, [])

let protocol = { Sim.Protocol.init; on_step; on_input }
