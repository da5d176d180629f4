type 'v reg =
  | Block of { mbal : int; bal : int; inp : 'v option }
  | Decision of 'v

type 'v pc =
  | Idle
  | Poll_wait  (* issued Read on the decision register *)
  | Start_scan of { b : int; phase : int }  (* own block write just issued *)
  | Scan of {
      b : int;
      phase : int;
      j : Sim.Pid.t;  (* register being read *)
      best_bal : int;
      best_inp : 'v option;
    }
  | Decided

type 'v state = {
  self : Sim.Pid.t;
  n : int;
  proposal : 'v option;
  ballot : int;
  max_seen : int;  (* highest mbal observed; aborts jump past it *)
  mbal : int;  (* cached own block: we are its only writer *)
  bal : int;
  inp : 'v option;
  pc : 'v pc;
}

let registers ~n = n + 1

let dec_rid st = st.n

let init ~n self =
  {
    self;
    n;
    proposal = None;
    ballot = 0;
    max_seen = 0;
    mbal = 0;
    bal = 0;
    inp = None;
    pc = Idle;
  }

let next_ballot st =
  let base = max st.ballot st.max_seen in
  (((base / st.n) + 1) * st.n) + st.self

(* The next other-process register after [j], or None when the scan is
   over. *)
let next_index st j =
  let rec loop k = if k >= st.n then None else if k = st.self then loop (k + 1) else Some k in
  loop (j + 1)

let first_index st = next_index st (-1)

let eval_scan st ~b ~phase ~best_bal ~best_inp =
  match phase with
  | 1 ->
    (* Adopt the value of the highest ballot seen (our own included via the
       scan seed), or our proposal if nobody accepted anything yet. *)
    let v = if best_bal > 0 then best_inp else st.proposal in
    let st = { st with mbal = b; bal = b; inp = v } in
    ( { st with pc = Start_scan { b; phase = 2 } },
      Regs.Shm.Write (st.self, Block { mbal = b; bal = b; inp = v }),
      [] )
  | _ ->
    (* Phase 2 scan found no higher ballot: the value is chosen. *)
    (match st.inp with
    | None -> assert false
    | Some v ->
      ( { st with pc = Decided },
        Regs.Shm.Write (dec_rid st, Decision v),
        [ v ] ))

let step (ctx : Sim.Pid.t Sim.Protocol.ctx) st ~resp =
  match st.pc with
  | Decided -> (st, Regs.Shm.Skip, [])
  | Idle ->
    if st.proposal = None then (st, Regs.Shm.Skip, [])
    else ({ st with pc = Poll_wait }, Regs.Shm.Read (dec_rid st), [])
  | Poll_wait -> (
    match resp with
    | Some (Some (Decision v)) -> ({ st with pc = Decided }, Regs.Shm.Skip, [ v ])
    | Some (Some (Block _)) | Some None | None ->
      if Sim.Pid.equal ctx.fd st.self then begin
        (* We are the leader: run a ballot. *)
        let b = next_ballot st in
        let st = { st with ballot = b; mbal = b } in
        ( { st with pc = Start_scan { b; phase = 1 } },
          Regs.Shm.Write
            (st.self, Block { mbal = b; bal = st.bal; inp = st.inp }),
          [] )
      end
      else ({ st with pc = Idle }, Regs.Shm.Skip, []))
  | Start_scan { b; phase } -> (
    (* Our block write has taken effect; scan the other blocks.  Seed the
       "best accepted value" with our own cached block. *)
    let best_bal, best_inp = (st.bal, st.inp) in
    match first_index st with
    | Some j ->
      ( { st with pc = Scan { b; phase; j; best_bal; best_inp } },
        Regs.Shm.Read j,
        [] )
    | None ->
      (* n = 1: no other blocks to scan. *)
      eval_scan st ~b ~phase ~best_bal ~best_inp)
  | Scan { b; phase; j; best_bal; best_inp } -> (
    let blk_mbal, blk_bal, blk_inp =
      match resp with
      | Some (Some (Block { mbal; bal; inp })) -> (mbal, bal, inp)
      | Some (Some (Decision _)) -> (0, 0, None) (* unreachable layout-wise *)
      | Some None | None -> (0, 0, None)
    in
    if blk_mbal > b then
      (* A higher ballot is active: abort, remember it, retry while
         leader. *)
      ( { st with max_seen = max st.max_seen blk_mbal; pc = Idle },
        Regs.Shm.Skip,
        [] )
    else
      let best_bal, best_inp =
        if blk_bal > best_bal then (blk_bal, blk_inp) else (best_bal, best_inp)
      in
      match next_index st j with
      | Some j' ->
        ( { st with pc = Scan { b; phase; j = j'; best_bal; best_inp } },
          Regs.Shm.Read j',
          [] )
      | None -> eval_scan st ~b ~phase ~best_bal ~best_inp)

let input _ctx st v =
  match st.proposal with Some _ -> st | None -> { st with proposal = Some v }

let proto = { Regs.Shm.init; step; input }
