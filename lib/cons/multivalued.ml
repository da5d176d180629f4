module Int_map = Map.Make (Int)

type inner_msg = int Quorum_paxos.msg

type msg = Candidate of int | Inner of int * inner_msg

type state = {
  self : Sim.Pid.t;
  width : int;
  candidates : int list;  (* all proposals seen, sorted ascending *)
  my_proposal : int option;
  decisions : int Int_map.t;  (* instance -> decided bit (may be sparse:
                                 a slow process can learn bit k+1 before
                                 finishing instance k) *)
  instances : int Quorum_paxos.state Int_map.t;
  proposed_to : int;  (* highest instance we fed a bit proposal; -1 if none *)
  finished : bool;
}

let inner : (int Quorum_paxos.state, inner_msg, Sim.Pid.t * Sim.Pidset.t, int, int) Sim.Protocol.t
    =
  Quorum_paxos.protocol

let init ~width ~n:_ self =
  {
    self;
    width;
    candidates = [];
    my_proposal = None;
    decisions = Int_map.empty;
    instances = Int_map.empty;
    proposed_to = -1;
    finished = false;
  }

let bit v k = (v lsr k) land 1

(* The lowest instance whose bit is still undecided. *)
let current st =
  let rec loop k = if Int_map.mem k st.decisions then loop (k + 1) else k in
  loop 0

let prefix_matches st ~upto v =
  let rec loop k =
    k >= upto
    ||
    match Int_map.find_opt k st.decisions with
    | Some b -> bit v k = b && loop (k + 1)
    | None -> false
  in
  loop 0

(* The smallest disseminated candidate consistent with the bits decided so
   far. *)
let viable st ~upto = List.find_opt (prefix_matches st ~upto) st.candidates

(* Run one event of instance [k], harvesting its decision if it fires. *)
let run_instance (ctx : (Sim.Pid.t * Sim.Pidset.t) Sim.Protocol.ctx) st k
    event =
  let ist =
    match Int_map.find_opt k st.instances with
    | Some s -> s
    | None -> inner.Sim.Protocol.init ~n:ctx.n st.self
  in
  let ist, sends, decisions =
    Sim.Protocol.apply inner ctx ist event ~msg:(fun m -> Inner (k, m))
  in
  let st = { st with instances = Int_map.add k ist st.instances } in
  match decisions with
  | b :: _ -> ({ st with decisions = Int_map.add k b st.decisions }, sends)
  | [] -> (st, sends)

(* Feed the current instance a bit proposal as soon as a viable candidate
   exists; emit the final decision once all bits are in. *)
let drive ctx st =
  if st.finished then (st, [])
  else
    let k = current st in
    if k >= st.width then begin
      let v =
        List.fold_left
          (fun acc i ->
            match Int_map.find_opt i st.decisions with
            | Some b -> acc lor (b lsl i)
            | None -> assert false)
          0
          (List.init st.width (fun i -> i))
      in
      ({ st with finished = true }, [ Sim.Protocol.Output v ])
    end
    else if st.proposed_to < k && st.my_proposal <> None then
      match viable st ~upto:k with
      | Some c ->
        let st = { st with proposed_to = k } in
        run_instance ctx st k (Sim.Protocol.Input (bit c k))
      | None -> (st, [])
    else (st, [])

let on_step ctx st recv =
  let st, acts1 =
    match recv with
    | None ->
      (* Give the current instance an empty step so its leader logic runs. *)
      let k = current st in
      if st.finished || k >= st.width || st.proposed_to < k then (st, [])
      else run_instance ctx st k (Sim.Protocol.Step None)
    | Some (_, Candidate v) ->
      ( { st with candidates = List.sort_uniq Int.compare (v :: st.candidates) },
        [] )
    | Some (from, Inner (k, m)) ->
      run_instance ctx st k (Sim.Protocol.Step (Some (from, m)))
  in
  let st, acts2 = drive ctx st in
  (st, acts1 @ acts2)

let on_input _ctx st v =
  match st.my_proposal with
  | Some _ -> (st, [])
  | None ->
    ( {
        st with
        my_proposal = Some v;
        candidates = List.sort_uniq Int.compare (v :: st.candidates);
      },
      [ Sim.Protocol.Broadcast (Candidate v) ] )

let protocol ~width =
  {
    Sim.Protocol.init = (fun ~n p -> init ~width ~n p);
    on_step;
    on_input;
  }
