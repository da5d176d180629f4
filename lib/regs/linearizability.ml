type 'v op_kind = Read of 'v option | Write of 'v

type 'v op = {
  pid : Sim.Pid.t;
  inv : int;
  resp : int option;
  kind : 'v op_kind;
}

let check ops =
  (* Incomplete reads have no visible effect: drop them. *)
  let ops =
    List.filter
      (fun op ->
        match (op.resp, op.kind) with
        | None, Read _ -> false
        | (Some _ | None), (Read _ | Write _) -> true)
      ops
  in
  let arr = Array.of_list ops in
  let m = Array.length arr in
  if m > 62 then
    invalid_arg "Linearizability.check: history too large (max 62 ops)";
  if m = 0 then true
  else begin
    let all_complete =
      Array.to_list arr
      |> List.mapi (fun i op -> (i, op))
      |> List.filter_map (fun (i, op) ->
             match op.resp with Some _ -> Some i | None -> None)
    in
    let complete_mask =
      List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 all_complete
    in
    (* [i] may be linearized next iff no remaining operation finished before
       [i] was invoked (real-time order must be respected). *)
    let candidate done_mask i =
      let ok = ref true in
      for j = 0 to m - 1 do
        if j <> i && done_mask land (1 lsl j) = 0 then
          match arr.(j).resp with
          | Some rj when rj < arr.(i).inv -> ok := false
          | Some _ | None -> ()
      done;
      !ok
    in
    let seen = Hashtbl.create 1024 in
    let rec search done_mask value =
      if done_mask land complete_mask = complete_mask then true
      else if Hashtbl.mem seen (done_mask, value) then false
      else begin
        Hashtbl.add seen (done_mask, value) ();
        let rec try_ops i =
          if i >= m then false
          else if done_mask land (1 lsl i) <> 0 then try_ops (i + 1)
          else if not (candidate done_mask i) then try_ops (i + 1)
          else
            let fits, value' =
              match arr.(i).kind with
              | Read r -> (r = value, value)
              | Write v -> (true, Some v)
            in
            if fits && search (done_mask lor (1 lsl i)) value' then true
            else try_ops (i + 1)
        in
        try_ops 0
      end
    in
    search 0 None
  end

let of_trace events =
  (* Pair Invoked/Responded events by (pid, op_seq). *)
  let invocations = Hashtbl.create 64 in
  let responses = Hashtbl.create 64 in
  List.iter
    (fun (e : 'v Abd.output Sim.Trace.event) ->
      match e.value with
      | Abd.Invoked { op_seq; op } ->
        Hashtbl.replace invocations (e.pid, op_seq) (e.time, op)
      | Abd.Responded { op_seq; resp } ->
        Hashtbl.replace responses (e.pid, op_seq) (e.time, resp))
    events;
  let by_rid = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (pid, op_seq) (inv, op) ->
      let rid, kind =
        match (op, Hashtbl.find_opt responses (pid, op_seq)) with
        | Abd.Read rid, Some (_, Abd.Read_value (rid', v)) ->
          assert (rid = rid');
          (rid, Read v)
        | Abd.Read rid, (None | Some (_, Abd.Written _)) ->
          (* An unfinished read: the returned value is unknown; record it as
             incomplete (it will be dropped by [check]). *)
          (rid, Read None)
        | Abd.Write (rid, v), _ -> (rid, Write v)
      in
      let resp =
        Option.map (fun (t, _) -> t) (Hashtbl.find_opt responses (pid, op_seq))
      in
      let record = { pid; inv; resp; kind } in
      let prev =
        match Hashtbl.find_opt by_rid rid with Some l -> l | None -> []
      in
      Hashtbl.replace by_rid rid (record :: prev))
    invocations;
  Hashtbl.fold (fun rid ops acc -> (rid, ops) :: acc) by_rid []

let check_trace events =
  List.for_all (fun (_rid, ops) -> check ops) (of_trace events)
