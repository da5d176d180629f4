type policy =
  | Fifo
  | Random_delay of { max_delay : int; lambda_prob : float }
  | Partial_synchrony of { gst : int; delta : int }
  | Partition of { groups : Pidset.t list; heal_at : int }

let same_group groups a b =
  let find p =
    let rec loop i = function
      | [] -> -1 (* implicit leftover group *)
      | g :: rest -> if Pidset.mem p g then i else loop (i + 1) rest
    in
    loop 0 groups
  in
  find a = find b

type 'msg envelope = {
  src : Pid.t;
  payload : 'msg;
  seq : int;  (* global send order; ties broken by it for determinism *)
  ready_at : int;  (* earliest delivery time *)
  deadline : int;  (* must be delivered by this time if dst keeps stepping *)
  sent_at : int;  (* send time, for delivery-delay metrics *)
  vc : Vclock.t option;  (* sender clock at send time, when tracing *)
}

type 'msg t = {
  policy : policy;
  sched : Scheduler.t;
  mutable queues : 'msg envelope list option array;
      (* by destination, [None] until first touched: the digest tells a
         touched empty queue from an untouched one *)
  mutable next_seq : int;
  mutable sent : int;
  mutable delivered : int;
}

let create policy sched =
  { policy; sched; queues = [||]; next_seq = 0; sent = 0; delivered = 0 }

(* Envelopes and their lists are immutable, so a copy of the array is an
   independent buffer. *)
let copy t ~sched = { t with sched; queues = Array.copy t.queues }

let queue t dst =
  let len = Array.length t.queues in
  if dst >= len then begin
    let a = Array.make (dst + 1) None in
    Array.blit t.queues 0 a 0 len;
    t.queues <- a
  end;
  match t.queues.(dst) with
  | Some q -> q
  | None ->
    t.queues.(dst) <- Some [];
    []

let set_queue t dst q = t.queues.(dst) <- Some q

let delay_bounds t ~now =
  match t.policy with
  | Fifo | Partition _ -> (1, 1)
  | Random_delay { max_delay; _ } -> (1, max max_delay 1)
  | Partial_synchrony { gst; delta } ->
    if now >= gst then (1, max delta 1) else (1, max (4 * delta) 1)

let send ?vc t ~now ~src ~dst msg =
  let lo, hi = delay_bounds t ~now in
  let delay =
    if hi <= lo then lo
    else lo + t.sched.Scheduler.choose (Scheduler.Send_delay { src; dst; lo; hi })
  in
  let ready_at = now + delay in
  let ready_at, deadline =
    match t.policy with
    | Fifo -> (ready_at, ready_at)
    | Random_delay { max_delay; _ } ->
      let deadline = ready_at + (3 * max max_delay 1) in
      (min ready_at deadline, deadline)
    (* From GST on, every message (even in-flight) arrives within delta. *)
    | Partial_synchrony { gst; delta } ->
      let deadline = max now gst + delta in
      (min ready_at deadline, deadline)
    | Partition { groups; heal_at } ->
      if same_group groups src dst then (ready_at, ready_at)
      else
        (* Frozen until the partition heals. *)
        let at = max ready_at (heal_at + 1) in
        (at, at)
  in
  let env = { src; payload = msg; seq = t.next_seq; ready_at; deadline; sent_at = now; vc } in
  t.next_seq <- t.next_seq + 1;
  t.sent <- t.sent + 1;
  set_queue t dst (env :: queue t dst)

type 'msg delivery = {
  d_src : Pid.t;
  d_msg : 'msg;
  d_sent_at : int;
  d_vc : Vclock.t option;
}

let take_envelope t ~dst q env =
  set_queue t dst (List.filter (fun e -> e.seq <> env.seq) q);
  t.delivered <- t.delivered + 1;
  Some { d_src = env.src; d_msg = env.payload; d_sent_at = env.sent_at; d_vc = env.vc }

let oldest = function
  | [] -> None
  | e :: rest ->
    Some (List.fold_left (fun acc e -> if e.seq < acc.seq then e else acc) e rest)

(* Choice-point pick among [ready]: candidates are presented in global send
   order so recorded indices are stable and replayable. *)
let pick_ready t ~dst ready =
  match ready with
  | [] -> None
  | [ e ] -> Some e
  | _ ->
    let sorted = List.sort (fun a b -> Int.compare a.seq b.seq) ready in
    let candidates = List.map (fun e -> e.src) sorted in
    let i = t.sched.Scheduler.choose (Scheduler.Deliver_pick { dst; candidates }) in
    let i = if i < 0 || i >= List.length sorted then 0 else i in
    Some (List.nth sorted i)

let deliver_env t ~now ~dst =
  let q = queue t dst in
  let ready = List.filter (fun e -> e.ready_at <= now) q in
  let overdue = List.filter (fun e -> e.deadline <= now) ready in
  let lambda_prob =
    match t.policy with
    | Fifo | Partition _ -> 0.0
    | Random_delay { lambda_prob; _ } -> lambda_prob
    | Partial_synchrony _ -> 0.1
  in
  match t.policy with
  | Fifo | Partition _ -> (
    match oldest ready with None -> None | Some e -> take_envelope t ~dst q e)
  | Random_delay _ | Partial_synchrony _ -> (
    match oldest overdue with
    | Some e -> take_envelope t ~dst q e
    | None -> (
      match ready with
      | [] -> None
      | _
        when t.sched.Scheduler.choose
               (Scheduler.Deliver_skip { dst; prob = lambda_prob })
             <> 0 -> None
      | _ -> (
        match pick_ready t ~dst ready with
        | None -> None
        | Some e -> take_envelope t ~dst q e)))

let deliver t ~now ~dst =
  match deliver_env t ~now ~dst with
  | None -> None
  | Some d -> Some (d.d_src, d.d_msg)

let pending t ~dst = List.length (queue t dst)

let digest t =
  let envs q =
    List.sort (fun a b -> Int.compare a.seq b.seq) q
    |> List.map (fun e ->
           ( e.src,
             Hashtbl.hash_param 256 256 e.payload,
             e.seq,
             e.ready_at,
             e.deadline ))
  in
  (* in destination order, which is the order [compare] puts them in *)
  Array.to_list t.queues
  |> List.mapi (fun dst q -> Option.map (fun q -> (dst, envs q)) q)
  |> List.filter_map Fun.id
  |> Hashtbl.hash_param 1024 1024

let sent_count t = t.sent
let delivered_count t = t.delivered
