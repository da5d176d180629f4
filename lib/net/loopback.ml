type hub = {
  n : int;
  queues : (Sim.Pid.t * bytes) Queue.t array;  (* per destination *)
  held : (Sim.Pid.t * bytes) Queue.t array;  (* blocked sender's frames: (dst, frame) *)
  blocked : bool array;
  dead : bool array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ~n =
  {
    n;
    queues = Array.init n (fun _ -> Queue.create ());
    held = Array.init n (fun _ -> Queue.create ());
    blocked = Array.make n false;
    dead = Array.make n false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let crash hub p = hub.dead.(p) <- true
let crashed hub p = hub.dead.(p)
let block hub p = hub.blocked.(p) <- true

let push hub ~src ~dst frame =
  if hub.dead.(src) || hub.dead.(dst) then hub.dropped <- hub.dropped + 1
  else Queue.push (src, frame) hub.queues.(dst)

let unblock hub p =
  hub.blocked.(p) <- false;
  Queue.iter (fun (dst, frame) -> push hub ~src:p ~dst frame) hub.held.(p);
  Queue.clear hub.held.(p)

let delivered hub = hub.delivered
let sent hub = hub.sent

let endpoint hub self =
  let send dst frame =
    if Sim.Pid.valid ~n:hub.n dst then begin
      hub.sent <- hub.sent + 1;
      if hub.blocked.(self) then Queue.push (dst, frame) hub.held.(self)
      else push hub ~src:self ~dst frame
    end
  in
  let poll ~timeout_ms:_ =
    if hub.dead.(self) then None
    else
      match Queue.take_opt hub.queues.(self) with
      | Some (src, frame) ->
        hub.delivered <- hub.delivered + 1;
        Some (src, frame)
      | None -> None
  in
  let stats () =
    {
      Transport.sent = hub.sent;
      delivered = hub.delivered;
      reconnects = 0;
      dropped = hub.dropped;
      down =
        Sim.Pidset.of_list
          (List.filter (fun p -> hub.dead.(p)) (Sim.Pid.all hub.n));
    }
  in
  {
    Transport.self;
    n = hub.n;
    send;
    poll;
    stats;
    close = (fun () -> ());
  }
