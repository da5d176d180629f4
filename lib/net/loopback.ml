(* One in-memory hub: per-destination frame queues.  A poll takes the
   head, or, given a scheduler, its Deliver_pick among the candidates.
   No mutex — a hub is driven single-threaded, round-robin. *)

type hub = {
  n : int;
  sched : Sim.Scheduler.t option;
  reorder : bool;
  queues : (Sim.Pid.t * bytes) Queue.t array;  (* per dst: (src, frame) *)
  held : (Sim.Pid.t * bytes) Queue.t array;  (* per blocked src: (dst, frame) *)
  blocked : bool array;
  dead : bool array;
  dup : bool array;  (* duplicate the sender's next frame to a peer *)
  drop : bool array;  (* drop the sender's next frame to a peer *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?sched ?(reorder = false) ~n () =
  {
    n;
    sched;
    reorder;
    queues = Array.init n (fun _ -> Queue.create ());
    held = Array.init n (fun _ -> Queue.create ());
    blocked = Array.make n false;
    dead = Array.make n false;
    dup = Array.make n false;
    drop = Array.make n false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let crash hub p = hub.dead.(p) <- true
let crashed hub p = hub.dead.(p)
let block hub p = hub.blocked.(p) <- true
let dup_next hub p = hub.dup.(p) <- true
let drop_next hub p = hub.drop.(p) <- true

let push hub ~src ~dst frame =
  if hub.dead.(src) || hub.dead.(dst) then hub.dropped <- hub.dropped + 1
  else Queue.push (src, frame) hub.queues.(dst)

let enqueue hub ~src ~dst frame =
  if hub.blocked.(src) then Queue.push (dst, frame) hub.held.(src)
  else push hub ~src ~dst frame

let unblock hub p =
  hub.blocked.(p) <- false;
  Queue.iter (fun (dst, frame) -> push hub ~src:p ~dst frame) hub.held.(p);
  Queue.clear hub.held.(p)

(* Fault flags model the network between processes: a self-send never
   crosses it (and the ARQ layer deliberately does not cover it), so
   drop/dup only fire on frames to a different process. *)
let send hub src dst frame =
  if Sim.Pid.valid ~n:hub.n dst then begin
    hub.sent <- hub.sent + 1;
    let peer = not (Sim.Pid.equal src dst) in
    if peer && hub.drop.(src) then begin
      hub.drop.(src) <- false;
      hub.dropped <- hub.dropped + 1
    end
    else begin
      if peer && hub.dup.(src) then begin
        hub.dup.(src) <- false;
        enqueue hub ~src ~dst frame
      end;
      enqueue hub ~src ~dst frame
    end
  end

(* Remove and return the [j]-th frame of [q], keeping the others' order. *)
let take_nth q j =
  let picked = ref None in
  for k = 0 to Queue.length q - 1 do
    let x = Queue.pop q in
    if k = j then picked := Some x else Queue.push x q
  done;
  !picked

(* The scheduler's pick of [dst]'s next frame.  Candidates are distinct
   senders (oldest frame each) by default, every pending frame under
   [reorder], each kept with its frame's position in [q]; one candidate
   is no choice. *)
let pick hub sched dst q =
  let cands, _ =
    Queue.fold
      (fun (acc, j) (src, _) ->
        let fresh = hub.reorder || not (List.mem_assoc src acc) in
        ((if fresh then (src, j) :: acc else acc), j + 1))
      ([], 0) q
  in
  match List.rev cands with
  | [] | [ _ ] -> Queue.take_opt q
  | cands ->
    let i =
      sched.Sim.Scheduler.choose
        (Sim.Scheduler.Deliver_pick { dst; candidates = List.map fst cands })
    in
    take_nth q (snd (List.nth cands (max 0 (min i (List.length cands - 1)))))

let poll hub dst =
  let q = hub.queues.(dst) in
  let taken =
    if hub.dead.(dst) then None
    else
      match hub.sched with
      | None -> Queue.take_opt q
      | Some sched -> pick hub sched dst q
  in
  (match taken with
  | Some _ -> hub.delivered <- hub.delivered + 1
  | None -> ());
  taken

let live hub p = not hub.dead.(p)

let in_flight hub =
  let count = ref 0 in
  Array.iteri
    (fun dst q -> if live hub dst then count := !count + Queue.length q)
    hub.queues;
  Array.iteri
    (fun src h ->
      if live hub src then
        Queue.iter (fun (dst, _) -> if live hub dst then incr count) h)
    hub.held;
  !count

let delivered hub = hub.delivered
let sent hub = hub.sent

let digest hub =
  let frames q =
    List.of_seq
      (Seq.map (fun (p, f) -> (p, Bytes.to_string f)) (Queue.to_seq q))
  in
  let project =
    ( Array.map frames hub.queues,
      Array.map frames hub.held,
      hub.blocked,
      hub.dead,
      hub.dup,
      hub.drop )
  in
  Hashtbl.hash (Digest.bytes (Marshal.to_bytes project []))

let endpoint hub self =
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
    send = send hub self;
    poll = (fun ~timeout_ms:_ -> poll hub self);
    stats;
    close = (fun () -> ());
  }
