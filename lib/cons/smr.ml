module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* The pending queue sees one push per submitted command and one pop per
   batched command, at every replica — it must be O(1) amortised, not
   [xs @ [x]].  Classic two-list functional queue; [push_front_list]
   exists for re-queueing lost proposals ahead of newer commands. *)
module Fq = struct
  type 'a t = { front : 'a list; back : 'a list (* newest first *) }

  let empty = { front = []; back = [] }
  let is_empty q = q.front = [] && q.back = []
  let length q = List.length q.front + List.length q.back
  let push q x = { q with back = x :: q.back }
  let push_front_list xs q = { q with front = xs @ q.front }

  let pop q =
    match q.front with
    | x :: front -> Some (x, { q with front })
    | [] -> (
      match List.rev q.back with
      | [] -> None
      | x :: front -> Some (x, { front; back = [] }))

  let filter f q = { front = List.filter f q.front; back = List.filter f q.back }
end

type 'c cmd = { origin : Sim.Pid.t; seq : int; payload : 'c }

(* One consensus instance decides a *batch* of commands: the proposer
   drains its whole pending queue (up to [batch_max]) into one instance,
   so quorum round-trips are amortised over many commands.  [Submit] is
   batched for the same reason: every command accepted between two steps
   rides one announcement frame, not one frame each. *)
type 'c msg =
  | Submit of 'c cmd list
  | Inner of int * 'c cmd list Quorum_paxos.msg

type 'c state = {
  self : Sim.Pid.t;
  window : int;  (* max in-flight instances we propose to *)
  batch_max : int;  (* max commands per proposed batch *)
  pending : 'c cmd Fq.t;  (* known, not yet proposed by us; oldest first *)
  announce : 'c cmd list;  (* accepted since our last step; newest first *)
  known : Seen.t;  (* every command ever seen (dup suppression) *)
  inflight : 'c cmd list Int_map.t;  (* instance -> our undecided proposal *)
  decided : 'c cmd list Int_map.t;  (* instance -> decided batch *)
  active : Int_set.t;  (* undecided instances — the idle-step working set *)
  applied_inst : int;  (* instances [0 .. applied_inst-1] applied *)
  applied : int;  (* commands output so far = log length *)
  applied_keys : Seen.t;  (* exactly-once guard across instances *)
  instances : 'c cmd list Quorum_paxos.state Int_map.t;
  next_seq : int;
  tick : int;  (* idle steps taken — the ballot-retry backoff clock *)
}

let seen s c = Seen.mem s c.origin c.seq
let see s c = Seen.add s c.origin c.seq

let applied st = st.applied
let applied_instances st = st.applied_inst

let backlog st =
  Fq.length st.pending
  + Int_map.fold (fun _ b acc -> List.length b + acc) st.inflight 0

let submitted st = st.next_seq
let instances_touched st = Int_map.cardinal st.instances

let slot_of_msg = function Submit _ -> None | Inner (k, _) -> Some k

(* The gapless decided run of *instances* from [from]: what a snapshot
   reply carries.  512 bounds the command count (not the instance
   count) so one reply frame stays small; the requester asks again from
   where it got to. *)
let decided_from st ~from =
  let rec go k left acc =
    if left <= 0 then List.rev acc
    else
      match Int_map.find_opt k st.decided with
      | Some b -> go (k + 1) (left - max 1 (List.length b)) ((k, b) :: acc)
      | None -> List.rev acc
  in
  go (max 0 from) 512 []

let inner :
    ('c cmd list Quorum_paxos.state, 'c cmd list Quorum_paxos.msg,
     Sim.Pid.t * Sim.Pidset.t, 'c cmd list, 'c cmd list)
    Sim.Protocol.t =
  Quorum_paxos.protocol

let init ~window ~batch_max ~n:_ self =
  {
    self;
    window;
    batch_max;
    pending = Fq.empty;
    announce = [];
    known = Seen.empty;
    inflight = Int_map.empty;
    decided = Int_map.empty;
    active = Int_set.empty;
    applied_inst = 0;
    applied = 0;
    applied_keys = Seen.empty;
    instances = Int_map.empty;
    next_seq = 0;
    tick = 0;
  }

(* Number the commands of [batch] not yet in [keys] from [applied] on,
   consing each entry onto [acc] (newest first). *)
let rec apply_batch applied keys acc = function
  | [] -> (applied, keys, acc)
  | c :: batch ->
    if seen keys c then apply_batch applied keys acc batch
    else apply_batch (applied + 1) (see keys c) ((applied, c) :: acc) batch

(* Emit decided batches in instance order as far as the log is gapless,
   numbering surviving commands with consecutive log indices.  A command
   can be decided by two different instances when leadership changes
   mid-batch (the Paxos value-inheritance rule can resurrect a batch its
   proposer already re-proposed elsewhere), so each command applies
   exactly once: the second decision is skipped here, by key.  The
   counters and the key set are threaded through the batches, so the
   state is written once per call. *)
let apply_ready st =
  let rec loop inst applied keys acc =
    match Int_map.find_opt inst st.decided with
    | Some batch ->
      let applied, keys, acc = apply_batch applied keys acc batch in
      loop (inst + 1) applied keys acc
    | None when inst = st.applied_inst -> (st, [])
    | None ->
      ( { st with applied_inst = inst; applied; applied_keys = keys },
        List.rev acc )
  in
  loop st.applied_inst st.applied st.applied_keys []

(* Record instance [k]'s decision.  Commands of ours that lost (we
   proposed them at [k] but a competing leader's batch won) go back to
   the *front* of pending — they are older than anything still queued. *)
let record_decision st k batch =
  if Int_map.mem k st.decided then st
  else begin
    let keys = List.fold_left see Seen.empty batch in
    let in_batch c = seen keys c in
    let lost =
      match Int_map.find_opt k st.inflight with
      | None -> []
      | Some mine -> List.filter (fun c -> not (in_batch c)) mine
    in
    {
      st with
      decided = Int_map.add k batch st.decided;
      inflight = Int_map.remove k st.inflight;
      active = Int_set.remove k st.active;
      known = List.fold_left see st.known batch;
      pending =
        Fq.push_front_list lost
          (Fq.filter (fun c -> not (in_batch c)) st.pending);
    }
  end

let run_instance ctx st k event =
  let ist, st =
    match Int_map.find_opt k st.instances with
    | Some s -> (s, st)
    | None ->
      let s = inner.Sim.Protocol.init ~n:ctx.Sim.Protocol.n st.self in
      let st =
        if Int_map.mem k st.decided then st
        else { st with active = Int_set.add k st.active }
      in
      (s, st)
  in
  let ist, sends, decisions =
    Sim.Protocol.apply inner ctx ist event ~msg:(fun m -> Inner (k, m))
  in
  let st = { st with instances = Int_map.add k ist st.instances } in
  let st, outs =
    match decisions with
    | b :: _ when not (Int_map.mem k st.decided) ->
      let st, entries = apply_ready (record_decision st k b) in
      (st, List.map (fun (i, c) -> Sim.Protocol.Output (i, c)) entries)
    | _ :: _ | [] -> (st, [])
  in
  (st, sends @ outs)

(* Install decided batches received in a snapshot.  Idempotent: instances
   already decided are left untouched (consensus already fixed them — a
   well-formed snapshot necessarily agrees), and the apply-time key guard
   means a command can never be applied twice even across overlapping
   snapshots.  Returns the log entries that became applicable, in order. *)
let install st entries =
  let st =
    List.fold_left
      (fun st (k, b) -> if k < 0 then st else record_decision st k b)
      st entries
  in
  apply_ready st

(* The next instance to propose to: the smallest one with no decision and
   no proposal of ours in flight.  Gaps first, so a stalled instance left
   behind by a dead leader gets refilled before the log grows past it. *)
let next_open st =
  let rec loop k =
    if Int_map.mem k st.decided || Int_map.mem k st.inflight then loop (k + 1)
    else k
  in
  loop st.applied_inst

(* Propose batches while commands are pending, Ω points at us, and the
   pipeline window has room.  Non-leaders hold commands in pending — the
   inner protocol would never start their ballots anyway, and parking a
   batch in a losing inflight slot just to reclaim it on every decision
   made the follower hot path O(backlog).  Commands already applied via
   someone else's batch are pruned lazily, as they reach the queue's
   head — never by filtering the whole queue. *)
let rec drive ctx st =
  let omega, _ = ctx.Sim.Protocol.fd in
  if
    (not (Sim.Pid.equal omega st.self))
    || Fq.is_empty st.pending
    || Int_map.cardinal st.inflight >= st.window
  then (st, [])
  else begin
    let rec split i acc pending =
      if i >= st.batch_max then (List.rev acc, pending)
      else
        match Fq.pop pending with
        | None -> (List.rev acc, pending)
        | Some (c, rest) ->
          if seen st.applied_keys c then split i acc rest
          else split (i + 1) (c :: acc) rest
    in
    let batch, rest = split 0 [] st.pending in
    let st = { st with pending = rest } in
    if batch = [] then drive ctx st
    else begin
      let k = next_open st in
      let st = { st with inflight = Int_map.add k batch st.inflight } in
      let st, acts = run_instance ctx st k (Sim.Protocol.Input batch) in
      let st, more = drive ctx st in
      (st, acts @ more)
    end
  end

let on_step ctx st recv =
  let st, acts1 =
    match recv with
    | Some (from, Submit cs) ->
      (* Only [on_input] fills [announce], so a Submit from p carries
         origin-p commands alone: one naming another origin is forged or
         corrupt, and dropped. *)
      let rec enqueue pending known = function
        | [] -> { st with pending; known }
        | c :: cs ->
          if c.origin <> from || seen known c then enqueue pending known cs
          else enqueue (Fq.push pending c) (see known c) cs
      in
      (enqueue st.pending st.known cs, [])
    | Some (from, Inner (k, m)) ->
      run_instance ctx st k (Sim.Protocol.Step (Some (from, m)))
    | None ->
      (* Idle step for every undecided instance we know of (≤ window plus
         stragglers — never the full instance history), so leaders make
         progress on the whole pipeline window at once.

         Ballot-retry backoff: an instance that already burned ballots is
         only idle-stepped every few ticks, the interval growing with the
         failure count and staggered by pid so two processes that both
         briefly trust themselves stop trading Prepare/Nack storms at
         full step rate.  Only *starting* a ballot rides the idle step;
         quorum completion fires on message arrival and is never
         delayed. *)
      let tick = st.tick + 1 in
      let st = { st with tick } in
      Int_set.fold
        (fun k (st, acc) ->
          let interval =
            match Int_map.find_opt k st.instances with
            | None -> 1
            | Some ist ->
              1 + min 63 (Quorum_paxos.ballots_started ist * (st.self + 1))
          in
          if tick mod interval <> 0 then (st, acc)
          else
            let st, acts = run_instance ctx st k (Sim.Protocol.Step None) in
            (st, acc @ acts))
        st.active (st, [])
  in
  let st, acts2 = drive ctx st in
  (* flush the submit announcements accumulated since the last step, to
     the peers only: our own commands are already in [known] *)
  let st, acts3 =
    match st.announce with
    | [] -> (st, [])
    | cs ->
      ( { st with announce = [] },
        Fd.Peers.send ~n:ctx.Sim.Protocol.n ~except:[ st.self ]
          (Submit (List.rev cs)) )
  in
  (st, acts1 @ acts2 @ acts3)

let on_input _ctx st payload =
  let c = { origin = st.self; seq = st.next_seq; payload } in
  let st =
    {
      st with
      next_seq = st.next_seq + 1;
      pending = Fq.push st.pending c;
      announce = c :: st.announce;
      known = see st.known c;
    }
  in
  (st, [])

let default_batch_max = 1024

let make ?(window = 1) ?(batch_max = default_batch_max) () =
  if window < 1 then invalid_arg "Cons.Smr.make: window must be >= 1";
  if batch_max < 1 then invalid_arg "Cons.Smr.make: batch_max must be >= 1";
  { Sim.Protocol.init = init ~window ~batch_max; on_step; on_input }

(* Eta-expanded (not [make ()]) to stay polymorphic under the value
   restriction. *)
let protocol =
  {
    Sim.Protocol.init =
      (fun ~n self -> init ~window:1 ~batch_max:default_batch_max ~n self);
    on_step;
    on_input;
  }
