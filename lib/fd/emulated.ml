(* The EPFailureDetector discipline, shared by every heartbeat-based
   backend: one [last_heard]/[timeout] pair per peer, where each false
   suspicion (a heartbeat arriving after the timeout already fired) grows
   that peer's timeout by one period.  After GST delays are bounded, so
   timeouts stop growing and suspicion becomes permanent-accurate.  A
   value like every protocol state: an update copies the array it
   changes and leaves its argument as it was. *)
module Adaptive = struct
  type t = {
    period : int;
    last_heard : int array;  (* local clock value of last heartbeat per pid *)
    timeout : int array;  (* adaptive per-pid timeout *)
  }

  let create ~n ~period =
    { period; last_heard = Array.make n 0; timeout = Array.make n (4 * period) }

  let set a q v =
    if a.(q) = v then a
    else begin
      let a = Array.copy a in
      a.(q) <- v;
      a
    end

  let timed_out t ~clock q = clock - t.last_heard.(q) > t.timeout.(q)

  let heard t ~clock q =
    let timeout =
      if timed_out t ~clock q then set t.timeout q (t.timeout.(q) + t.period)
      else t.timeout
    in
    { t with last_heard = set t.last_heard q clock; timeout }

  (* Grace reset when (re)starting to monitor [q]: without it, stale
     [last_heard] from before we were watching [q] would convict it
     instantly. *)
  let grant t ~clock q =
    if clock > t.last_heard.(q) then
      { t with last_heard = set t.last_heard q clock }
    else t

  let timeout t q = t.timeout.(q)
end

module Sigma_majority = struct
  type msg = Join of int | Ack of int

  type state = {
    self : Sim.Pid.t;
    n : int;
    period : int;  (* 0 = continuous: next Join leaves the moment a round completes *)
    clock : int;
    last_join : int;  (* [clock] when the previous Join left *)
    round : int;
    acks : Sim.Pidset.t;
    quorum : Sim.Pidset.t;
    pending_join : bool;  (* a Join for [round] must still be sent *)
    rounds_completed : int;
  }

  let majority n = (n / 2) + 1

  let init ~period ~n self =
    {
      self;
      n;
      period;
      clock = 0;
      last_join = -period;
      round = 1;
      acks = Sim.Pidset.empty;
      (* Before the first round completes we must still output something
         that intersects every other output: the full process set does. *)
      quorum = Sim.Pidset.full n;
      pending_join = true;
      rounds_completed = 0;
    }

  let on_step _ctx st recv =
    let st = { st with clock = st.clock + 1 } in
    let st, replies =
      match recv with
      | Some (q, Join k) -> (st, [ Sim.Protocol.Send (q, Ack k) ])
      | Some (q, Ack k) when k = st.round ->
        ({ st with acks = Sim.Pidset.add q st.acks }, [])
      | Some (_, Ack _) | None -> (st, [])
    in
    let st =
      if Sim.Pidset.cardinal st.acks >= majority st.n then
        { st with quorum = st.acks; round = st.round + 1;
          acks = Sim.Pidset.empty; pending_join = true;
          rounds_completed = st.rounds_completed + 1 }
      else st
    in
    (* The Join goes to the n-1 peers; our own ack is implicit, counted
       the moment the Join leaves.  A paced node waits until [period]
       steps have passed since its previous Join. *)
    if st.pending_join && st.clock - st.last_join >= st.period then
      ( { st with pending_join = false; last_join = st.clock;
          acks = Sim.Pidset.singleton st.self },
        replies @ Peers.send ~n:st.n ~except:[ st.self ] (Join st.round) )
    else (st, replies)

  let current st = st.quorum

  let detector_paced ~period =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init = (fun ~n p -> init ~period ~n p);
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current;
    }

  let detector = detector_paced ~period:0
  let rounds st = st.rounds_completed
end

module Sigma_epoch = struct
  type msg = Join of { epoch : int; round : int } | Ack of { epoch : int; round : int }

  type state = {
    self : Sim.Pid.t;
    epoch : int;
    members : Sim.Pidset.t;
    round : int;
    acks : Sim.Pidset.t;
    quorum : Sim.Pidset.t;
    quorum_epoch : int;  (* the epoch [quorum] was formed in *)
    pending_join : bool;  (* a Join for [round] must still be broadcast *)
    rounds_completed : int;
  }

  let majority m = (Sim.Pidset.cardinal m / 2) + 1

  let init ~members self =
    {
      self;
      epoch = 0;
      members;
      round = 1;
      acks = Sim.Pidset.empty;
      (* Before the first round completes, the full member set is the one
         output guaranteed to intersect every majority of members. *)
      quorum = members;
      quorum_epoch = 0;
      pending_join = true;
      rounds_completed = 0;
    }

  (* A configuration handoff: this is the quorum-system transfer across
     the epoch boundary.  The quorum formed under the old membership is
     *discarded on the spot* — never output again — and the new member
     set stands in (safe: it intersects every majority of itself) until a
     join-quorum round completes under the new membership. *)
  let set_config st ~epoch ~members =
    {
      st with
      epoch;
      members;
      round = st.round + 1;
      acks = Sim.Pidset.empty;
      quorum = members;
      quorum_epoch = epoch;
      pending_join = true;
    }

  let on_step _ctx st recv =
    let st, replies =
      match recv with
      | Some (q, Join { epoch; round }) ->
        (* only members of the requester's (= our current) epoch may
           vouch for a quorum of that epoch *)
        if epoch = st.epoch && Sim.Pidset.mem st.self st.members then
          (st, [ Sim.Protocol.Send (q, Ack { epoch; round }) ])
        else (st, [])
      | Some (q, Ack { epoch; round })
        when epoch = st.epoch && round = st.round
             && Sim.Pidset.mem q st.members ->
        ({ st with acks = Sim.Pidset.add q st.acks }, [])
      | Some (_, Ack _) | None -> (st, [])
    in
    if st.pending_join then
      ( { st with pending_join = false },
        replies
        @ [ Sim.Protocol.Broadcast (Join { epoch = st.epoch; round = st.round }) ] )
    else if Sim.Pidset.cardinal st.acks >= majority st.members then
      let quorum = st.acks in
      let round = st.round + 1 in
      ( { st with quorum; quorum_epoch = st.epoch; round;
          acks = Sim.Pidset.empty;
          rounds_completed = st.rounds_completed + 1 },
        replies
        @ [ Sim.Protocol.Broadcast (Join { epoch = st.epoch; round }) ] )
    else (st, replies)

  (* The epoch guard: a quorum is output only in the epoch it was formed
     in.  [set_config] maintains [quorum_epoch = epoch], so the fallback
     arm is defensive — but it is the contract that matters: no quorum
     from epoch [e] is ever honoured once [e+1] is active. *)
  let current st =
    if st.quorum_epoch = st.epoch then st.quorum else st.members

  let detector ~members =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init = (fun ~n:_ p -> init ~members p);
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current;
    }

  let rounds st = st.rounds_completed
  let epoch st = st.epoch
  let members st = st.members
  let quorum_epoch st = st.quorum_epoch
end

(* Ω read off a backend's suspicion predicate [suspected st q], shared
   by every Ω backend.  The leader is the first pid that is [self] or
   unsuspected ([self] if there is none); the suspect set is the pids the
   predicate marks.  Hosts read the leader on every node step, so
   [leader] is one pass over the pids that builds no list, set or
   closure: a backend passes its top-level [suspected], which allocates
   nothing. *)
module Read = struct
  let rec leader suspected st ~self ~n q =
    if q >= n then self
    else if q = self || not (suspected st q) then q
    else leader suspected st ~self ~n (q + 1)

  let suspects suspected st ~n =
    Sim.Pidset.filter (suspected st) (Sim.Pidset.full n)
end

module Omega_heartbeat = struct
  type msg = Alive

  type state = {
    self : Sim.Pid.t;
    n : int;
    period : int;
    clock : int;  (* local step counter *)
    ad : Adaptive.t;
  }

  let init ~period ~n self =
    { self; n; period; clock = 0; ad = Adaptive.create ~n ~period }

  let suspected st q =
    q <> st.self && Adaptive.timed_out st.ad ~clock:st.clock q

  let suspects st = Read.suspects suspected st ~n:st.n
  let leader st = Read.leader suspected st ~self:st.self ~n:st.n 0

  let on_step _ctx st recv =
    let st = { st with clock = st.clock + 1 } in
    let st =
      match recv with
      | Some (q, Alive) ->
        { st with ad = Adaptive.heard st.ad ~clock:st.clock q }
      | None -> st
    in
    let acts =
      if st.clock mod st.period = 0 then
        Peers.send ~n:st.n ~except:[ st.self ] Alive
      else []
    in
    (st, acts)

  let timeout st q = Adaptive.timeout st.ad q

  let detector ~period =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init = (fun ~n p -> init ~period ~n p);
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current = leader;
    }
end

module Omega_ec = struct
  type msg = Alive

  type state = {
    self : Sim.Pid.t;
    n : int;
    period : int;
    clock : int;
    ad : Adaptive.t;
    leader : Sim.Pid.t;  (* last output leader *)
    epoch : int;  (* bumped on every local leader change *)
  }

  let init ~period ~n self =
    {
      self;
      n;
      period;
      clock = 0;
      ad = Adaptive.create ~n ~period;
      leader = 0;
      epoch = 0;
    }

  let suspected st q =
    q <> st.self && Adaptive.timed_out st.ad ~clock:st.clock q

  let suspects st = Read.suspects suspected st ~n:st.n

  let on_step _ctx st recv =
    let st = { st with clock = st.clock + 1 } in
    let st =
      match recv with
      | Some (q, Alive) ->
        { st with ad = Adaptive.heard st.ad ~clock:st.clock q }
      | None -> st
    in
    (* Track the leader and stamp each change with a fresh epoch: the pair
       (leader, epoch) is exactly the ◇-constant output the EC paper's
       detector needs — it eventually stops changing at every correct
       process, and any two changes are ordered by the epoch. *)
    let ldr = Read.leader suspected st ~self:st.self ~n:st.n 0 in
    let st =
      if Sim.Pid.equal ldr st.leader then st
      else { st with leader = ldr; epoch = st.epoch + 1 }
    in
    let acts =
      if st.clock mod st.period = 0 then [ Sim.Protocol.Broadcast Alive ]
      else []
    in
    (st, acts)

  let current st = (st.leader, st.epoch)
  let epoch st = st.epoch
  let timeout st q = Adaptive.timeout st.ad q

  let detector ~period =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init = (fun ~n p -> init ~period ~n p);
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current;
    }
end

module Omega_ring = struct
  type msg = Hb | Suspect of Sim.Pid.t | Refute of Sim.Pid.t

  type state = {
    self : Sim.Pid.t;
    n : int;
    period : int;
    clock : int;
    suspected : Sim.Pidset.t;  (* never contains [self] *)
    monitored : Sim.Pid.t;  (* current predecessor; [self] iff alone *)
    ad : Adaptive.t;
  }

  (* Ring geometry over the *unsuspected* ids, self included.  With every
     suspected node excised, the successor of a node just below a crashed
     run of ids is the first live id above it: the chain re-closes by
     construction. *)
  let succ st =
    let rec go k =
      if k > st.n then st.self
      else
        let q = (st.self + k) mod st.n in
        if Sim.Pid.equal q st.self then st.self
        else if Sim.Pidset.mem q st.suspected then go (k + 1)
        else q
    in
    go 1

  let pred st =
    let rec go k =
      if k > st.n then st.self
      else
        let q = (st.self - k + (st.n * 2)) mod st.n in
        if Sim.Pid.equal q st.self then st.self
        else if Sim.Pidset.mem q st.suspected then go (k + 1)
        else q
    in
    go 1

  let suspected st q = Sim.Pidset.mem q st.suspected
  let leader st = Read.leader suspected st ~self:st.self ~n:st.n 0

  let init ~period ~n self =
    let st =
      {
        self;
        n;
        period;
        clock = 0;
        suspected = Sim.Pidset.empty;
        monitored = self;
        ad = Adaptive.create ~n ~period;
      }
    in
    { st with monitored = pred st }

  let suspects st = st.suspected
  let timeout st q = Adaptive.timeout st.ad q

  let on_step _ctx st recv =
    let st = { st with clock = st.clock + 1 } in
    let acts = ref [] in
    let emit a = acts := a :: !acts in
    let st =
      match recv with
      | None -> st
      | Some (q, Hb) ->
        let st = { st with ad = Adaptive.heard st.ad ~clock:st.clock q } in
        if Sim.Pidset.mem q st.suspected then begin
          (* q is alive after all: retract, and tell everyone so the chain
             re-closes on the same membership everywhere.  [heard] above
             already grew q's timeout — the false suspicion is also the
             adaptation signal. *)
          emit (Sim.Protocol.Broadcast (Refute q));
          { st with suspected = Sim.Pidset.remove q st.suspected }
        end
        else st
      | Some (_, (Suspect p | Refute p)) when not (Sim.Pid.valid ~n:st.n p) ->
        (* a decoded frame may name a pid outside the cluster *)
        st
      | Some (_, Suspect p) ->
        if Sim.Pid.equal p st.self then begin
          (* someone convicted us while we are demonstrably stepping *)
          emit (Sim.Protocol.Broadcast (Refute st.self));
          st
        end
        else
          (* no [grant] here: the monitor re-aim below grants grace to
             whichever peer we start watching next, and leaving
             [last_heard] untouched lets [heard] recognise the refuting
             heartbeat as a false suspicion and grow the timeout *)
          { st with suspected = Sim.Pidset.add p st.suspected }
      | Some (_, Refute p) ->
        {
          st with
          ad = Adaptive.heard st.ad ~clock:st.clock p;
          suspected = Sim.Pidset.remove p st.suspected;
        }
    in
    (* Re-aim monitoring at the current predecessor.  On a target change
       the new predecessor gets a grace reset, so it is never convicted on
       information from before we were watching it. *)
    let p = pred st in
    let st =
      if Sim.Pid.equal p st.monitored then st
      else
        { st with ad = Adaptive.grant st.ad ~clock:st.clock p; monitored = p }
    in
    (* The one monitoring obligation: our predecessor.  At most one new
       suspicion per step; excising it moves [pred] one further back,
       which the next step grants grace and starts watching. *)
    let st =
      if
        (not (Sim.Pid.equal st.monitored st.self))
        && Adaptive.timed_out st.ad ~clock:st.clock st.monitored
      then begin
        emit (Sim.Protocol.Broadcast (Suspect st.monitored));
        { st with suspected = Sim.Pidset.add st.monitored st.suspected }
      end
      else st
    in
    (* The one heartbeat obligation: our successor. *)
    if st.clock mod st.period = 0 then begin
      let s = succ st in
      if not (Sim.Pid.equal s st.self) then emit (Sim.Protocol.Send (s, Hb))
    end;
    (st, List.rev !acts)

  let detector ~period =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init = (fun ~n p -> init ~period ~n p);
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current = leader;
    }
end

module Omega = struct
  type kind = Heartbeat | Ring
  type msg = H of Omega_heartbeat.msg | R of Omega_ring.msg
  type state = HS of Omega_heartbeat.state | RS of Omega_ring.state

  let kind_name = function Heartbeat -> "heartbeat" | Ring -> "ring"

  let kind = function HS _ -> Heartbeat | RS _ -> Ring

  let current = function
    | HS s -> Omega_heartbeat.leader s
    | RS s -> Omega_ring.leader s

  let suspected st q =
    match st with
    | HS s -> Omega_heartbeat.suspected s q
    | RS s -> Omega_ring.suspected s q

  let suspects = function
    | HS s -> Omega_heartbeat.suspects s
    | RS s -> Omega_ring.suspects s

  let timeout st q =
    match st with
    | HS s -> Omega_heartbeat.timeout s q
    | RS s -> Omega_ring.timeout s q

  (* Dispatch on the state's own constructor; a frame of the other
     backend's variant (possible only if a host mixes kinds across a
     restart) is ignored, exactly as an unknown peer would be. *)
  let on_step ctx st recv =
    match st with
    | HS s ->
      let r = match recv with Some (q, H m) -> Some (q, m) | _ -> None in
      let s, acts = Omega_heartbeat.on_step ctx s r in
      ( HS s,
        Sim.Protocol.map_actions ~msg:(fun m -> H m) ~out:Option.some acts )
    | RS s ->
      let r = match recv with Some (q, R m) -> Some (q, m) | _ -> None in
      let s, acts = Omega_ring.on_step ctx s r in
      ( RS s,
        Sim.Protocol.map_actions ~msg:(fun m -> R m) ~out:Option.some acts )

  let detector ~kind ~period =
    {
      Sim.Layered.proto =
        {
          Sim.Protocol.init =
            (fun ~n p ->
              match kind with
              | Heartbeat -> HS (Omega_heartbeat.init ~period ~n p)
              | Ring -> RS (Omega_ring.init ~period ~n p));
          on_step;
          on_input = Sim.Protocol.no_input;
        };
      current;
    }
end
