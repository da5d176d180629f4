(* Model-checking the production network stack.

   The sim-side explorers check protocol automata under the engine's
   idealized message semantics.  This harness closes the gap to the code
   that actually ships: it drives real [Net.Node] values — the same main
   loop production transports run — over [Net.Loopback] given a
   scheduler, so every delivery decision of the in-memory hub is a
   [Sim.Scheduler] choice point.  The model checker's one search loop
   ([Parallel.exhaust]) then enumerates delivery interleavings (and, with
   [reorder], reorderings and duplications around faults) of the real
   wire path: codec, envelopes, [Net.Rel] ARQ, node step loop.

   Structure of a run: scripted faults and inputs are applied at round
   boundaries, then a [Round_order] choice fixes the per-round step
   order of the un-killed nodes and each steps once
   ([Node.step ~timeout_ms:0] — inputs, at most one delivery, one
   automaton step), mirroring the engine's atomic-step rounds.  Output
   events are stamped [round * n + slot] so trace-based invariants
   ({!Invariant.linearizable}, custom delivery invariants) read the
   same shape they read from the simulator.

   Quiescence — the [must_terminate] trigger for final invariant
   checks — requires an idle round, a hub holding no frame a live node
   can receive AND every link layer reporting itself drained
   ([link_idle]): an ARQ with unacked frames is still working even
   when nothing is in flight, and declaring quiescence before its
   resend timer fires would fabricate message loss.  A link that never
   drains (retransmitting to a killed peer) ends the run at
   [max_rounds] with [`Round_limit], where [must_terminate = false]
   keeps termination checks sound.

   Protocols driven here must not read [ctx.now] (node-local step
   counts are excluded from the state digest; see [digest_of]). *)

type fault =
  | Block of Sim.Pid.t
  | Unblock of Sim.Pid.t
  | Dup_next of Sim.Pid.t
  | Drop_next of Sim.Pid.t
  | Kill of Sim.Pid.t

type wrapped = {
  tr : Net.Transport.t;
  link_digest : unit -> int;
  link_idle : unit -> bool;
}

type link = Net.Transport.t -> wrapped

let raw_link tr = { tr; link_digest = (fun () -> 0); link_idle = (fun () -> true) }

let rel_link ?(resend_every = 2) () tr =
  let r = Net.Rel.wrap ~resend_every tr in
  {
    tr = Net.Rel.transport r;
    link_digest = (fun () -> Net.Rel.digest r);
    link_idle = (fun () -> (Net.Rel.stats r).Net.Rel.unacked = 0);
  }

type ('st, 'msg, 'inp, 'out) target = {
  name : string;
  n : int;
  protocol : ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t;
  link : link;
  reorder : bool;
  inputs : (int * Sim.Pid.t * 'inp) list;
  faults : (int * fault) list;
  invariant : 'out Invariant.t;
  max_rounds : int;
  pp_out : Format.formatter -> 'out -> unit;
}

(* Kills are the harness's crashes: a pid killed at round [r] has crash
   time [r * n] on the run's event clock. *)
let fp_of target =
  let kills =
    List.filter_map
      (function r, Kill p -> Some (p, r * target.n) | _ -> None)
      target.faults
  in
  Sim.Failure_pattern.make ~n:target.n kills

type run_report = {
  violation : string option;
  choices : int list;
  stopped : [ `Quiescent | `Round_limit | `Hook ];
  steps : int;
  outputs : string Lazy.t;
}

(* Everything that determines the future of a run except the round
   counter: protocol states (node-local [now] deliberately excluded —
   it only feeds [ctx.now]), link-layer state, hub queues and fault
   flags, and the output history (invariants read it, so two states may
   only merge if they agree on it). *)
let digest_of nodes hub events =
  let states =
    Array.map
      (fun (node, _) ->
        Digest.bytes (Marshal.to_bytes (Net.Node.state node) [ Marshal.Closures ]))
      nodes
  in
  let links = Array.map (fun (_, w) -> w.link_digest ()) nodes in
  Hashtbl.hash
    (Digest.bytes
       (Marshal.to_bytes
          (states, links, Net.Loopback.digest hub, events)
          [ Marshal.Closures ]))

(* Every node of the in-memory hub runs this one binary, so Marshal carries
   any target's messages faithfully; no socket ever carries it. *)
let marshal =
  let enc buf v = Buffer.add_string buf (Marshal.to_string v []) in
  { Net.Wire.enc; dec = (fun b ~pos ~len:_ -> Marshal.from_bytes b pos) }

let run ?round_hook target sched =
  let fp = fp_of target in
  let sched, recorded = Sim.Scheduler.recording sched in
  let hub =
    Net.Loopback.create ~sched ~reorder:target.reorder ~n:target.n ()
  in
  let nodes =
    Array.init target.n (fun p ->
        let w = target.link (Net.Loopback.endpoint hub p) in
        (Net.Node.create ~codec:marshal ~transport:w.tr target.protocol, w))
  in
  let events = ref [] (* newest first *) in
  let violation = ref None in
  let steps = ref 0 in
  let stopped = ref `Round_limit in
  let r = ref 0 in
  let running = ref true in
  while !running && !r < target.max_rounds do
    List.iter
      (fun (fr, f) ->
        if fr = !r then
          match f with
          | Block p -> Net.Loopback.block hub p
          | Unblock p -> Net.Loopback.unblock hub p
          | Dup_next p -> Net.Loopback.dup_next hub p
          | Drop_next p -> Net.Loopback.drop_next hub p
          | Kill p -> Net.Loopback.crash hub p)
      target.faults;
    let alive =
      List.filter
        (fun p -> not (Net.Loopback.crashed hub p))
        (Sim.Pid.all target.n)
    in
    if alive = [] then begin
      stopped := `Quiescent;
      running := false
    end
    else begin
      List.iter
        (fun (ir, p, inp) ->
          if ir = !r && not (Net.Loopback.crashed hub p) then
            Net.Node.inject (fst nodes.(p)) inp)
        target.inputs;
      let order = Sim.Scheduler.order sched alive in
      let progress = ref false in
      List.iteri
        (fun slot p ->
          if !violation = None then begin
            let node, _ = nodes.(p) in
            incr steps;
            if Net.Node.step ~timeout_ms:0 node then progress := true;
            match Net.Node.drain_outputs node with
            | [] -> ()
            | outs ->
              let time = (!r * target.n) + slot in
              List.iter
                (fun value ->
                  events := { Sim.Trace.time; pid = p; value } :: !events)
                outs;
              (match target.invariant.Invariant.on_output fp !events with
              | Ok () -> ()
              | Error msg -> violation := Some msg)
          end)
        order;
      if !violation <> None then running := false
      else begin
        (match round_hook with
        | Some hook ->
          let digest () = digest_of nodes hub !events in
          if not (hook ~round:!r ~digest ~steps:!steps) then begin
            stopped := `Hook;
            running := false
          end
        | None -> ());
        if !running then begin
          let later_script =
            List.exists (fun (ir, _, _) -> ir > !r) target.inputs
            || List.exists (fun (fr, _) -> fr > !r) target.faults
          in
          let idle = Array.for_all (fun (_, w) -> w.link_idle ()) nodes in
          if
            (not !progress)
            && idle
            && Net.Loopback.in_flight hub = 0
            && not later_script
          then begin
            stopped := `Quiescent;
            running := false
          end
          else incr r
        end
      end
    end
  done;
  let events = List.rev !events in
  (if !violation = None then
     match
       target.invariant.Invariant.final fp
         ~must_terminate:(!stopped = `Quiescent)
         events
     with
     | Ok () -> ()
     | Error msg -> violation := Some msg);
  {
    violation = !violation;
    choices = recorded ();
    stopped = !stopped;
    steps = !steps;
    outputs = lazy (Harness.pp_events target.pp_out events);
  }

(* The schedule's crash list stays empty: kills are part of the target
   script, not of the explored adversary, so replay needs only the
   choice sequence. *)
let replay target schedule =
  run target
    (Sim.Scheduler.replay schedule.Schedule.choices ~rest:Sim.Scheduler.first)

let violates target schedule = (replay target schedule).violation <> None

let search ?(budget = 10_000) target =
  let cex ~reason choices =
    Harness.counterexample ~shrink:true ~violates:(violates target)
      ~target:target.name ~n:target.n ~seed:1 ~reason
      (Schedule.make ~crashes:[] choices)
  in
  Parallel.exhaust ~budget ~cex (fun ~hook sched ->
      (* Scripts index by round, so states only merge at equal rounds:
         the key pairs the digest with the round counter. *)
      let round_hook ~round ~digest ~steps =
        hook ~key:(fun () -> Hashtbl.hash (digest (), round)) ~steps
      in
      let r = run ~round_hook target sched in
      (r.violation, r.steps))
