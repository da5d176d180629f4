type ('msg, 'fd, 'inp, 'out) config = {
  fp : Failure_pattern.t;
  fd : Pid.t -> int -> 'fd;
  inputs : (int * Pid.t * 'inp) list;
  policy : Network.policy;
  seed : int;
  max_steps : int;
  stop : 'out Trace.event list -> bool;
  detect_quiescence : bool;
  scheduler : Scheduler.t option;
  round_hook : (now:int -> digest:(unit -> int) -> steps:int -> bool) option;
  sink : Event.sink option;
  render_out : ('out -> string) option;
}

let stop_when_all_correct_output fp outputs =
  let correct = Failure_pattern.correct fp in
  Pidset.for_all
    (fun p -> List.exists (fun (e : _ Trace.event) -> Pid.equal e.pid p) outputs)
    correct

let config ?(policy = Network.Fifo) ?(seed = 1) ?(max_steps = 20_000)
    ?(inputs = []) ?(stop = fun _ -> false) ?(detect_quiescence = true)
    ?scheduler ?round_hook ?sink ?render_out ~fd fp =
  {
    fp;
    fd;
    inputs;
    policy;
    seed;
    max_steps;
    stop;
    detect_quiescence;
    scheduler;
    round_hook;
    sink;
    render_out;
  }

type 'inp pending_inputs = (int * 'inp) list array
(* per-pid inputs, each with its not-before time, kept sorted by time *)

let prepare_inputs ~n inputs : _ pending_inputs =
  let arr = Array.make n [] in
  List.iter
    (fun (time, p, inp) ->
      if Pid.valid ~n p then arr.(p) <- (time, inp) :: arr.(p))
    inputs;
  Array.map
    (fun l -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) l)
    arr

(* A structural digest of everything that determines the run's future except
   the clock: protocol states, buffered messages, undelivered inputs and the
   outputs emitted so far (the stop condition and the model checker's
   invariants read them).  The process states are marshalled and hashed
   with MD5, so the state component looks at the whole structure; states
   that cannot be marshalled fall back to a bounded structural hash.  The
   four components are then folded by [Hashtbl.hash] into a 30-bit key, so
   distinct states can share a digest: a seen-set keyed by it can merge
   two states that differ. *)
let state_digest states net inputs outputs =
  let st_h =
    try Hashtbl.hash (Digest.bytes (Marshal.to_bytes states [ Marshal.Closures ]))
    with _ -> Hashtbl.hash_param 1024 1024 states
  in
  Hashtbl.hash
    ( st_h,
      Network.digest net,
      Hashtbl.hash_param 1024 1024 inputs,
      Hashtbl.hash_param 1024 1024 outputs )

(* Everything a run carries from one round to the next, at a round
   boundary.  The arrays and the buffer are private copies; the process
   states, envelopes, inputs and outputs inside them are shared values. *)
type ('st, 'msg, 'inp, 'out) snapshot = {
  s_states : 'st array;
  s_net : 'msg Network.t;
  s_inputs : 'inp pending_inputs;
  s_outputs : 'out Trace.event list;
  s_steps : int;
  s_now : int;
  s_round : int;
}

let run ?resume ?save cfg (proto : _ Protocol.t) =
  let n = Failure_pattern.n cfg.fp in
  if (resume <> None || save <> None) && cfg.sink <> None then
    invalid_arg "Engine.run: snapshots are taken only without a sink";
  let sched =
    match (cfg.scheduler, resume) with
    | Some s, _ -> s
    | None, None -> Scheduler.random (Rng.split (Rng.make cfg.seed) 1)
    | None, Some _ -> invalid_arg "Engine.run: resuming needs a scheduler"
  in
  let start =
    match resume with
    | Some s -> s
    | None ->
      {
        s_states = Array.init n (fun p -> proto.init ~n p);
        s_net = Network.create cfg.policy Scheduler.first;
        s_inputs = prepare_inputs ~n cfg.inputs;
        s_outputs = [];
        s_steps = 0;
        s_now = 0;
        s_round = 0;
      }
  in
  let net = Network.copy start.s_net ~sched in
  let states = Array.copy start.s_states in
  let inputs = Array.copy start.s_inputs in
  let outputs = ref start.s_outputs in
  let steps = ref start.s_steps in
  let now = ref start.s_now in
  let round = ref start.s_round in
  let snapshot () =
    {
      s_states = Array.copy states;
      s_net = Network.copy net ~sched:Scheduler.first;
      s_inputs = Array.copy inputs;
      s_outputs = !outputs;
      s_steps = !steps;
      s_now = !now;
      s_round = !round;
    }
  in
  let stop_flag = ref false in
  let round_actions = ref 0 in
  (* Observability.  With the default [sink = None], every emit site below
     is a single branch on an immutable local and no vector clock is
     maintained — instrumented and uninstrumented runs take the same
     schedule and produce the same trace. *)
  let sink = cfg.sink in
  let traced = sink <> None in
  let vcs = if traced then Array.init n (fun _ -> Vclock.zero n) else [||] in
  let crash_seen = if traced then Array.make n false else [||] in
  let emit ?vc kind =
    match sink with
    | None -> ()
    | Some s -> s.Event.emit { Event.time = !now; round = !round; vc; kind }
  in
  let vc_of p = if traced then Some vcs.(p) else None in
  let enter ph = match sink with None -> () | Some s -> s.Event.phase_enter ph in
  let exit_ ph = match sink with None -> () | Some s -> s.Event.phase_exit ph in
  let render v =
    match cfg.render_out with
    | None -> ""
    | Some f -> ( try f v with _ -> "")
  in
  (* Apply the actions of one step of process [p]. *)
  let apply_actions p acts =
    List.iter
      (fun act ->
        round_actions := !round_actions + 1;
        match act with
        | Protocol.Send (dst, m) ->
          if Pid.valid ~n dst then begin
            Network.send ?vc:(vc_of p) net ~now:!now ~src:p ~dst m;
            if traced then emit ?vc:(vc_of p) (Event.Send { src = p; dst })
          end
        | Protocol.Broadcast m ->
          List.iter
            (fun dst ->
              Network.send ?vc:(vc_of p) net ~now:!now ~src:p ~dst m;
              if traced then emit ?vc:(vc_of p) (Event.Send { src = p; dst }))
            (Pid.all n)
        | Protocol.Output v ->
          outputs := { Trace.time = !now; pid = p; value = v } :: !outputs;
          if traced then
            emit ?vc:(vc_of p) (Event.Output { pid = p; info = render v });
          if cfg.stop !outputs then stop_flag := true)
      acts
  in
  let step_of p =
    if traced then vcs.(p) <- Vclock.tick vcs.(p) p;
    (* Deliver any due external inputs first, then take one atomic step. *)
    let due, later =
      List.partition (fun (time, _) -> time <= !now) inputs.(p)
    in
    inputs.(p) <- later;
    List.iter
      (fun (_, inp) ->
        if traced then begin
          emit ?vc:(vc_of p) (Event.Input p);
          emit ?vc:(vc_of p) (Event.Fd_query p)
        end;
        let ctx =
          { Protocol.self = p; n; now = !now; fd = cfg.fd p !now }
        in
        let st, acts = proto.on_input ctx states.(p) inp in
        states.(p) <- st;
        apply_actions p acts)
      due;
    enter Event.Delivery;
    let recv_env = Network.deliver_env net ~now:!now ~dst:p in
    exit_ Event.Delivery;
    let recv =
      match recv_env with
      | None -> None
      | Some d ->
        if traced then begin
          (match d.Network.d_vc with
          | Some sender_vc -> vcs.(p) <- Vclock.merge vcs.(p) sender_vc
          | None -> ());
          emit ?vc:(vc_of p)
            (Event.Deliver { src = d.Network.d_src; dst = p; sent_at = d.Network.d_sent_at })
        end;
        Some (d.Network.d_src, d.Network.d_msg)
    in
    if traced then emit ?vc:(vc_of p) (Event.Fd_query p);
    let ctx = { Protocol.self = p; n; now = !now; fd = cfg.fd p !now } in
    enter Event.Step;
    let st, acts = proto.on_step ctx states.(p) recv in
    exit_ Event.Step;
    states.(p) <- st;
    apply_actions p acts
  in
  (* Quiescence: nothing in flight to a live process (messages to crashed
     ones can never be delivered) and no pending input of a live one
     (inputs addressed to crashed processes are lost). *)
  let quiescent () =
    let alive = Failure_pattern.alive_at cfg.fp ~time:!now in
    List.for_all
      (fun p -> Network.pending net ~dst:p = 0 && inputs.(p) = [])
      alive
  in
  let stopped = ref `Step_limit in
  (try
     while !steps < cfg.max_steps do
       round_actions := 0;
       if traced then
         for p = 0 to n - 1 do
           if
             (not crash_seen.(p))
             && Failure_pattern.crashed_at cfg.fp ~time:!now p
           then begin
             crash_seen.(p) <- true;
             emit ?vc:(vc_of p) (Event.Crash p)
           end
         done;
       let alive = Failure_pattern.alive_at cfg.fp ~time:!now in
       enter Event.Schedule;
       let order = Scheduler.order sched alive in
       exit_ Event.Schedule;
       List.iter
         (fun p ->
           if
             (not !stop_flag)
             && !steps < cfg.max_steps
             && not (Failure_pattern.crashed_at cfg.fp ~time:!now p)
           then begin
             step_of p;
             incr steps;
             incr now
           end)
         order;
       if !stop_flag then begin
         stopped := `Condition;
         raise Exit
       end;
       if cfg.detect_quiescence && !round_actions = 0 && quiescent () then begin
         stopped := `Quiescent;
         raise Exit
       end;
       (match cfg.round_hook with
       | Some hook ->
         let digest () = state_digest states net inputs !outputs in
         if not (hook ~now:!now ~digest ~steps:!steps) then begin
           stopped := `Hook;
           raise Exit
         end
       | None -> ());
       (* An empty round (everyone crashed mid-round accounting) still must
          advance time so pending crash-dependent conditions progress. *)
       if order = [] then raise Exit;
       incr round;
       Option.iter (fun f -> f (snapshot ())) save
     done
   with Exit -> ());
  {
    Trace.outputs = List.rev !outputs;
    final_states = states;
    fp = cfg.fp;
    steps = !steps;
    ticks = !now;
    messages_sent = Network.sent_count net;
    messages_delivered = Network.delivered_count net;
    stopped = !stopped;
  }
