type ('st, 'msg, 'inp, 'out) t = {
  transport : Transport.t;
  proto : ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t;
  codec : 'msg Wire.codec;
  scratch : Buffer.t;  (* reused across sends: one encode per fan-out *)
  sink : Sim.Event.sink option;
  track_vc : bool;
  render_out : 'out -> string;
  metrics : Obs.Metrics.t option;
  classify : ('msg -> string option) option;
  mutable st : 'st;
  mutable vc : Sim.Vclock.t;
  mutable now : int;
  inputs : 'inp Queue.t;
  outputs : 'out Queue.t;
}

let create ?sink ?(track_vc = false) ?(render_out = fun _ -> "") ~codec
    ?metrics ?classify ~transport proto =
  let n = transport.Transport.n in
  {
    transport;
    proto;
    codec;
    scratch = Buffer.create 512;
    sink;
    track_vc;
    render_out;
    metrics;
    classify;
    st = proto.Sim.Protocol.init ~n transport.Transport.self;
    vc = Sim.Vclock.zero n;
    now = 0;
    inputs = Queue.create ();
    outputs = Queue.create ();
  }

let inject t inp = Queue.push inp t.inputs
let drain_outputs t =
  let l = List.of_seq (Queue.to_seq t.outputs) in
  Queue.clear t.outputs;
  l
let state t = t.st
let now t = t.now
let transport t = t.transport

let emit t kind =
  match t.sink with
  | None -> ()
  | Some s ->
    let vc = if t.track_vc then Some t.vc else None in
    s.Sim.Event.emit { Sim.Event.time = t.now; round = t.now; vc; kind }

let ctx t =
  { Sim.Protocol.self = t.transport.Transport.self; n = t.transport.Transport.n;
    now = t.now; fd = () }

(* [msg]'s envelope bytes.  Within one [apply_actions] call src, sent_at
   and vc are fixed, so when the message encoded last in the call
   ([last]) is [msg] itself its bytes serve again: a fan-out re-tagged by
   [Sim.Protocol.map_actions] carries one physical message, and a
   broadcast hands every peer the same bytes.  No transport mutates a
   frame. *)
let encode t last msg =
  match last with
  | Some (m, b) when m == msg -> b
  | Some _ | None ->
    let env =
      { Wire.env_src = t.transport.Transport.self;
        env_sent_at = t.now;
        env_vc = (if t.track_vc then Some (Sim.Vclock.to_list t.vc) else None);
        env_msg = msg }
    in
    Buffer.clear t.scratch;
    Wire.encode_envelope_into t.codec t.scratch env;
    Buffer.to_bytes t.scratch

let apply_actions t acts =
  let self = t.transport.Transport.self in
  let n = t.transport.Transport.n in
  let send b dst =
    t.transport.Transport.send dst b;
    emit t (Sim.Event.Send { src = self; dst })
  in
  let rec go last = function
    | [] -> ()
    | Sim.Protocol.Send (dst, m) :: acts when Sim.Pid.valid ~n dst ->
      let b = encode t last m in
      send b dst;
      go (Some (m, b)) acts
    | Sim.Protocol.Send _ :: acts -> go last acts
    | Sim.Protocol.Broadcast m :: acts ->
      let b = encode t last m in
      List.iter (send b) (Sim.Pid.all n);
      go (Some (m, b)) acts
    | Sim.Protocol.Output v :: acts ->
      Queue.push v t.outputs;
      let info = try t.render_out v with _ -> "" in
      emit t (Sim.Event.Output { pid = self; info });
      go last acts
  in
  go None acts

(* Synchronous variant of input delivery: runs [on_input] now, against the
   current state, instead of queueing for the next step.  This is what
   gives the mixed-consistency front-end read-your-writes: an eventual put
   is applied before the reply (or a pipelined get on the same connection)
   is computed. *)
let apply_input t inp =
  emit t (Sim.Event.Input t.transport.Transport.self);
  emit t (Sim.Event.Fd_query t.transport.Transport.self);
  let st, acts = t.proto.Sim.Protocol.on_input (ctx t) t.st inp in
  t.st <- st;
  apply_actions t acts

let step ?(timeout_ms = 0) t =
  let self = t.transport.Transport.self in
  if t.track_vc then t.vc <- Sim.Vclock.tick t.vc self;
  let busy = ref false in
  (* external inputs first, exactly like the engine *)
  while not (Queue.is_empty t.inputs) do
    busy := true;
    let inp = Queue.pop t.inputs in
    emit t (Sim.Event.Input self);
    emit t (Sim.Event.Fd_query self);
    let st, acts = t.proto.Sim.Protocol.on_input (ctx t) t.st inp in
    t.st <- st;
    apply_actions t acts
  done;
  (* at most one receive *)
  let recv =
    match t.transport.Transport.poll ~timeout_ms with
    | None -> None
    | Some (_, frame) -> (
      match Wire.decode_envelope_with t.codec frame with
      | exception _ -> None (* corrupt frame: drop, as the net would *)
      | env when not (Sim.Pid.valid ~n:t.transport.Transport.n env.Wire.env_src)
        ->
        None (* a sender outside the cluster: dropped the same way *)
      | env ->
        busy := true;
        (match env.Wire.env_vc with
        | Some l when t.track_vc ->
          t.vc <- Sim.Vclock.merge t.vc (Sim.Vclock.of_list l)
        | _ -> ());
        emit t
          (Sim.Event.Deliver
             { src = env.Wire.env_src; dst = self;
               sent_at = env.Wire.env_sent_at });
        (match (t.metrics, t.classify) with
        | Some m, Some classify -> (
          match classify env.Wire.env_msg with
          | Some detector ->
            Obs.Metrics.incr_l m "fd.frames" ~labels:[ ("detector", detector) ]
          | None -> ())
        | _ -> ());
        Some (env.Wire.env_src, env.Wire.env_msg))
  in
  emit t (Sim.Event.Fd_query self);
  let st, acts = t.proto.Sim.Protocol.on_step (ctx t) t.st recv in
  t.st <- st;
  if acts <> [] then busy := true;
  apply_actions t acts;
  t.now <- t.now + 1;
  !busy
