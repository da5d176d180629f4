module Omega_ec = Fd.Emulated.Omega_ec

type ec_state = Omega_ec.state * Replica.state
type ec_msg = (Omega_ec.msg, Replica.msg) Sim.Layered.wire

type state = string Net.Smr_node.pstate * ec_state
type msg = (string Net.Smr_node.pmsg, ec_msg) Sim.Layered.wire
type input = (string, Replica.input) Sim.Layered.wire
type output = (int * string Cons.Smr.cmd, Replica.output) Sim.Layered.wire

(* [Layered.product] exposes the pair of component fds (both already unit
   here, the detectors being composed inside each side); a [Node] runs
   protocols with fd = unit, so close the pair off. *)
let protocol ?window ?sync_every ~period () :
    (state, msg, unit, input, output) Sim.Protocol.t =
  Sim.Protocol.const_fd ((), ())
    (Sim.Layered.product
       (Net.Smr_node.protocol ?window ~period ())
       (Sim.Layered.with_detector
          (Omega_ec.detector ~period)
          (Replica.make ?sync_every ())))

let smr_state ((p, _) : state) = Net.Smr_node.smr_state p
let ec_detector ((_, (om, _)) : state) = om
let store ((_, (_, r)) : state) = Replica.store r

(* ---- The client-facing mixed-consistency request protocol ----
   One frame per request; the first byte picks the consistency level:
   0 = linearizable (payload enters the replicated log; the reply is the
   standard binary (seq, slot) of Smr_node.decode_reply, sent when
   decided), 1 = eventual put (applied locally, acked immediately with
   the written stamp), 2 = eventual get (answered immediately from local
   state).  Eventual requests never block on a quorum — that is the
   point. *)

type request =
  | Lin of string
  | Eput of { key : string; value : string }
  | Eget of { key : string }

module W = Net.Wire.W
module R = Net.Wire.R

let request_codec =
  Net.Wire.codec
    ~write:(fun buf -> function
      | Lin payload ->
        W.u8 buf 0;
        Buffer.add_string buf payload
      | Eput { key; value } ->
        W.u8 buf 1;
        W.string buf key;
        W.string buf value
      | Eget { key } ->
        W.u8 buf 2;
        W.string buf key)
    ~read:(fun r ->
      match R.u8 r with
      | 0 -> Lin (Bytes.unsafe_to_string (R.tail r))
      | 1 ->
        let key = R.string r in
        let value = R.string r in
        Eput { key; value }
      | 2 -> Eget { key = R.string r }
      | t ->
        raise (Net.Wire.Decode_error (Printf.sprintf "mixed request tag %d" t)))

(* Eventual-path replies: put → varint lamport, varint origin; get →
   option (value, lamport, origin). *)
type ereply =
  | Put_ack of { lamport : int; origin : Sim.Pid.t }
  | Get_hit of { value : string; lamport : int; origin : Sim.Pid.t }
  | Get_miss

let ereply_codec =
  Net.Wire.codec
    ~write:(fun buf -> function
      | Put_ack { lamport; origin } ->
        W.u8 buf 0;
        W.varint buf lamport;
        W.varint buf origin
      | Get_hit { value; lamport; origin } ->
        W.u8 buf 1;
        W.string buf value;
        W.varint buf lamport;
        W.varint buf origin
      | Get_miss -> W.u8 buf 2)
    ~read:(fun r ->
      match R.u8 r with
      | 0 ->
        let lamport = R.varint r in
        let origin = R.varint r in
        Put_ack { lamport; origin }
      | 1 ->
        let value = R.string r in
        let lamport = R.varint r in
        let origin = R.varint r in
        Get_hit { value; lamport; origin }
      | 2 -> Get_miss
      | t -> raise (Net.Wire.Decode_error (Printf.sprintf "ereply tag %d" t)))

let impl ?window ?sync_every ~period () : (state, string) Net.Smr_node.impl =
  Net.Smr_node.Impl
    {
      proto = protocol ?window ?sync_every ~period ();
      codec = Codecs.mixed Net.Wire.string_c;
      smr = smr_state;
      show = Fun.id;
      decided =
        (fun out ->
          match out with
          | Sim.Layered.Detector (slot, cmd) -> Some (slot, cmd)
          | Sim.Layered.Main _ -> None);
      submit = (fun c -> Sim.Layered.Detector c);
      on_request =
        (fun ~state ~inject frame ->
          match Net.Wire.of_bytes request_codec frame with
          | Lin payload -> `Submit payload
          | Eput { key; value } -> (
            (* Synchronous apply, then answer from post-state: the reply
               carries the stamp the write actually got, and a pipelined
               get on this connection sees it (read-your-writes). *)
            inject (Sim.Layered.Main (Replica.Put { key; value }));
            match Store.get (store (state ())) key with
            | Some e ->
              `Reply
                (Net.Wire.to_bytes ereply_codec
                   (Put_ack { lamport = e.Entry.lamport; origin = e.Entry.origin }))
            | None -> assert false)
          | Eget { key } ->
            let rep =
              match Store.get (store (state ())) key with
              | Some e ->
                Get_hit
                  {
                    value = e.Entry.value;
                    lamport = e.Entry.lamport;
                    origin = e.Entry.origin;
                  }
              | None -> Get_miss
            in
            `Reply (Net.Wire.to_bytes ereply_codec rep));
    }
