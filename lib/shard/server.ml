(* The TCP deployment of one shard replica: Replica.protocol hosted by
   Net.Smr_node's generic event loop.  Writes and Reconfigs enter the
   shard's log ((seq, slot) reply when decided); Reads are answered
   immediately from local state with the Router.view sample the router's
   quorum read needs — no consensus on the read path.  [ops] is the
   client side: Router.ops over request/reply round trips. *)

type request = Submit of Replica.payload | Read of { key : string }

(* Client frames: a tag byte, then the fields.  A submitted payload is
   its own binary form (App = 0, key, value; Reconfig = 1, varint epoch,
   varint list of members); Read = 2, key.  A read reply is varint
   epoch, varint applied, option (varint, value). *)
module W = Net.Wire.W
module R = Net.Wire.R

let request_codec =
  Net.Wire.codec
    ~write:(fun buf -> function
      | Submit p -> Replica.write_payload buf p
      | Read { key } ->
        W.u8 buf 2;
        W.string buf key)
    ~read:(fun r ->
      match R.u8 r with
      | 2 -> Read { key = R.string r }
      | t -> Submit (Replica.read_payload t r))

let read_reply_codec =
  Net.Wire.codec
    ~write:(fun buf (v : Router.view) ->
      W.varint buf v.v_epoch;
      W.varint buf v.v_applied;
      W.option (W.pair W.varint W.string) buf v.v_value)
    ~read:(fun r ->
      let v_epoch = R.varint r in
      let v_applied = R.varint r in
      let v_value = R.option (R.pair R.varint R.string) r in
      { Router.v_epoch; v_applied; v_value })

let impl ?snap_every ?lag_gap ?detector ~period ~members () :
    (Replica.state, Replica.payload) Net.Smr_node.impl =
  Net.Smr_node.Impl
    {
      proto =
        Replica.protocol ?snap_every ?lag_gap ?detector ~period ~members ();
      codec = Replica.codec;
      submitted = (fun st -> Cons.Smr.submitted (Replica.smr_state st));
      applied = Replica.applied;
      decided = (fun out -> Some out);
      submit = (fun c -> c);
      log_line =
        (fun slot (cmd : Replica.cmd) ->
          Printf.sprintf "%d\t%d\t%d\t%s" slot cmd.Cons.Smr.origin
            cmd.Cons.Smr.seq
            (String.escaped (Replica.payload_to_string cmd.Cons.Smr.payload)));
      on_request =
        (fun ~state ~inject:_ frame ->
          match Net.Wire.of_bytes request_codec frame with
          | Submit p -> `Submit p
          | Read { key } ->
            `Reply
              (Net.Wire.to_bytes read_reply_codec
                 (Router.view_of (state ()) ~key)));
    }

let serve ?snap_every ?lag_gap ~members cfg =
  Net.Smr_node.serve
    (impl ?snap_every ?lag_gap ~detector:cfg.Net.Smr_node.detector
       ~period:cfg.Net.Smr_node.period ~members ())
    cfg

let ops ~config ~roundtrip =
  let call p req = roundtrip p (Net.Wire.to_bytes request_codec req) in
  {
    Router.config;
    sample =
      (fun p ~key ->
        (* a failed round trip (EPIPE, reset, EOF) is a dead replica's
           missing sample, as a crashed one's is in process *)
        match call p (Read { key }) with
        | reply -> Some (Net.Wire.of_bytes read_reply_codec reply)
        | exception (Unix.Unix_error _ | End_of_file) -> None);
    submit =
      (fun c ->
        let lowest = Sim.Pidset.min_elt (config ()).Epoch.members in
        ignore (Net.Smr_node.decode_reply (call lowest (Submit c)));
        true);
  }
