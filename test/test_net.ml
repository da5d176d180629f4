(* Tests for the net runtime: wire framing, the loopback cluster (SMR
   agreement with and without a crash, detector behaviour over a real
   message path), and the socket transport itself.  The point being
   checked throughout: the protocols are the *same automata* the simulator
   runs, so what the paper's model promises (agreement under crashes,
   eventual leader election from heartbeats) must survive the trip onto a
   transport. *)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let feed_chunked dec bytes sizes =
  (* feed [bytes] to [dec] in chunks of the given sizes (cycled) *)
  let n = Bytes.length bytes in
  let sizes = if sizes = [] then [ n ] else sizes in
  let rec go off sz =
    if off < n then begin
      let k = min (List.nth sizes (sz mod List.length sizes)) (n - off) in
      let k = max k 1 in
      Net.Wire.Decoder.feed dec (Bytes.sub bytes off k) k;
      go (off + k) (sz + 1)
    end
  in
  go 0 0

let drain dec =
  let rec go acc =
    match Net.Wire.Decoder.next dec with
    | None -> List.rev acc
    | Some f -> go (f :: acc)
  in
  go []

let test_decoder_reassembles () =
  let payloads = [ "a"; ""; String.make 300 'x'; "end" ] in
  let stream =
    Bytes.concat Bytes.empty
      (List.map (fun s -> Net.Wire.frame (Bytes.of_string s)) payloads)
  in
  List.iter
    (fun sizes ->
      let dec = Net.Wire.Decoder.create () in
      feed_chunked dec stream sizes;
      let got = List.map Bytes.to_string (drain dec) in
      Alcotest.(check (list string)) "frames survive rechunking" payloads got)
    [ [ 1 ]; [ 2; 3 ]; [ 7 ]; [ 1000 ]; [ 3; 1; 4; 1; 5 ] ]

(* The non-blocking writer under backpressure: fill a socket pair until
   the kernel pushes back, queue more behind it, and only then start
   reading, flushing between reads.  Frames of up to 200 KB also take
   partial writes.  Every frame decodes whole and in order; none is
   dropped, and no tail is lost. *)
let test_writer_backpressure () =
  let wr, rd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock wr;
  Unix.set_nonblock rd;
  let w = Net.Wire.Writer.create () in
  let payload i =
    Printf.sprintf "%06d:%s" i (String.make (i * 7919 mod 200_000) 'x')
  in
  let pushed = ref 0 in
  let push () =
    Net.Wire.Writer.push w (Bytes.of_string (payload !pushed));
    incr pushed
  in
  while (not (Net.Wire.Writer.pending w)) && !pushed < 100_000 do
    push ();
    Net.Wire.Writer.flush w wr
  done;
  Alcotest.(check bool) "the kernel pushed back" true
    (Net.Wire.Writer.pending w);
  for _ = 1 to 20 do
    push ()
  done;
  let dec = Net.Wire.Decoder.create () in
  let buf = Bytes.create 4096 in
  let got = ref 0 and idle = ref 0 in
  while !got < !pushed && !idle < 100 do
    Net.Wire.Writer.flush w wr;
    match Unix.read rd buf 0 (Bytes.length buf) with
    | k ->
      idle := 0;
      Net.Wire.Decoder.feed dec buf k;
      List.iter
        (fun f ->
          Alcotest.(check string) "next frame, whole" (payload !got)
            (Bytes.to_string f);
          incr got)
        (drain dec)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> incr idle
  done;
  Alcotest.(check int) "every frame arrived" !pushed !got;
  Alcotest.(check bool) "nothing left queued" false (Net.Wire.Writer.pending w);
  Unix.close wr;
  Unix.close rd

let prop_decoder_roundtrip =
  QCheck.Test.make ~name:"wire: decoder round-trips any chunking" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.(0 -- 200))) (small_list (1 -- 64)))
    (fun (payloads, sizes) ->
      let stream =
        Bytes.concat Bytes.empty
          (List.map (fun s -> Net.Wire.frame (Bytes.of_string s)) payloads)
      in
      let dec = Net.Wire.Decoder.create () in
      feed_chunked dec stream sizes;
      List.map Bytes.to_string (drain dec) = payloads)

(* A little hand-rolled payload codec, as a host protocol would write
   one: the envelope treats it as an opaque tail. *)
let pair_codec =
  Net.Wire.codec
    ~write:(fun buf (s, i) ->
      Net.Wire.W.string buf s;
      Net.Wire.W.varint buf i)
    ~read:(fun r ->
      let s = Net.Wire.R.string r in
      (s, Net.Wire.R.varint r))

let encode_env c env =
  let buf = Buffer.create 64 in
  Net.Wire.encode_envelope_into c buf env;
  Buffer.to_bytes buf

let test_envelope_roundtrip () =
  let codec = pair_codec in
  let env =
    { Net.Wire.env_src = 2; env_sent_at = 41; env_vc = Some [ 1; 0; 7 ];
      env_msg = ("hello", 13) }
  in
  let env' = Net.Wire.decode_envelope_with codec (encode_env codec env) in
  Alcotest.(check bool) "envelope round-trips" true (env = env');
  let bare = { env with Net.Wire.env_vc = None } in
  let bare' = Net.Wire.decode_envelope_with codec (encode_env codec bare) in
  Alcotest.(check bool) "vc-less envelope round-trips" true (bare = bare')

let test_envelope_version_rejected () =
  (* a frame stamped with a future wire version must be refused before
     any payload decoding — byte 0 is the version tag *)
  let env =
    { Net.Wire.env_src = 0; env_sent_at = 1; env_vc = None;
      env_msg = ("x", 0) }
  in
  let b = encode_env pair_codec env in
  Alcotest.(check int)
    "version byte leads the frame"
    Net.Wire.envelope_version
    (Char.code (Bytes.get b 0));
  Bytes.set b 0 (Char.chr (Net.Wire.envelope_version + 1));
  match Net.Wire.decode_envelope_with pair_codec b with
  | _ -> Alcotest.fail "future version accepted"
  | exception Net.Wire.Decode_error _ -> ()

let test_envelope_truncation_rejected () =
  let env =
    { Net.Wire.env_src = 3; env_sent_at = 9; env_vc = Some [ 2; 2; 2 ];
      env_msg = ("payload", 77) }
  in
  let b = encode_env pair_codec env in
  for cut = 0 to Bytes.length b - 1 do
    match Net.Wire.decode_envelope_with pair_codec (Bytes.sub b 0 cut) with
    | _ -> Alcotest.fail (Printf.sprintf "truncation at %d accepted" cut)
    | exception Net.Wire.Decode_error _ -> ()
  done

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"wire: varint round-trips any int" ~count:1000
    QCheck.(
      oneof
        [ int; oneofl [ 0; 1; -1; max_int; min_int; 127; 128; 16384 ] ])
    (fun i ->
      let i' = Net.Wire.(of_bytes varint_c (to_bytes varint_c i)) in
      i = i')

let string_cmd : string -> int -> int -> string Cons.Smr.cmd =
 fun payload origin seq -> { Cons.Smr.origin; seq; payload }

let gen_cmd =
  QCheck.map
    (fun (payload, origin, seq) -> string_cmd payload origin seq)
    QCheck.(triple (string_of_size QCheck.Gen.(0 -- 64)) (0 -- 15) small_nat)

(* Quorum-Paxos and SMR messages over the commands [gen_cmd] draws. *)
let gen_qp_of gen_cmd =
  let open Cons.Quorum_paxos in
  QCheck.(
    map
      (fun (tag, b, cmds, acc) ->
        match tag mod 6 with
        | 0 -> Prepare b
        | 1 -> Promise (b, if acc then Some (b + 1, cmds) else None)
        | 2 -> Propose (b, cmds)
        | 3 -> Accept b
        | 4 -> Nack b
        | _ -> Decide cmds)
      (quad small_nat small_nat (small_list gen_cmd) bool))

let gen_smr_of gen_cmd =
  QCheck.(
    map
      (fun (inner, k, cmds) ->
        match inner with
        | None -> Cons.Smr.Submit cmds
        | Some qp -> Cons.Smr.Inner (k, qp))
      (triple (option (gen_qp_of gen_cmd)) small_nat (small_list gen_cmd)))

let gen_smr = gen_smr_of gen_cmd

let prop_smr_codec_roundtrip =
  let c = Net.Codecs.smr_msg Net.Wire.string_c in
  QCheck.Test.make ~name:"codecs: smr message round-trips" ~count:500 gen_smr
    (fun m -> Net.Wire.of_bytes c (Net.Wire.to_bytes c m) = m)

let prop_pmsg_codec_roundtrip =
  let codec = Net.Codecs.pmsg Net.Wire.string_c in
  let gen =
    QCheck.(
      map
        (fun (det, smr) ->
          match det with
          | None -> Sim.Layered.Main smr
          | Some (0, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Main (Fd.Emulated.Sigma_majority.Join k))
          | Some (1, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Main (Fd.Emulated.Sigma_majority.Ack k))
          | Some (2, _) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R Fd.Emulated.Omega_ring.Hb))
          | Some (3, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R (Fd.Emulated.Omega_ring.Suspect k)))
          | Some (4, k) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.R (Fd.Emulated.Omega_ring.Refute k)))
          | Some (_, _) ->
            Sim.Layered.Detector
              (Sim.Layered.Detector
                 (Fd.Emulated.Omega.H Fd.Emulated.Omega_heartbeat.Alive)))
        (pair (option (pair (int_bound 5) small_nat)) gen_smr))
  in
  QCheck.Test.make ~name:"codecs: full node message round-trips" ~count:500
    gen (fun m -> Net.Wire.of_bytes codec (Net.Wire.to_bytes codec m) = m)

let gen_payload_cmd =
  let open QCheck.Gen in
  let payload =
    oneof
      [
        map2
          (fun key value -> Shard.Replica.App { key; value })
          string_small string_small;
        map2
          (fun epoch members -> Shard.Replica.Reconfig { epoch; members })
          small_nat (small_list small_nat);
      ]
  in
  QCheck.make
    (map3
       (fun payload origin seq -> { Cons.Smr.origin; seq; payload })
       payload (0 -- 15) small_nat)

let prop_replica_codec_roundtrip =
  let module L = Sim.Layered in
  let module Om = Fd.Emulated.Omega in
  let module Ring = Fd.Emulated.Omega_ring in
  let module Sig = Fd.Emulated.Sigma_epoch in
  let gen =
    QCheck.(
      map
        (fun (tag, (a, b), smr, snap) : Shard.Replica.msg ->
          let om m = L.Detector (L.Detector m) in
          match tag mod 9 with
          | 0 -> om (Om.H Fd.Emulated.Omega_heartbeat.Alive)
          | 1 -> om (Om.R Ring.Hb)
          | 2 -> om (Om.R (Ring.Suspect a))
          | 3 -> om (Om.R (Ring.Refute a))
          | 4 -> L.Detector (L.Main (Sig.Join { epoch = a; round = b }))
          | 5 -> L.Detector (L.Main (Sig.Ack { epoch = a; round = b }))
          | 6 -> L.Main (Shard.Replica.Smr smr)
          | 7 -> L.Main (Shard.Replica.Snap_req { since = a })
          | _ -> L.Main (Shard.Replica.Snap snap))
        (quad small_nat (pair small_nat small_nat)
           (gen_smr_of gen_payload_cmd)
           (small_list (pair small_nat (small_list gen_payload_cmd)))))
  in
  let codec = Shard.Replica.codec in
  QCheck.Test.make ~name:"codecs: shard replica message round-trips"
    ~count:500 gen (fun m ->
      Net.Wire.of_bytes codec (Net.Wire.to_bytes codec m) = m)

(* The 20-odd bytes [Marshal] reads as an int: a Marshal decoder that
   expects a tuple dereferences it and crashes the process. *)
let marshalled_int = Marshal.to_bytes 42 []

let test_hello () =
  (match Net.Wire.parse_hello (Net.Wire.hello ~self:3) with
  | Ok p -> Alcotest.(check int) "hello names the sender" 3 p
  | Error e -> Alcotest.fail e);
  (match Net.Wire.parse_hello_ack (Net.Wire.hello_ack ~self:2) with
  | Ok p -> Alcotest.(check int) "hello-ack names the acceptor" 2 p
  | Error e -> Alcotest.fail e);
  let hello = Net.Wire.hello ~self:3 in
  List.iter
    (fun (what, frame) ->
      match (Net.Wire.parse_hello frame, Net.Wire.parse_hello_ack frame) with
      | Error _, Error _ -> ()
      | _ -> Alcotest.failf "%s accepted as hello or hello-ack" what)
    [
      ("garbage", Bytes.of_string "garbage");
      ("a marshalled int", marshalled_int);
      ("a truncated hello", Bytes.sub hello 0 (Bytes.length hello - 1));
      ("a hello with trailing bytes", Bytes.cat hello (Bytes.of_string "x"));
      ("the old Marshal hello", Marshal.to_bytes ("weakest-fd-net/1", 3) []);
    ];
  (match Net.Wire.parse_hello (Net.Wire.hello_ack ~self:3) with
  | Ok _ -> Alcotest.fail "a hello-ack accepted as hello (wrong magic)"
  | Error _ -> ());
  match Net.Wire.of_bytes Shard.Server.request_codec marshalled_int with
  | _ -> Alcotest.fail "a marshalled int accepted as a shard request"
  | exception Net.Wire.Decode_error _ -> ()

(* Every decoder that reads bytes a socket delivered, on random frames and
   on mutated valid ones: each returns a value or an [Error], or raises
   [Decode_error] — never anything else. *)
let socket_decoders =
  let codec c b = ignore (Net.Wire.of_bytes c b) in
  let result f b = ignore (f b : (int, string) result) in
  let pmsg = Net.Codecs.pmsg Net.Wire.string_c in
  [
    ("hello", result Net.Wire.parse_hello);
    ("hello-ack", result Net.Wire.parse_hello_ack);
    ("shard request", codec Shard.Server.request_codec);
    ("shard read reply", codec Shard.Server.read_reply_codec);
    ("envelope", fun b -> ignore (Net.Wire.decode_envelope_with pmsg b));
    ("smr reply", fun b -> ignore (Net.Smr_node.decode_reply b));
    ("mixed request", fun b -> ignore (Ec.Mixed.decode_request b));
    ("mixed ereply", fun b -> ignore (Ec.Mixed.decode_ereply b));
    ("mixed message", codec (Ec.Codecs.mixed Net.Wire.string_c));
    ("omega message", codec Net.Codecs.omega_msg);
    ("shard replica message", codec Shard.Replica.codec);
  ]

let valid_frames =
  let with_buf f =
    let buf = Buffer.create 64 in
    f buf;
    Buffer.to_bytes buf
  in
  let cmd = { Cons.Smr.origin = 1; seq = 7; payload = "put x 1" } in
  [
    Net.Wire.hello ~self:2;
    Net.Wire.hello_ack ~self:1;
    marshalled_int;
    Net.Wire.to_bytes Shard.Server.request_codec
      (Shard.Server.Submit
         (Shard.Replica.Reconfig { epoch = 1; members = [ 1; 2; 3 ] }));
    Net.Wire.to_bytes Shard.Server.request_codec
      (Shard.Server.Submit (Shard.Replica.App { key = "k000001"; value = "v" }));
    Net.Wire.to_bytes Shard.Server.read_reply_codec
      { Shard.Router.v_epoch = 1; v_applied = 4; v_value = Some (3, "v") };
    with_buf (fun buf ->
        Net.Wire.encode_envelope_into (Net.Codecs.pmsg Net.Wire.string_c) buf
          {
            Net.Wire.env_src = 1;
            env_sent_at = 5;
            env_vc = Some [ 1; 2; 0 ];
            env_msg = Sim.Layered.Main (Cons.Smr.Submit [ cmd ]);
          });
    with_buf (fun buf ->
        Net.Wire.W.varint buf 7;
        Net.Wire.W.varint buf 12);
    Ec.Mixed.encode_request (Ec.Mixed.Eput { key = "k"; value = "v" });
    Ec.Mixed.encode_ereply
      (Ec.Mixed.Get_hit { value = "v"; lamport = 3; origin = 2 });
    Net.Wire.to_bytes (Ec.Codecs.mixed Net.Wire.string_c)
      (Sim.Layered.Detector (Sim.Layered.Main (Cons.Smr.Submit [ cmd ])));
    Net.Wire.to_bytes Shard.Replica.codec
      (Sim.Layered.Main
         (Shard.Replica.Snap
            [
              ( 0,
                [
                  { cmd with
                    Cons.Smr.payload =
                      Shard.Replica.Reconfig { epoch = 1; members = [ 1; 2 ] };
                  };
                ] );
            ]));
    Net.Wire.to_bytes Shard.Replica.codec
      (Sim.Layered.Detector
         (Sim.Layered.Main
            (Fd.Emulated.Sigma_epoch.Join { epoch = 1; round = 3 })));
  ]

(* Frames well formed up to a list count, which is negative: a 9-byte
   varint reads as -1.  One per list-carrying socket decoder. *)
let hostile_frames =
  let neg = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  List.map Bytes.of_string
    [
      (* shard request: Reconfig, epoch 1, member count -1 *)
      "\x01\x01" ^ neg;
      (* envelope: version 1, src 0, sent_at 0, vclock count -1 *)
      "\x01\x00\x00\x01" ^ neg;
      (* envelope of Codecs.pmsg: main, Submit, batch count -1 *)
      "\x01\x00\x00\x00\x01\x00" ^ neg;
      (* Ec.Codecs.mixed: EC tower, anti-entropy, Digest rev 0, count -1 *)
      "\x01\x01\x00\x00" ^ neg;
      (* Replica.codec: Snap, count -1; and instance 0's batch count -1 *)
      "\x05" ^ neg;
      "\x05\x01\x00" ^ neg;
    ]

let gen_socket_frame =
  let open QCheck.Gen in
  (* overwrite, truncate at, insert before, or delete the byte at [i] *)
  let mutate b (op, i, c) =
    let n = Bytes.length b in
    let i = if n = 0 then 0 else i mod n in
    let c = Bytes.make 1 (Char.chr c) in
    match op with
    | 0 when n > 0 ->
      let b = Bytes.copy b in
      Bytes.blit c 0 b i 1;
      b
    | 1 -> Bytes.sub b 0 i
    | 2 | 0 ->
      Bytes.concat Bytes.empty [ Bytes.sub b 0 i; c; Bytes.sub b i (n - i) ]
    | _ when n = 0 -> b
    | _ -> Bytes.cat (Bytes.sub b 0 i) (Bytes.sub b (i + 1) (n - i - 1))
  in
  oneof
    [
      bytes_size (0 -- 64);
      map2 (List.fold_left mutate) (oneofl valid_frames)
        (list_size (1 -- 4) (triple (0 -- 3) nat (0 -- 255)));
      oneofl hostile_frames;
    ]

let prop_socket_decoders_total =
  QCheck.Test.make ~name:"wire: socket decoders reject, never crash"
    ~count:2000
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b))
       gen_socket_frame)
    (fun frame ->
      List.for_all
        (fun (name, decode) ->
          match decode frame with
          | () | (exception Net.Wire.Decode_error _) -> true
          | exception e ->
            QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))
        socket_decoders)

let prop_shard_frames_roundtrip =
  let open QCheck in
  let gen_request =
    Gen.(
      oneof
        [
          map2
            (fun key value ->
              Shard.Server.Submit (Shard.Replica.App { key; value }))
            string_small string_small;
          map2
            (fun epoch members ->
              Shard.Server.Submit (Shard.Replica.Reconfig { epoch; members }))
            nat (small_list nat);
          map (fun key -> Shard.Server.Read { key }) string_small;
        ])
  in
  let gen_reply =
    Gen.(
      map3
        (fun v_epoch v_applied v_value ->
          { Shard.Router.v_epoch; v_applied; v_value })
        nat nat
        (opt (pair nat string_small)))
  in
  let roundtrips c v = Net.Wire.(of_bytes c (to_bytes c v)) = v in
  Test.make ~name:"shard: client request and read reply round-trip"
    ~count:500
    (make Gen.(pair gen_request gen_reply))
    (fun (req, rep) ->
      roundtrips Shard.Server.request_codec req
      && roundtrips Shard.Server.read_reply_codec rep)

(* Client frames are a wire format deployed clients speak: pin their
   bytes.  A [Submit] is its payload's own binary form, tags 0 and 1. *)
let test_shard_request_bytes () =
  let hex b =
    Bytes.to_seq b |> List.of_seq
    |> List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
    |> String.concat " "
  in
  let req r = hex (Net.Wire.to_bytes Shard.Server.request_codec r) in
  Alcotest.(check string) "App k=v" "00 01 6b 01 76"
    (req (Shard.Server.Submit (Shard.Replica.App { key = "k"; value = "v" })));
  Alcotest.(check string) "Reconfig e1 [1; 2]" "01 01 02 01 02"
    (req
       (Shard.Server.Submit
          (Shard.Replica.Reconfig { epoch = 1; members = [ 1; 2 ] })));
  Alcotest.(check string) "Read k" "02 01 6b"
    (req (Shard.Server.Read { key = "k" }));
  Alcotest.(check string) "read reply e1 applied 4 (3, v)" "01 04 01 03 01 76"
    (hex
       (Net.Wire.to_bytes Shard.Server.read_reply_codec
          { Shard.Router.v_epoch = 1; v_applied = 4; v_value = Some (3, "v") }))

(* The max-frame guard: an adversarial length prefix must raise the
   typed exception as soon as the 4 header bytes are buffered — before
   any frame-sized allocation — while a frame exactly at the cap still
   passes.  The per-connection handlers rely on this being [Frame_too_large]
   (not Out_of_memory, not a silent giant allocation). *)
let test_decoder_frame_cap () =
  let limit = 1024 in
  (* a 4-byte prefix announcing 2 GiB: refused at feed time *)
  let evil = Bytes.create 4 in
  Bytes.set_int32_be evil 0 0x7fffffffl;
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec evil 4 with
  | () -> Alcotest.fail "2 GiB prefix accepted"
  | exception Net.Wire.Frame_too_large { size; limit = l } ->
    Alcotest.(check int) "reported size" 0x7fffffff size;
    Alcotest.(check int) "reported limit" limit l);
  (* a negative prefix is refused the same way *)
  let neg = Bytes.create 4 in
  Bytes.set_int32_be neg 0 (-1l);
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec neg 4 with
  | () -> Alcotest.fail "negative prefix accepted"
  | exception Net.Wire.Frame_too_large _ -> ());
  (* exactly at the cap: fine *)
  let ok = Net.Wire.frame (Bytes.make limit 'x') in
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  Net.Wire.Decoder.feed dec ok (Bytes.length ok);
  (match Net.Wire.Decoder.next dec with
  | Some f -> Alcotest.(check int) "cap-sized frame passes" limit (Bytes.length f)
  | None -> Alcotest.fail "cap-sized frame lost");
  (* one byte over: refused, and the header alone is enough to know *)
  let over = Net.Wire.frame (Bytes.make (limit + 1) 'x') in
  let dec = Net.Wire.Decoder.create ~max_frame:limit () in
  (match Net.Wire.Decoder.feed dec over 4 with
  | () -> Alcotest.fail "oversized frame accepted"
  | exception Net.Wire.Frame_too_large { size; limit = l } ->
    Alcotest.(check int) "size is limit+1" (limit + 1) size;
    Alcotest.(check int) "limit echoed" limit l);
  (* default cap is the documented module constant *)
  let dec = Net.Wire.Decoder.create () in
  let big = Bytes.create 4 in
  Bytes.set_int32_be big 0 (Int32.of_int (Net.Wire.max_frame + 1));
  match Net.Wire.Decoder.feed dec big 4 with
  | () -> Alcotest.fail "default cap not enforced"
  | exception Net.Wire.Frame_too_large { limit = l; _ } ->
    Alcotest.(check int) "default limit" Net.Wire.max_frame l

(* ------------------------------------------------------------------ *)
(* Loopback SMR cluster                                                *)

let log_view l =
  List.map
    (fun (slot, (c : string Cons.Smr.cmd)) ->
      (slot, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))
    l

let run_until ?(cap = 20_000) cluster pred =
  let rec go r =
    if pred () then r
    else if r >= cap then Alcotest.fail "cluster did not converge"
    else begin
      Net.Local.cluster_step cluster;
      go (r + 1)
    end
  in
  go 0

let applied_at cluster p = List.length (Net.Local.cluster_outputs cluster p)

let test_loopback_agreement () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  let cmds = [ (0, "a"); (1, "b"); (2, "c"); (0, "d"); (1, "e") ] in
  List.iter (fun (p, c) -> Net.Local.cluster_submit cluster p c) cmds;
  let k = List.length cmds in
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= k) (Sim.Pid.all n)));
  let logs = List.map (fun p -> log_view (Net.Local.cluster_outputs cluster p)) (Sim.Pid.all n) in
  (match logs with
  | l0 :: rest ->
    List.iteri
      (fun i l ->
        Alcotest.(check bool)
          (Printf.sprintf "log %d equals log 0" (i + 1))
          true (l = l0))
      rest;
    (* every submitted command decided exactly once *)
    let decided =
      List.map (fun (_, origin, _, payload) -> (origin, payload)) l0
      |> List.sort compare
    in
    Alcotest.(check bool) "all commands decided once" true
      (decided = List.sort compare cmds)
  | [] -> assert false)

let test_loopback_crash () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.cluster_submit cluster 0 "pre0";
  Net.Local.cluster_submit cluster 1 "pre1";
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= 2) (Sim.Pid.all n)));
  (* kill node 2 mid-run; the survivors are a majority and must keep going *)
  Net.Local.cluster_crash cluster 2;
  Net.Local.cluster_submit cluster 0 "post0";
  Net.Local.cluster_submit cluster 1 "post1";
  ignore
    (run_until cluster (fun () ->
         applied_at cluster 0 >= 4 && applied_at cluster 1 >= 4));
  let l0 = log_view (Net.Local.cluster_outputs cluster 0) in
  let l1 = log_view (Net.Local.cluster_outputs cluster 1) in
  Alcotest.(check bool) "surviving logs identical" true (l0 = l1);
  Alcotest.(check bool) "post-crash commands decided" true
    (List.exists (fun (_, _, _, p) -> p = "post0") l0
    && List.exists (fun (_, _, _, p) -> p = "post1") l0)

(* Pipelined + batched configuration: many commands submitted at once
   must come out as one gapless, duplicate-free log, identical
   everywhere, regardless of how they were cut into instances. *)
let test_loopback_pipelined_agreement () =
  let n = 3 in
  let k = 60 in
  let cluster = Net.Local.create ~window:8 ~batch_max:4 ~n () in
  for i = 0 to k - 1 do
    Net.Local.cluster_submit cluster (i mod n) (Printf.sprintf "c%03d" i)
  done;
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= k) (Sim.Pid.all n)));
  let logs =
    List.map (fun p -> log_view (Net.Local.cluster_outputs cluster p)) (Sim.Pid.all n)
  in
  let l0 = List.hd logs in
  List.iter
    (fun l -> Alcotest.(check bool) "pipelined logs identical" true (l = l0))
    (List.tl logs);
  (* indices consecutive from 0, every command exactly once *)
  List.iteri
    (fun i (slot, _, _, _) ->
      Alcotest.(check int) "log indices consecutive" i slot)
    l0;
  let keys = List.map (fun (_, o, s, _) -> (o, s)) l0 in
  Alcotest.(check int) "no duplicates" k
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check int) "all commands applied" k (List.length l0);
  (* batching really happened: fewer instances than commands *)
  let touched =
    Cons.Smr.instances_touched
      (Net.Smr_node.smr_state (Net.Local.cluster_state cluster 0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "batches amortise instances (%d for %d cmds)" touched k)
    true
    (touched < k)

(* A batch in flight at the proposer's crash applies exactly once on the
   survivors — or not at all — never twice, and never divergently. *)
let test_loopback_batch_crash_boundary () =
  let n = 3 in
  let cluster = Net.Local.create ~window:4 ~batch_max:8 ~n () in
  (* leader 0 gets a pile of commands and a short head start, so some
     instances are mid-flight when it dies *)
  for i = 0 to 19 do
    Net.Local.cluster_submit cluster 0 (Printf.sprintf "pre%02d" i)
  done;
  for _ = 1 to 40 do
    Net.Local.cluster_step cluster
  done;
  Net.Local.cluster_crash cluster 0;
  for i = 0 to 9 do
    Net.Local.cluster_submit cluster 1 (Printf.sprintf "post%02d" i)
  done;
  (* survivors must still decide everything submitted at node 1 *)
  ignore
    (run_until cluster (fun () ->
         let applied p =
           List.map
             (fun (_, _, _, payload) -> payload)
             (log_view (Net.Local.cluster_outputs cluster p))
         in
         List.for_all
           (fun i ->
             List.mem (Printf.sprintf "post%02d" i) (applied 1)
             && List.mem (Printf.sprintf "post%02d" i) (applied 2))
           [ 0; 9 ]));
  let l1 = log_view (Net.Local.cluster_outputs cluster 1) in
  let l2 = log_view (Net.Local.cluster_outputs cluster 2) in
  Alcotest.(check bool) "survivor logs identical" true (l1 = l2);
  List.iteri
    (fun i (slot, _, _, _) ->
      Alcotest.(check int) "survivor log gapless" i slot)
    l1;
  (* exactly-once across the crash boundary: no (origin, seq) twice *)
  let keys = List.map (fun (_, o, s, _) -> (o, s)) l1 in
  Alcotest.(check int) "no command applied twice" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* Submissions interleaved at all three origins, then the leader crashes
   with batches in flight: on the survivors every (origin, seq) applies
   exactly once and the logs are identical.  Followers' commands reach
   each replica from several paths (their own Submit frames, decided
   batches, re-proposals after failover), so this is the run where the
   exactly-once key sets see keys above their per-origin watermark. *)
let test_loopback_multi_origin_exactly_once () =
  let n = 3 in
  let cluster = Net.Local.create ~n ~window:8 ~batch_max:8 () in
  let submitted = Array.make n [] in
  let submit p =
    let c = Printf.sprintf "p%d-%02d" p (List.length submitted.(p)) in
    submitted.(p) <- c :: submitted.(p);
    Net.Local.cluster_submit cluster p c
  in
  for i = 0 to 59 do
    submit (i mod n);
    if i mod 4 = 3 then submit ((i / 4) mod n);
    Net.Local.cluster_step cluster
  done;
  Net.Local.cluster_crash cluster 0;
  for i = 0 to 19 do
    submit (1 + (i mod 2));
    Net.Local.cluster_step cluster
  done;
  let payloads p =
    List.map (fun (_, _, _, c) -> c) (log_view (Net.Local.cluster_outputs cluster p))
  in
  let survivors_done () =
    applied_at cluster 1 = applied_at cluster 2
    && List.for_all
         (fun p ->
           let log = payloads p in
           List.for_all (fun c -> List.mem c log) (submitted.(1) @ submitted.(2)))
         [ 1; 2 ]
  in
  ignore (run_until cluster survivors_done);
  let l1 = log_view (Net.Local.cluster_outputs cluster 1) in
  let l2 = log_view (Net.Local.cluster_outputs cluster 2) in
  Alcotest.(check bool) "survivor logs identical" true (l1 = l2);
  List.iteri
    (fun i (slot, _, _, _) -> Alcotest.(check int) "survivor log gapless" i slot)
    l1;
  let keys = List.map (fun (_, o, s, _) -> (o, s)) l1 in
  Alcotest.(check int) "no (origin, seq) applied twice" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* each origin's seq k carries its k-th submission *)
  List.iter
    (fun (_, o, s, c) ->
      Alcotest.(check string) "key matches its payload"
        (Printf.sprintf "p%d-%02d" o s) c)
    l1;
  Alcotest.(check int) "every survivor-origin command applied"
    (List.length submitted.(1) + List.length submitted.(2))
    (List.length (List.filter (fun (_, o, _, _) -> o <> 0) l1))

(* An idle cluster must not burn consensus instances: no commands, no
   ballots, no empty batches nailed into the log. *)
let test_loopback_idle_burns_no_instances () =
  let n = 3 in
  let cluster = Net.Local.create ~window:8 ~n () in
  Net.Local.cluster_run cluster ~rounds:600;
  List.iter
    (fun p ->
      let smr = Net.Smr_node.smr_state (Net.Local.cluster_state cluster p) in
      Alcotest.(check int)
        (Printf.sprintf "node %d touched no instance" p)
        0
        (Cons.Smr.instances_touched smr);
      Alcotest.(check int)
        (Printf.sprintf "node %d applied nothing" p)
        0
        (Cons.Smr.applied smr))
    (Sim.Pid.all n)

(* Out-of-order snapshot install: a batch for instance 1 alone applies
   nothing (the log would have a gap); once instance 0 arrives, both
   emerge in slot order with consecutive indices. *)
let test_install_out_of_order () =
  let proto = Cons.Smr.make ~window:4 () in
  let st = proto.Sim.Protocol.init ~n:3 2 in
  let cmd origin seq payload = { Cons.Smr.origin; seq; payload } in
  let b0 = [ cmd 0 0 "a"; cmd 0 1 "b" ] in
  let b1 = [ cmd 1 0 "c" ] in
  let st, out_of_order = Cons.Smr.install st [ (1, b1) ] in
  Alcotest.(check int) "gapped install applies nothing" 0
    (List.length out_of_order);
  Alcotest.(check int) "nothing applied yet" 0 (Cons.Smr.applied st);
  let st, entries = Cons.Smr.install st [ (0, b0) ] in
  Alcotest.(check int) "both instances drain" 3 (List.length entries);
  Alcotest.(check bool) "entries in slot order" true
    (List.map
       (fun (i, c) -> (i, c.Cons.Smr.origin, c.Cons.Smr.seq, c.Cons.Smr.payload))
       entries
    = [ (0, 0, 0, "a"); (1, 0, 1, "b"); (2, 1, 0, "c") ]);
  Alcotest.(check int) "applied counter advanced" 3 (Cons.Smr.applied st);
  Alcotest.(check int) "two instances applied" 2
    (Cons.Smr.applied_instances st);
  (* idempotent: re-installing either batch is a no-op *)
  let st, dup = Cons.Smr.install st [ (0, b0); (1, b1) ] in
  Alcotest.(check int) "re-install applies nothing" 0 (List.length dup);
  Alcotest.(check int) "counter unchanged" 3 (Cons.Smr.applied st)

(* ------------------------------------------------------------------ *)
(* Receive budget: a node takes at most one frame per step (the paper's
   atomic step), so a frame that cannot change its receiver's state costs
   the protocol a step.  Pinned on deterministic n=3 heartbeat clusters
   with period 16. *)

let test_idle_frame_budget () =
  let cluster = Net.Local.create ~n:3 ~period:16 () in
  Net.Local.cluster_run cluster ~rounds:480;
  let hub = Net.Local.cluster_hub cluster in
  let d0 = Net.Loopback.delivered hub in
  Net.Local.cluster_run cluster ~rounds:320;
  (* per 16-round period each node sends 2 heartbeats and runs one Σ
     join round (2 Joins out, 2 Acks back): 18 frames per period, so
     1.125 per round and 0.375 per node step *)
  Alcotest.(check int) "frames delivered in 320 idle rounds" 360
    (Net.Loopback.delivered hub - d0)

(* One command at [~window:1 ~batch_max:1]: Submit to the 2 peers, then
   one Paxos instance — Prepare, Promise, Propose and Accept 3 frames
   each, Decide 4 (the leader's 2 plus one relay by each learner). *)
let test_one_command_frame_budget origin () =
  let codec = Net.Codecs.pmsg Net.Wire.string_c in
  let submit = ref 0 and decide = ref 0 and paxos = ref 0 in
  let count b =
    match (Net.Wire.decode_envelope_with codec b).Net.Wire.env_msg with
    | Sim.Layered.Main (Cons.Smr.Submit _) -> incr submit
    | Sim.Layered.Main (Cons.Smr.Inner (_, m)) ->
      incr paxos;
      (match m with Cons.Quorum_paxos.Decide _ -> incr decide | _ -> ())
    | Sim.Layered.Detector _ -> ()
  in
  let wrap _ (t : Net.Transport.t) =
    {
      t with
      Net.Transport.send =
        (fun dst b ->
          count b;
          t.Net.Transport.send dst b);
    }
  in
  let cluster =
    Net.Local.create ~n:3 ~period:16 ~window:1 ~batch_max:1 ~wrap ()
  in
  Net.Local.cluster_run cluster ~rounds:480;
  Net.Local.cluster_submit cluster origin "x";
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p = 1) (Sim.Pid.all 3)));
  Net.Local.cluster_run cluster ~rounds:160;
  Alcotest.(check int) "Submit frames" 2 !submit;
  Alcotest.(check int) "Decide frames" 4 !decide;
  Alcotest.(check int) "Paxos frames" 16 !paxos;
  Alcotest.(check int) "main-layer frames" 18 (!submit + !paxos)

(* The Decide relay is the only way a node cut off from the leader learns
   decisions: every frame 0->2 is dropped, so node 2 hears of each
   decision only from node 1's relay (Net.Smr_node has no catch-up). *)
let test_decide_relay_reaches_cut_off_node () =
  let n = 3 and k = 30 in
  let zero_to_two = { Net.Nemesis.src = Some 0; dst = Some 2 } in
  let ctrl = Net.Nemesis.create ~n [ (0, Net.Nemesis.Drop (zero_to_two, 1.0)) ] in
  let cluster =
    Net.Local.create ~n ~window:4 ~batch_max:8
      ~wrap:(fun _ t -> Net.Nemesis.wrap ctrl t)
      ()
  in
  for i = 0 to k - 1 do
    Net.Local.cluster_submit cluster (i mod n) (Printf.sprintf "c%02d" i)
  done;
  ignore
    (run_until cluster (fun () ->
         List.for_all (fun p -> applied_at cluster p >= k) (Sim.Pid.all n)));
  let l0 = log_view (Net.Local.cluster_outputs cluster 0) in
  Alcotest.(check int) "all commands applied" k (List.length l0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "log %d equals log 0" p)
        true
        (log_view (Net.Local.cluster_outputs cluster p) = l0))
    [ 1; 2 ];
  Alcotest.(check bool) "0->2 frames were dropped" true
    ((Net.Nemesis.stats ctrl).Net.Nemesis.n_dropped > 0)

(* ------------------------------------------------------------------ *)
(* Detectors over the loopback transport (satellite: Fd.Emulated       *)
(* hardening asserted on a real message path, not just the simulator)  *)

let test_omega_converges_on_loopback () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.cluster_run cluster ~rounds:500;
  List.iter
    (fun p ->
      let om = Net.Smr_node.omega_state (Net.Local.cluster_state cluster p) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d trusts nobody falsely" p)
        true
        (Sim.Pidset.is_empty (Fd.Emulated.Omega.suspects om)))
    (Sim.Pid.all n)

let test_omega_crash_detection_on_loopback () =
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.cluster_run cluster ~rounds:300;
  Net.Local.cluster_crash cluster 0;
  Net.Local.cluster_run cluster ~rounds:2_000;
  List.iter
    (fun p ->
      let om = Net.Smr_node.omega_state (Net.Local.cluster_state cluster p) in
      Alcotest.(check bool)
        (Printf.sprintf "node %d suspects the crashed node" p)
        true
        (Sim.Pidset.mem 0 (Fd.Emulated.Omega.suspects om)))
    [ 1; 2 ]

let test_omega_timeout_adapts_on_loopback () =
  (* Block node 0's outbound frames long enough to provoke a false
     suspicion at node 1, then unblock: node 1 must re-trust 0, and its
     timeout for 0 must have grown (the adaptation that gives eventual
     accuracy after GST). *)
  let n = 3 in
  let cluster = Net.Local.create ~n () in
  Net.Local.cluster_run cluster ~rounds:300;
  let suspects_0 p =
    Sim.Pidset.mem 0
      (Fd.Emulated.Omega.suspects
         (Net.Smr_node.omega_state (Net.Local.cluster_state cluster p)))
  in
  Alcotest.(check bool) "initially trusted" false (suspects_0 1);
  Net.Loopback.block (Net.Local.cluster_hub cluster) 0;
  ignore (run_until cluster (fun () -> suspects_0 1));
  Net.Loopback.unblock (Net.Local.cluster_hub cluster) 0;
  ignore (run_until cluster (fun () -> not (suspects_0 1)));
  Net.Loopback.block (Net.Local.cluster_hub cluster) 0;
  (* the grown timeout makes the second suspicion strictly later *)
  let r1 = run_until cluster (fun () -> suspects_0 1) in
  ignore r1;
  Net.Loopback.unblock (Net.Local.cluster_hub cluster) 0;
  ignore (run_until cluster (fun () -> not (suspects_0 1)))

let test_sigma_quorums_on_loopback () =
  let n = 5 in
  let cluster = Net.Local.create ~n () in
  Net.Local.cluster_run cluster ~rounds:800;
  let quorums =
    List.map
      (fun pid ->
        let si =
          Net.Smr_node.sigma_state (Net.Local.cluster_state cluster pid)
        in
        Alcotest.(check bool)
          (Printf.sprintf "node %d completed join-quorum rounds" pid)
          true
          (Fd.Emulated.Sigma_majority.rounds si > 0);
        {
          Sim.Trace.time = 800;
          pid;
          value = Fd.Emulated.Sigma_majority.detector.current si;
        })
      (Sim.Pid.all n)
  in
  match
    Fd.Sigma.check (Sim.Failure_pattern.failure_free n) ~horizon:800 quorums
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Tcp transport                                                       *)

let tmp_addr =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Unix.ADDR_UNIX
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "wfd-test-%d-%d.sock" (Unix.getpid ()) !counter))

let test_tcp_pair () =
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  let t1 = Net.Tcp.create ~self:1 ~addrs () in
  let sent = List.init 20 (fun i -> Printf.sprintf "msg-%d" i) in
  List.iter (fun m -> t0.Net.Transport.send 1 (Bytes.of_string m)) sent;
  let received = ref [] in
  let deadline = Unix.gettimeofday () +. 5. in
  while List.length !received < 20 && Unix.gettimeofday () < deadline do
    (* both ends must pump their event loops *)
    ignore (t0.Net.Transport.poll ~timeout_ms:10);
    match t1.Net.Transport.poll ~timeout_ms:10 with
    | Some (src, frame) -> received := (src, Bytes.to_string frame) :: !received
    | None -> ()
  done;
  let received = List.rev !received in
  Alcotest.(check bool) "all frames arrive in order from 0" true
    (received = List.map (fun m -> (0, m)) sent);
  t0.Net.Transport.close ();
  t1.Net.Transport.close ()

let test_tcp_self_send () =
  let addrs = [| tmp_addr () |] in
  let t = Net.Tcp.create ~self:0 ~addrs () in
  t.Net.Transport.send 0 (Bytes.of_string "loop");
  (match t.Net.Transport.poll ~timeout_ms:0 with
  | Some (0, b) -> Alcotest.(check string) "self frame" "loop" (Bytes.to_string b)
  | _ -> Alcotest.fail "self-send not delivered");
  t.Net.Transport.close ()

(* A malformed hello — here the marshalled int a Marshal decoder crashes
   on — closes that connection only; the node keeps taking peers. *)
let test_tcp_bad_hello () =
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  let raw =
    Unix.socket (Unix.domain_of_sockaddr addrs.(0)) Unix.SOCK_STREAM 0
  in
  Unix.connect raw addrs.(0);
  Net.Wire.write_frame raw marshalled_int;
  Unix.set_nonblock raw;
  let buf = Bytes.create 64 in
  let closed = ref false in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not !closed) && Unix.gettimeofday () < deadline do
    ignore (t0.Net.Transport.poll ~timeout_ms:10);
    match Unix.read raw buf 0 64 with
    | 0 | (exception Unix.Unix_error (ECONNRESET, _, _)) -> closed := true
    | _ -> Alcotest.fail "a malformed hello was answered"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  done;
  Unix.close raw;
  Alcotest.(check bool) "the offending connection is closed" true !closed;
  let t1 = Net.Tcp.create ~self:1 ~addrs () in
  t1.Net.Transport.send 0 (Bytes.of_string "after");
  let got = ref None in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got = None && Unix.gettimeofday () < deadline do
    ignore (t1.Net.Transport.poll ~timeout_ms:10);
    got := t0.Net.Transport.poll ~timeout_ms:10
  done;
  Alcotest.(check (option (pair int string)))
    "a well-formed peer still gets through" (Some (1, "after"))
    (Option.map (fun (src, b) -> (src, Bytes.to_string b)) !got);
  t0.Net.Transport.close ();
  t1.Net.Transport.close ()

let test_tcp_reconnect () =
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  (* peer 1 not up yet: frames queue, peer goes down, stats notice *)
  t0.Net.Transport.send 1 (Bytes.of_string "early");
  let pump t ms = ignore (t.Net.Transport.poll ~timeout_ms:ms) in
  pump t0 30;
  pump t0 30;
  Alcotest.(check bool) "peer 1 reported down before it exists" true
    (Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down);
  (* bring peer 1 up: the queued frame must arrive (reconnect + flush) *)
  let t1 = Net.Tcp.create ~self:1 ~addrs () in
  let got = ref None in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got = None && Unix.gettimeofday () < deadline do
    pump t0 10;
    match t1.Net.Transport.poll ~timeout_ms:10 with
    | Some (src, b) -> got := Some (src, Bytes.to_string b)
    | None -> ()
  done;
  Alcotest.(check (option (pair int string)))
    "frame queued while down arrives after connect" (Some (0, "early")) !got;
  (* [down] clears only once the hello-ack completes the handshake, which
     may trail the first frame delivery by a pump or two *)
  let deadline = Unix.gettimeofday () +. 5. in
  while
    Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down
    && Unix.gettimeofday () < deadline
  do
    pump t0 10;
    pump t1 10
  done;
  Alcotest.(check bool) "peer 1 no longer down" true
    (not (Sim.Pidset.mem 1 (t0.Net.Transport.stats ()).Net.Transport.down));
  t0.Net.Transport.close ();
  t1.Net.Transport.close ()

let test_tcp_backoff_needs_handshake () =
  (* Regression: reconnect backoff used to reset on any successful
     [connect], even if the hello handshake then failed — an accepting
     listener that drops connections turned the dialer into a tight
     reconnect loop.  Backoff now resets only on a completed hello/
     hello-ack exchange, so against an accept-and-close listener the
     attempt count over a fixed window stays logarithmic (the buggy
     dialer retried every [backoff_min] = 50ms, ~20+ attempts in 1.2s;
     the fixed one doubles 0.05 → 0.1 → 0.2 → ..., ~5). *)
  let addrs = [| tmp_addr (); tmp_addr () |] in
  let lfd = Unix.socket (Unix.domain_of_sockaddr addrs.(1)) Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  Unix.bind lfd addrs.(1);
  Unix.listen lfd 16;
  let t0 = Net.Tcp.create ~self:0 ~addrs () in
  t0.Net.Transport.send 1 (Bytes.of_string "probe");
  let attempts = ref 0 in
  let deadline = Unix.gettimeofday () +. 1.2 in
  while Unix.gettimeofday () < deadline do
    ignore (t0.Net.Transport.poll ~timeout_ms:5);
    let continue = ref true in
    while !continue do
      match Unix.accept lfd with
      | fd, _ ->
        incr attempts;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    done
  done;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  t0.Net.Transport.close ();
  Alcotest.(check bool)
    (Printf.sprintf "backoff grows without a handshake (%d attempts)"
       !attempts)
    true
    (!attempts >= 2 && !attempts <= 8)

(* ------------------------------------------------------------------ *)
(* ARQ edge cases on the deterministic hub                             *)

(* [Net.Rel] driven directly over [Net.Det]: each scenario scripts a
   hub fault and a fixed scheduler resolves every delivery pick, so
   the runs are deterministic and replayable by construction — the
   reorder case records its choices and replays them to prove it.
   These are the frame-level edge cases [Mc.Net_harness] explores
   exhaustively, pinned here as unit tests with the Rel counters
   asserted. *)

let det_rel_pair ?reorder ?(resend_every = 64) ~sched () =
  let hub = Net.Det.create ?reorder ~n:2 ~sched () in
  let r0 = Net.Rel.wrap ~resend_every (Net.Det.endpoint hub 0) in
  let r1 = Net.Rel.wrap ~resend_every (Net.Det.endpoint hub 1) in
  (hub, r0, r1)

let drain_rel tr =
  let rec go acc =
    match tr.Net.Transport.poll ~timeout_ms:0 with
    | None -> List.rev acc
    | Some (src, b) -> go ((src, Bytes.to_string b) :: acc)
  in
  go []

let deliveries = Alcotest.(list (pair int string))

(* A duplicated data frame: both copies enqueue, the receiver's
   delivery cursor filters the second. *)
let test_det_dup_data_filtered () =
  let hub, r0, r1 = det_rel_pair ~sched:Sim.Scheduler.first () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  Net.Det.dup_next hub 0;
  t0.Net.Transport.send 1 (Bytes.of_string "once");
  Alcotest.check deliveries "delivered exactly once" [ (0, "once") ]
    (drain_rel t1);
  Alcotest.(check bool) "duplicate filtered" true
    ((Net.Rel.stats r1).Net.Rel.dup_filtered >= 1);
  ignore (drain_rel t0)

(* A duplicated cumulative ack: processing it twice must be idempotent
   — the sender's unacked queue drains and the link keeps working. *)
let test_det_dup_ack_flood () =
  let hub, r0, r1 = det_rel_pair ~sched:Sim.Scheduler.first () in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  t0.Net.Transport.send 1 (Bytes.of_string "pay");
  Net.Det.dup_next hub 1 (* the receiver's next outbound frame: its ack *);
  Alcotest.check deliveries "payload delivered once" [ (0, "pay") ]
    (drain_rel t1);
  ignore (drain_rel t0) (* both ack copies processed *);
  Alcotest.(check int) "unacked drained by the duplicated ack" 0
    (Net.Rel.stats r0).Net.Rel.unacked;
  t0.Net.Transport.send 1 (Bytes.of_string "after");
  Alcotest.check deliveries "link still in order afterwards"
    [ (0, "after") ] (drain_rel t1)

(* A retransmission racing its late original: the link blocks before
   the first send, the sender's resend scan fires while the ack cannot
   come back, then unblock releases original and resend back to back —
   the receiver must deliver once and filter the straggler. *)
let test_det_resend_races_blocked_original () =
  let hub, r0, r1 =
    det_rel_pair ~resend_every:2 ~sched:Sim.Scheduler.first ()
  in
  let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
  Net.Det.block hub 0;
  t0.Net.Transport.send 1 (Bytes.of_string "m0");
  (* unackable: polling p0 ticks the resend clock until the scan
     retransmits (the copy is held behind the original) *)
  let rec tick k =
    if k > 0 && (Net.Rel.stats r0).Net.Rel.retransmits = 0 then begin
      ignore (t0.Net.Transport.poll ~timeout_ms:0);
      tick (k - 1)
    end
  in
  tick 8;
  Alcotest.(check bool) "resend scan fired while blocked" true
    ((Net.Rel.stats r0).Net.Rel.retransmits >= 1);
  Net.Det.unblock hub 0;
  Alcotest.check deliveries "delivered exactly once after unblock"
    [ (0, "m0") ] (drain_rel t1);
  Alcotest.(check bool) "retransmitted copy filtered" true
    ((Net.Rel.stats r1).Net.Rel.dup_filtered >= 1);
  ignore (drain_rel t0);
  Alcotest.(check int) "ack finally drains the sender" 0
    (Net.Rel.stats r0).Net.Rel.unacked

(* Frame reordering: with [reorder:true] the scheduler can deliver a
   link's newer frame first; Rel buffers it and releases in sequence
   order.  The choice list is recorded and replayed to show the
   scenario is a replayable seed, not a fluke of the driver. *)
let test_det_reorder_resequenced_and_replayed () =
  let run sched =
    let hub, r0, r1 = det_rel_pair ~reorder:true ~sched () in
    ignore hub;
    let t0 = Net.Rel.transport r0 and t1 = Net.Rel.transport r1 in
    t0.Net.Transport.send 1 (Bytes.of_string "a");
    t0.Net.Transport.send 1 (Bytes.of_string "b");
    let got = drain_rel t1 in
    ignore (drain_rel t0);
    (got, (Net.Rel.stats r1).Net.Rel.resequenced)
  in
  (* always pick the newest pending frame: #1 overtakes #0 *)
  let newest =
    Sim.Scheduler.of_fun (function
      | Sim.Scheduler.Deliver_pick { candidates; _ } ->
        List.length candidates - 1
      | _ -> 0)
  in
  let sched, choices = Sim.Scheduler.recording newest in
  let got, reseq = run sched in
  Alcotest.check deliveries "in order despite frame reordering"
    [ (0, "a"); (0, "b") ] got;
  Alcotest.(check bool) "out-of-order frame was buffered" true (reseq >= 1);
  let seed = choices () in
  Alcotest.(check bool) "the run actually made delivery choices" true
    (seed <> []);
  let got', reseq' =
    run (Sim.Scheduler.replay seed ~rest:Sim.Scheduler.first)
  in
  Alcotest.check deliveries "replayed seed reproduces the deliveries" got
    got';
  Alcotest.(check int) "replayed seed reproduces the resequencing" reseq
    reseq'

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "decoder reassembles chunked frames" `Quick
            test_decoder_reassembles;
          Alcotest.test_case "writer: backpressure tears no frame" `Quick
            test_writer_backpressure;
          Alcotest.test_case "envelope round-trip" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "envelope: future version refused" `Quick
            test_envelope_version_rejected;
          Alcotest.test_case "envelope: truncation refused" `Quick
            test_envelope_truncation_rejected;
          Alcotest.test_case "hello" `Quick test_hello;
          Alcotest.test_case "oversized frames refused at the header" `Quick
            test_decoder_frame_cap;
          QCheck_alcotest.to_alcotest prop_decoder_roundtrip;
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          QCheck_alcotest.to_alcotest prop_smr_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_pmsg_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_replica_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_socket_decoders_total;
          QCheck_alcotest.to_alcotest prop_shard_frames_roundtrip;
          Alcotest.test_case "shard: client frames keep their bytes" `Quick
            test_shard_request_bytes;
        ] );
      ( "loopback-smr",
        [
          Alcotest.test_case "three replicas agree" `Quick
            test_loopback_agreement;
          Alcotest.test_case "agreement survives a crash" `Quick
            test_loopback_crash;
        ] );
      ( "batching-pipelining",
        [
          Alcotest.test_case "pipelined window: gapless identical logs"
            `Quick test_loopback_pipelined_agreement;
          Alcotest.test_case "batch at crash boundary applies exactly once"
            `Quick test_loopback_batch_crash_boundary;
          Alcotest.test_case "multi-origin exactly once across failover"
            `Quick test_loopback_multi_origin_exactly_once;
          Alcotest.test_case "idle ticks burn no instances" `Quick
            test_loopback_idle_burns_no_instances;
          Alcotest.test_case "out-of-order install applies in slot order"
            `Quick test_install_out_of_order;
        ] );
      ( "receive-budget",
        [
          Alcotest.test_case "idle cluster: 1.125 frames per round" `Quick
            test_idle_frame_budget;
          Alcotest.test_case "one command at the leader: 18 frames" `Quick
            (test_one_command_frame_budget 0);
          Alcotest.test_case "one command at a follower: 18 frames" `Quick
            (test_one_command_frame_budget 1);
          Alcotest.test_case "decide relay reaches a cut-off node" `Quick
            test_decide_relay_reaches_cut_off_node;
        ] );
      ( "detectors-on-loopback",
        [
          Alcotest.test_case "omega: no false suspicion at steady state"
            `Quick test_omega_converges_on_loopback;
          Alcotest.test_case "omega: crash detected" `Quick
            test_omega_crash_detection_on_loopback;
          Alcotest.test_case "omega: timeout adapts across false suspicion"
            `Quick test_omega_timeout_adapts_on_loopback;
          Alcotest.test_case "sigma: rounds complete, quorums intersect"
            `Quick test_sigma_quorums_on_loopback;
        ] );
      ( "det-rel-arq",
        [
          Alcotest.test_case "duplicate data frame filtered" `Quick
            test_det_dup_data_filtered;
          Alcotest.test_case "duplicate-ack flood is idempotent" `Quick
            test_det_dup_ack_flood;
          Alcotest.test_case "resend races its blocked original" `Quick
            test_det_resend_races_blocked_original;
          Alcotest.test_case "reorder resequenced; seed replays" `Quick
            test_det_reorder_resequenced_and_replayed;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "ordered delivery between two endpoints" `Quick
            test_tcp_pair;
          Alcotest.test_case "self send" `Quick test_tcp_self_send;
          Alcotest.test_case "queue while down, flush on connect" `Quick
            test_tcp_reconnect;
          Alcotest.test_case "backoff resets only on completed handshake"
            `Quick test_tcp_backoff_needs_handshake;
          Alcotest.test_case "a malformed hello closes its connection"
            `Quick test_tcp_bad_hello;
        ] );
    ]
