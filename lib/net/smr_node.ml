module Omega = Fd.Emulated.Omega
module Sigma = Fd.Emulated.Sigma_majority

type 'c pstate = (Omega.state * Sigma.state) * 'c Cons.Smr.state

type 'c pmsg =
  ((Omega.msg, Sigma.msg) Sim.Layered.wire, 'c Cons.Smr.msg) Sim.Layered.wire

(* Σ is always paced: a stale quorum is still a majority, which is all
   Σ's spec asks, and every join round Σ does not need costs receive
   steps the protocol does need (one frame per step).  Under heartbeat Ω
   one join round per heartbeat period; under the ring, with Ω down to
   one frame per process per period, every 4 periods, so the whole
   detector stack stays ~O(n) per round. *)
let default_sigma_period ~detector ~period =
  match detector with Omega.Heartbeat -> period | Omega.Ring -> 4 * period

let protocol ?window ?batch_max ?(detector = Omega.Heartbeat) ~period () =
  Sim.Layered.with_detector
    (Sim.Layered.pair
       (Omega.detector ~kind:detector ~period)
       (Sigma.detector_paced
          ~period:(default_sigma_period ~detector ~period)))
    (Cons.Smr.make ?window ?batch_max ())

let smr_state ((_, smr) : 'c pstate) = smr
let omega_state (((om, _), _) : 'c pstate) = om
let sigma_state (((_, si), _) : 'c pstate) = si

(* Which detector series a delivered frame belongs to, for the
   [fd.frames{detector=...}] labeled counters (Node's [classify] hook). *)
let classify = function
  | Sim.Layered.Detector (Sim.Layered.Detector (Omega.H _)) -> Some "heartbeat"
  | Sim.Layered.Detector (Sim.Layered.Detector (Omega.R _)) -> Some "ring"
  | Sim.Layered.Detector (Sim.Layered.Main _) -> Some "sigma"
  | Sim.Layered.Main _ -> None

type config = {
  self : Sim.Pid.t;
  addrs : Unix.sockaddr array;
  client_addr : Unix.sockaddr;
  period : int;
  detector : Omega.kind;
  window : int;
  batch_max : int;
  tick_s : float;
  log_path : string option;
  trace_path : string option;
}

let default_config ~self ~addrs ~client_addr =
  {
    self;
    addrs;
    client_addr;
    period = 16;
    detector = Omega.Heartbeat;
    window = 16;
    batch_max = 1024;
    tick_s = 1e-3;
    log_path = None;
    trace_path = None;
  }

type client = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  out : Wire.Writer.t;  (* replies the kernel has not taken yet *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* What a node process needs to serve any protocol with an SMR-shaped
   component: the automaton itself plus its wire codec, where its SMR
   state is (for the submission/application counters), how to render a
   command's payload in the applied log, a projection from outputs to
   decided (slot, cmd) entries (for protocols — like the
   mixed-consistency node — whose output type carries more than
   decisions), and how to turn a client frame into an SMR submission, a
   synchronous local input (the eventual path), or an immediate reply.
   The wire/input/output types are existential — the event loop never
   looks inside; the codec travels with the protocol it encodes. *)
type ('st, 'c) impl =
  | Impl : {
      proto : ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t;
      codec : 'msg Wire.codec;
      smr : 'st -> 'c Cons.Smr.state;
      show : 'c -> string;
      decided : 'out -> (int * 'c Cons.Smr.cmd) option;
      submit : 'c -> 'inp;
      on_request :
        state:(unit -> 'st) ->
        inject:('inp -> unit) ->
        bytes ->
        [ `Submit of 'c | `Reply of bytes ];
    }
      -> ('st, 'c) impl

(* Decided-submission replies are binary: varint seq, varint slot. *)
let encode_reply buf ~seq ~slot =
  Buffer.clear buf;
  Wire.W.varint buf seq;
  Wire.W.varint buf slot;
  Buffer.to_bytes buf

let decode_reply frame =
  let r = Wire.R.make frame ~pos:0 ~len:(Bytes.length frame) in
  let seq = Wire.R.varint r in
  let slot = Wire.R.varint r in
  Wire.R.expect_end r;
  (seq, slot)

(* The applied log has one line per decided slot: slot, origin, seq and
   the escaped payload, tab-separated.  [String.escaped] leaves no tab or
   newline in the payload field. *)
let log_line ~show slot (cmd : _ Cons.Smr.cmd) =
  Printf.sprintf "%d\t%d\t%d\t%s" slot cmd.origin cmd.seq
    (String.escaped (show cmd.payload))

let log_payload line =
  match String.split_on_char '\t' line with
  | [ _; _; _; p ] -> Some p
  | _ -> None

(* Steps a busy node takes back-to-back, polling without a timeout,
   before it waits a tick again. *)
let max_burst = 64

let serve (type st c) (Impl impl : (st, c) impl) cfg =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let collector =
    match cfg.trace_path with
    | None -> None
    | Some _ -> Some (Obs.Collector.create ())
  in
  let sink = Option.map (fun c -> c.Obs.Collector.sink) collector in
  let transport = Tcp.create ~self:cfg.self ~addrs:cfg.addrs () in
  let node =
    Node.create ?sink ~track_vc:(sink <> None)
      ~render_out:(fun o ->
        match impl.decided o with
        | Some (slot, _) -> Printf.sprintf "slot=%d" slot
        | None -> "ec")
      ~codec:impl.codec ~transport impl.proto
  in
  (* client listener *)
  (match cfg.client_addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let listen_fd =
    Unix.socket (Unix.domain_of_sockaddr cfg.client_addr) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd cfg.client_addr;
  Unix.listen listen_fd 256;
  let clients = ref [] in
  let pending : (int, client) Hashtbl.t = Hashtbl.create 64 in
  let next_seq = ref (Cons.Smr.submitted (impl.smr (Node.state node))) in
  let log_oc = Option.map open_out cfg.log_path in
  let rbuf = Bytes.create 65536 in
  let rebuf = Buffer.create 32 in
  let accept_clients () =
    let continue = ref true in
    while !continue do
      match Unix.accept listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        clients :=
          { fd; dec = Wire.Decoder.create (); out = Wire.Writer.create () }
          :: !clients
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> continue := false
    done
  in
  let read_client c =
    (* true to keep the connection *)
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> false
    | nread -> (
      (* an oversized frame from one client closes that client's
         connection only (Wire.Frame_too_large is raised before any
         frame-sized allocation) *)
      try
        Wire.Decoder.feed c.dec rbuf nread;
        let continue = ref true in
        while !continue do
          match Wire.Decoder.next c.dec with
          | None -> continue := false
          | Some frame -> (
            match
              impl.on_request
                ~state:(fun () -> Node.state node)
                ~inject:(Node.apply_input node) frame
            with
            | `Submit payload ->
              let seq = !next_seq in
              incr next_seq;
              Hashtbl.replace pending seq c;
              Node.inject node (impl.submit payload)
            | `Reply bytes -> Wire.Writer.push c.out bytes)
        done;
        true
      with Wire.Frame_too_large _ | Wire.Decode_error _ -> false)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
    | exception Unix.Unix_error (_, _, _) -> false
    | exception _ -> false
  in
  let handle_outputs () =
    List.iter
      (fun out ->
        match impl.decided out with
        | None -> ()
        | Some (slot, cmd) -> (
          (match log_oc with
          | None -> ()
          | Some oc ->
            output_string oc (log_line ~show:impl.show slot cmd);
            output_char oc '\n';
            flush oc);
          if cmd.Cons.Smr.origin = cfg.self then
            match Hashtbl.find_opt pending cmd.Cons.Smr.seq with
            | None -> ()
            | Some c ->
              Hashtbl.remove pending cmd.Cons.Smr.seq;
              Wire.Writer.push c.out
                (encode_reply rebuf ~seq:cmd.Cons.Smr.seq ~slot)))
      (Node.drain_outputs node)
  in
  let tick_ms = int_of_float (Float.max 1. (cfg.tick_s *. 1000.)) in
  let burst = ref 0 in
  while not !stop do
    let timeout_ms = if !burst > 0 then 0 else tick_ms in
    (match Node.step node ~timeout_ms with
    | busy -> if busy && !burst < max_burst then incr burst else burst := 0
    | exception Unix.Unix_error (EINTR, _, _) -> ());
    handle_outputs ();
    accept_clients ();
    (* a client is closed on EOF, a bad frame or a failed write; a full
       socket only holds its replies back until a later iteration *)
    clients :=
      List.filter
        (fun c ->
          if
            read_client c
            && match Wire.Writer.flush c.out c.fd with
               | () -> true
               | exception Unix.Unix_error _ -> false
          then true
          else begin
            close_quiet c.fd;
            false
          end)
        !clients
  done;
  (* clean shutdown *)
  (match (collector, cfg.trace_path) with
  | Some c, Some path ->
    Obs.Jsonl.write_run ~path
      ~meta:
        [
          ("kind", "net-node");
          ("self", string_of_int cfg.self);
          ("n", string_of_int (Array.length cfg.addrs));
          ("period", string_of_int cfg.period);
          ("detector", Omega.kind_name cfg.detector);
          ("window", string_of_int cfg.window);
          ("steps", string_of_int (Node.now node));
        ]
      c
  | _ -> ());
  let st = transport.Transport.stats () in
  Printf.eprintf
    "node %d: steps=%d applied=%d sent=%d delivered=%d reconnects=%d \
     dropped=%d\n%!"
    cfg.self (Node.now node)
    (Cons.Smr.applied (impl.smr (Node.state node)))
    st.Transport.sent st.Transport.delivered st.Transport.reconnects
    st.Transport.dropped;
  Option.iter close_out log_oc;
  List.iter (fun c -> close_quiet c.fd) !clients;
  close_quiet listen_fd;
  (match cfg.client_addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  transport.Transport.close ()

(* The string-command node is the trivial instantiation on the full
   binary tower: every client frame is one raw command payload, shown as
   itself in the log. *)
let string_impl cfg : (string pstate, string) impl =
  Impl
    {
      proto =
        protocol ~window:cfg.window ~batch_max:cfg.batch_max
          ~detector:cfg.detector ~period:cfg.period ();
      codec = Codecs.pmsg Wire.string_c;
      smr = smr_state;
      show = Fun.id;
      decided = (fun out -> Some out);
      submit = (fun c -> c);
      on_request =
        (fun ~state:_ ~inject:_ frame -> `Submit (Bytes.to_string frame));
    }
