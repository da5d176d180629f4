(* One listening socket; one outbound connection per peer, opened lazily
   and re-opened with exponential backoff; inbound connections identified
   by their hello frame.  Everything is non-blocking and single-threaded:
   [poll] runs a poll(2) loop (Net.Poll — no FD_SETSIZE ceiling, indexed
   result harvesting) until a frame arrives or the timeout elapses, and
   [send] only enqueues. *)

let backoff_min = 0.05
let backoff_max = 2.0

(* Per-peer outbound bytes; a frame past the cap is dropped. *)
let queue_cap = 4 * 1024 * 1024

type out_state =
  | Down of { mutable next_try : float }
  | Connecting of Unix.file_descr
  | Up of Unix.file_descr

type peer = {
  mutable conn : out_state;
  mutable backoff : float;  (* delay before the next connect attempt *)
  mutable ever_up : bool;  (* distinguishes reconnects from first connects *)
  mutable failed : bool;  (* a connect/write has failed since last Up *)
  mutable acked : bool;  (* the peer's hello-ack arrived on this conn *)
  mutable dec : Wire.Decoder.t;  (* read side of the outbound conn *)
  out : Wire.Writer.t;  (* frames for the peer, across reconnects *)
}

type in_conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  mutable peer : Sim.Pid.t option;  (* None until the hello frame *)
}

type t = {
  self : Sim.Pid.t;
  n : int;
  addrs : Unix.sockaddr array;
  listen_fd : Unix.file_descr;
  pl : Poll.t;
  peers : peer array;  (* index self unused *)
  mutable inbound : in_conn list;
  ready : (Sim.Pid.t * bytes) Queue.t;  (* decoded, undelivered frames *)
  rbuf : bytes;
  mutable sent : int;
  mutable delivered : int;
  mutable reconnects : int;
  mutable dropped : int;
}

let now () = Unix.gettimeofday ()

let new_peer () =
  {
    conn = Down { next_try = 0. };
    backoff = backoff_min;
    ever_up = false;
    failed = false;
    acked = false;
    dec = Wire.Decoder.create ();
    out = Wire.Writer.create ();
  }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Connection lost (or never made): back off, and rewind the partially
   written head frame so the next connection resends it whole. *)
let mark_down t q =
  let p = t.peers.(q) in
  (match p.conn with
  | Connecting fd | Up fd -> close_quiet fd
  | Down _ -> ());
  p.failed <- true;
  p.acked <- false;
  Wire.Writer.rewind p.out;
  p.conn <- Down { next_try = now () +. p.backoff };
  p.backoff <- Float.min backoff_max (p.backoff *. 2.)

(* Connect succeeded: write the hello whole (it is tiny, so a fresh
   connection's socket buffer takes it — if not, the connection goes
   down and the dialer backs off), but the handshake is not complete
   until the acceptor's hello-ack arrives ([mark_acked]).  In particular
   the backoff does NOT reset here — a listener that accepts connections
   and then rejects the hello must keep meeting exponential delays, not a
   tight reconnect loop. *)
let mark_up t q fd =
  let p = t.peers.(q) in
  p.acked <- false;
  p.dec <- Wire.Decoder.create ();
  p.conn <- Up fd;
  try Wire.write_frame fd (Wire.hello ~self:t.self)
  with Unix.Unix_error _ -> mark_down t q

let mark_acked t q =
  let p = t.peers.(q) in
  if p.ever_up then t.reconnects <- t.reconnects + 1;
  p.ever_up <- true;
  p.failed <- false;
  p.acked <- true;
  p.backoff <- backoff_min

(* Start a non-blocking connect if the backoff window has passed. *)
let try_connect t q =
  let p = t.peers.(q) in
  match p.conn with
  | Connecting _ | Up _ -> ()
  | Down d when d.next_try > now () -> ()
  | Down _ -> (
    let dom = Unix.domain_of_sockaddr t.addrs.(q) in
    let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    match Unix.connect fd t.addrs.(q) with
    | () -> mark_up t q fd
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
      ->
      p.conn <- Connecting fd
    | exception Unix.Unix_error (_, _, _) ->
      close_quiet fd;
      mark_down t q)

(* Drain the write side of an Up connection as far as the kernel accepts. *)
let flush_peer t q =
  let p = t.peers.(q) in
  match p.conn with
  | Down _ | Connecting _ -> ()
  | Up fd -> (
    try Wire.Writer.flush p.out fd with Unix.Unix_error _ -> mark_down t q)

(* Queue [payload]'s frame, its 4-byte length prefix included, unless
   the peer's queue would pass the cap. *)
let enqueue t q payload =
  let out = t.peers.(q).out in
  if Wire.Writer.bytes out + 4 + Bytes.length payload > queue_cap then
    t.dropped <- t.dropped + 1
  else Wire.Writer.push out payload

let handle_readable t ic =
  let rec drain () =
    match Unix.read ic.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> false (* EOF *)
    | nread ->
      Wire.Decoder.feed ic.dec t.rbuf nread;
      let ok = ref true in
      let continue = ref true in
      while !continue do
        match Wire.Decoder.next ic.dec with
        | None -> continue := false
        | Some frame -> (
          match ic.peer with
          | Some src -> Queue.push (src, frame) t.ready
          | None -> (
            match Wire.parse_hello frame with
            | Ok src when Sim.Pid.valid ~n:t.n src -> (
              ic.peer <- Some src;
              (* complete the handshake; the ack is tiny, so a fresh
                 connection's socket buffer takes it whole — if not, drop
                 the connection and let the dialer back off and retry *)
              try Wire.write_frame ic.fd (Wire.hello_ack ~self:t.self)
              with Unix.Unix_error _ ->
                ok := false;
                continue := false)
            | Ok _ | Error _ ->
              ok := false;
              continue := false))
      done;
      !ok && (if nread = Bytes.length t.rbuf then drain () else true)
  in
  (* [false]: EOF or a bad hello — close this connection *)
  match drain () with
  | keep -> keep
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
  | exception Unix.Unix_error (_, _, _) -> false
  (* an oversized length prefix condemns this connection only: close it,
     leave every other connection and the node itself untouched *)
  | exception Wire.Frame_too_large _ -> false

(* One pass of connection management + poll(2).  Returns after at most
   [timeout] seconds. *)
let step t ~timeout =
  for q = 0 to t.n - 1 do
    if q <> t.self then begin
      try_connect t q;
      flush_peer t q
    end
  done;
  Poll.clear t.pl;
  let i_listen = Poll.add t.pl t.listen_fd ~read:true ~write:false in
  let inbound_idx =
    List.map (fun ic -> (Poll.add t.pl ic.fd ~read:true ~write:false, ic))
      t.inbound
  in
  let soonest = ref timeout in
  let peer_idx = Array.make t.n (-1) in
  for q = 0 to t.n - 1 do
    if q <> t.self then begin
      let p = t.peers.(q) in
      match p.conn with
      | Connecting fd ->
        peer_idx.(q) <- Poll.add t.pl fd ~read:false ~write:true
      | Up fd ->
        (* read side to notice EOF / reset (and the hello-ack) promptly;
           write side only while there is something queued *)
        peer_idx.(q) <-
          Poll.add t.pl fd ~read:true ~write:(Wire.Writer.pending p.out)
      | Down d ->
        let dt = d.next_try -. now () in
        if dt > 0. && dt < !soonest then soonest := dt
    end
  done;
  let timeout_ms =
    int_of_float (Float.ceil (Float.max 0. !soonest *. 1000.))
  in
  match Poll.wait t.pl ~timeout_ms with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | _nready ->
    (* finish / progress outbound connections *)
    for q = 0 to t.n - 1 do
      if q <> t.self && peer_idx.(q) >= 0 then begin
        let p = t.peers.(q) in
        let i = peer_idx.(q) in
        (match p.conn with
        | Connecting fd when Poll.writable t.pl i -> (
          match Unix.getsockopt_error fd with
          | None -> mark_up t q fd
          | Some _ -> mark_down t q)
        | Up _ when Poll.writable t.pl i -> flush_peer t q
        | _ -> ());
        (match p.conn with
        | Up fd when Poll.readable t.pl i -> (
          (* the only legitimate traffic on an outbound conn is the
             acceptor's single hello-ack; anything else (or EOF) means the
             connection died *)
          match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
          | 0 -> mark_down t q
          | nread -> (
            try
              Wire.Decoder.feed p.dec t.rbuf nread;
              let continue = ref true in
              while !continue do
                match Wire.Decoder.next p.dec with
                | None -> continue := false
                | Some frame -> (
                  match Wire.parse_hello_ack frame with
                  | Ok peer when peer = q && not p.acked -> mark_acked t q
                  | Ok _ | Error _ ->
                    mark_down t q;
                    continue := false)
              done
            with Wire.Frame_too_large _ -> mark_down t q)
          | exception
              Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ()
          | exception Unix.Unix_error (_, _, _) -> mark_down t q)
        | _ -> ())
      end
    done;
    (* accept new inbound connections *)
    let fresh = ref [] in
    if Poll.readable t.pl i_listen then begin
      let continue = ref true in
      while !continue do
        match Unix.accept t.listen_fd with
        | fd, _ ->
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          fresh := { fd; dec = Wire.Decoder.create (); peer = None } :: !fresh
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          continue := false
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> continue := false
      done
    end;
    (* read inbound connections that polled readable *)
    let survivors =
      List.filter_map
        (fun (i, ic) ->
          if Poll.readable t.pl i then
            if handle_readable t ic then Some ic
            else begin
              close_quiet ic.fd;
              None
            end
          else Some ic)
        inbound_idx
    in
    t.inbound <- !fresh @ survivors

let create ~self ~addrs () =
  (* a write to a reset connection must surface as EPIPE, not kill us *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  let n = Array.length addrs in
  (match addrs.(self) with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let listen_fd =
    Unix.socket (Unix.domain_of_sockaddr addrs.(self)) Unix.SOCK_STREAM 0
  in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd addrs.(self);
  Unix.listen listen_fd 64;
  let t =
    {
      self;
      n;
      addrs;
      listen_fd;
      pl = Poll.create ();
      peers = Array.init n (fun _ -> new_peer ());
      inbound = [];
      ready = Queue.create ();
      rbuf = Bytes.create 65536;
      sent = 0;
      delivered = 0;
      reconnects = 0;
      dropped = 0;
    }
  in
  let send dst payload =
    if Sim.Pid.valid ~n dst then begin
      t.sent <- t.sent + 1;
      if dst = t.self then Queue.push (t.self, payload) t.ready
      else enqueue t dst payload
    end
  in
  let poll ~timeout_ms =
    let deadline = now () +. (float_of_int timeout_ms /. 1000.) in
    let rec loop () =
      match Queue.take_opt t.ready with
      | Some (src, frame) ->
        t.delivered <- t.delivered + 1;
        Some (src, frame)
      | None ->
        let remaining = deadline -. now () in
        if remaining < 0. && timeout_ms > 0 then None
        else begin
          step t ~timeout:(Float.max 0. remaining);
          if timeout_ms = 0 then
            (* single pass *)
            match Queue.take_opt t.ready with
            | Some (src, frame) ->
              t.delivered <- t.delivered + 1;
              Some (src, frame)
            | None -> None
          else loop ()
        end
    in
    loop ()
  in
  let stats () =
    let down = ref [] in
    for q = 0 to n - 1 do
      if q <> t.self && t.peers.(q).failed then down := q :: !down
    done;
    {
      Transport.sent = t.sent;
      delivered = t.delivered;
      reconnects = t.reconnects;
      dropped = t.dropped;
      down = Sim.Pidset.of_list !down;
    }
  in
  let close () =
    close_quiet t.listen_fd;
    List.iter (fun ic -> close_quiet ic.fd) t.inbound;
    t.inbound <- [];
    Array.iter
      (fun p ->
        match p.conn with
        | Connecting fd | Up fd -> close_quiet fd
        | Down _ -> ())
      t.peers;
    match addrs.(self) with
    | Unix.ADDR_UNIX path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  { Transport.self; n; send; poll; stats; close }
