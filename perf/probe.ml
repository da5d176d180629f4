(* The traced run's instruments: timers and counters placed from outside
   around the public entry points of each layer.  A wrapped protocol,
   codec or transport behaves exactly like the bare one; only the
   accumulators below see the difference. *)

open Common

(* A timer counts every call but reads the clock around one call in 8,
   drawn from its own xorshift generator so the sample cannot lock onto
   the protocols' periodic schedules (Ω's heartbeat period, the
   round-robin over nodes); [us] scales the sampled time up to all
   calls.  Timing every call costs two clock reads, ~90 ns here, which is
   a tenth of a failover step. *)
type timer = {
  mutable ns : int;  (** time of the sampled calls *)
  mutable calls : int;
  mutable timed : int;  (** sampled calls *)
  mutable rng : int;
}

let seeds = Atomic.make 0x2545F4914F6CDD1D
let timer () = { ns = 0; calls = 0; timed = 0; rng = Atomic.fetch_and_add seeds 0x9E3779B9 }

(* The clock read itself, subtracted from each sampled span. *)
let clock_ns =
  let best = ref max_int in
  for _ = 1 to 1000 do
    let a = now_ns () in
    best := min !best (now_ns () - a)
  done;
  !best

(* Start a call: its start time if sampled, else 0. *)
let start t =
  t.calls <- t.calls + 1;
  let x = t.rng lxor (t.rng lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x;
  if x land 7 = 0 then now_ns () else 0

let stop t t0 =
  if t0 <> 0 then begin
    t.ns <- t.ns + (now_ns () - t0 - clock_ns);
    t.timed <- t.timed + 1
  end

let us t =
  if t.timed = 0 then 0.
  else float_of_int t.ns *. 1e-3 *. float_of_int t.calls /. float_of_int t.timed

let reset_timer t =
  t.ns <- 0;
  t.calls <- 0;
  t.timed <- 0

(* ---- the replica stack: (Ω, Σ) under Cons.Smr, plus its codec -------- *)

type stack = {
  smr : timer;  (** Cons.Smr on_step + on_input *)
  fd : timer;  (** Ω and Σ on_step *)
  mutable steps : int;  (** node steps (one Cons.Smr on_step each) *)
  mutable fd_frames : int;  (** detector frames delivered *)
  enc : timer;
  dec : timer;
  mutable enc_bytes : int;
  mutable dec_words : float;  (** minor-heap words allocated by decoding *)
}

let stack () =
  {
    smr = timer ();
    fd = timer ();
    steps = 0;
    fd_frames = 0;
    enc = timer ();
    dec = timer ();
    enc_bytes = 0;
    dec_words = 0.;
  }

(* The composition of [Net.Smr_node.protocol], rebuilt from the same
   public pieces with the detector pair and Cons.Smr timed. *)
let protocol s ~window ~batch_max ~period =
  let detector = Fd.Emulated.Omega.Heartbeat in
  let fd =
    Sim.Layered.pair
      (Fd.Emulated.Omega.detector ~kind:detector ~period)
      (Fd.Emulated.Sigma_majority.detector_paced
         ~period:(Net.Smr_node.default_sigma_period ~detector ~period))
  in
  let fd_step ctx st recv =
    (match recv with Some _ -> s.fd_frames <- s.fd_frames + 1 | None -> ());
    let t0 = start s.fd in
    let r = fd.Sim.Layered.proto.Sim.Protocol.on_step ctx st recv in
    stop s.fd t0;
    r
  in
  let smr = Cons.Smr.make ~window ~batch_max () in
  let on_step ctx st recv =
    s.steps <- s.steps + 1;
    let t0 = start s.smr in
    let r = smr.Sim.Protocol.on_step ctx st recv in
    stop s.smr t0;
    r
  in
  let on_input ctx st inp =
    let t0 = start s.smr in
    let r = smr.Sim.Protocol.on_input ctx st inp in
    stop s.smr t0;
    r
  in
  Sim.Layered.with_detector
    { fd with Sim.Layered.proto = { fd.Sim.Layered.proto with Sim.Protocol.on_step = fd_step } }
    { smr with Sim.Protocol.on_step; on_input }

let codec s (c : 'a Net.Wire.codec) : 'a Net.Wire.codec =
  {
    Net.Wire.enc =
      (fun buf v ->
        let l0 = Buffer.length buf in
        let t0 = start s.enc in
        c.Net.Wire.enc buf v;
        stop s.enc t0;
        s.enc_bytes <- s.enc_bytes + Buffer.length buf - l0);
    dec =
      (fun b ~pos ~len ->
        let w0 = Gc.minor_words () in
        let t0 = start s.dec in
        let v = c.Net.Wire.dec b ~pos ~len in
        stop s.dec t0;
        let w1 = Gc.minor_words () in
        s.dec_words <- s.dec_words +. (w1 -. w0);
        v);
  }

(* The string node's wire codec, as [Net.Smr_node.string_impl] uses it. *)
let pmsg_codec s = codec s (Net.Codecs.pmsg Net.Wire.string_c)

let reset_stack s =
  List.iter reset_timer [ s.smr; s.fd; s.enc; s.dec ];
  s.steps <- 0;
  s.fd_frames <- 0;
  s.enc_bytes <- 0;
  s.dec_words <- 0.

let add_stack sums s =
  let f = float_of_int in
  add sums "smr_us" (us s.smr);
  add sums "fd_us" (us s.fd);
  add sums "enc_us" (us s.enc);
  add sums "dec_us" (us s.dec);
  add sums "enc_frames" (f s.enc.calls);
  add sums "dec_frames" (f s.dec.calls);
  add sums "enc_bytes" (f s.enc_bytes);
  add sums "dec_words" s.dec_words;
  add sums "steps" (f s.steps);
  add sums "fd_frames" (f s.fd_frames)

(* Time in the stack's layers, µs. *)
let stack_us sums =
  get sums "smr_us" +. get sums "fd_us" +. get sums "enc_us" +. get sums "dec_us"

(* The stack's per-layer metrics over [cmds] commands of [n] nodes. *)
let stack_metrics sums ~n ~cmds =
  let per_cmd k = get sums k /. cmds in
  let ratio a b = if get sums b = 0. then 0. else get sums a /. get sums b in
  [
    ("codec.enc_us_per_cmd", per_cmd "enc_us");
    ("codec.dec_us_per_cmd", per_cmd "dec_us");
    ("codec.enc_ns_per_frame", 1e3 *. ratio "enc_us" "enc_frames");
    ("codec.dec_ns_per_frame", 1e3 *. ratio "dec_us" "dec_frames");
    ("codec.dec_words_per_frame", ratio "dec_words" "dec_frames");
    ("codec.bytes_per_cmd", per_cmd "enc_bytes");
    ("smr.busy_us_per_cmd", per_cmd "smr_us");
    ("fd.busy_us_per_cmd", per_cmd "fd_us");
    ("fd.frames_per_round", float_of_int n *. ratio "fd_frames" "steps");
    ("node.steps_per_cmd", per_cmd "steps");
  ]

(* ---- transports ------------------------------------------------------ *)

type link = { time : timer; mutable sends : int  (** frames to peers *) }

let link () = { time = timer (); sends = 0 }

let transport l (tr : Net.Transport.t) =
  let send dst b =
    if dst <> tr.Net.Transport.self then l.sends <- l.sends + 1;
    let t0 = start l.time in
    tr.Net.Transport.send dst b;
    stop l.time t0
  in
  let poll ~timeout_ms =
    let t0 = start l.time in
    let r = tr.Net.Transport.poll ~timeout_ms in
    stop l.time t0;
    r
  in
  { tr with Net.Transport.send; poll }

let reset_link l =
  reset_timer l.time;
  l.sends <- 0

let add_link sums name l =
  add sums (name ^ "_us") (us l.time);
  add sums (name ^ "_sends") (float_of_int l.sends)

(* ---- the model checker: per-domain accumulators --------------------- *)

type mc = { proto : timer; inv : timer }

let mc_accs = ref []
let mc_mu = Mutex.create ()

let mc_key =
  Domain.DLS.new_key (fun () ->
      let a = { proto = timer (); inv = timer () } in
      Mutex.protect mc_mu (fun () -> mc_accs := a :: !mc_accs);
      a)

let mc_reset () =
  Mutex.protect mc_mu (fun () ->
      List.iter
        (fun a ->
          reset_timer a.proto;
          reset_timer a.inv)
        !mc_accs)

(* (protocol s, invariant s, protocol steps executed) over every domain. *)
let mc_totals () =
  Mutex.protect mc_mu (fun () ->
      List.fold_left
        (fun (p, i, e) a ->
          (p +. (us a.proto *. 1e-6), i +. (us a.inv *. 1e-6), e + a.proto.calls))
        (0., 0., 0) !mc_accs)

let mc_target (t : (_, _, _, _, _) Mc.Harness.target) =
  let p = t.Mc.Harness.protocol and inv = t.Mc.Harness.invariant in
  let inv_time f =
    let a = Domain.DLS.get mc_key in
    let t0 = start a.inv in
    let r = f () in
    stop a.inv t0;
    r
  in
  let on_step ctx st m =
    let a = Domain.DLS.get mc_key in
    let t0 = start a.proto in
    let r = p.Sim.Protocol.on_step ctx st m in
    stop a.proto t0;
    r
  in
  {
    t with
    Mc.Harness.protocol = { p with Sim.Protocol.on_step };
    invariant =
      {
        inv with
        Mc.Invariant.on_output =
          (fun fp outs -> inv_time (fun () -> inv.Mc.Invariant.on_output fp outs));
        final =
          (fun fp ~must_terminate outs ->
            inv_time (fun () -> inv.Mc.Invariant.final fp ~must_terminate outs));
      };
  }
