(* Systems under test for [Net_harness]: what do we actually want to
   know about the production stack?

   1. That the paper's link axiom — reliable, in-order, exactly-once
      delivery between correct processes — really is restored by
      [Net.Rel] over a hub that reorders, duplicates and drops frames
      ([seq_rel]: exhaustively passes).
   2. That the harness would catch it if it were not: the same workload
      over the raw hub with reordering on ([seq_raw_reorder]) and over
      a plausibly-but-subtly broken ARQ ([seq_broken_arq]) must produce
      counterexamples.
   3. That the paper's own algorithm survives the trip through the real
      wire path: ABD driven by [Net.Node] over [Net.Rel], checked for
      linearizability ([abd_rel]).

   The sequencing workload: every process sends messages #0..m-1, one
   per step, to every peer; every delivery is output as [Got].  The
   invariant is the link axiom itself, checked per (receiver, sender)
   pair: deliveries must be exactly #0, #1, ... in order, and complete
   (all m) once the run quiesces. *)

type seq_msg = Data of int
type seq_out = Got of Sim.Pid.t * int
type seq_state = { next : int }

let seq_protocol ~m : (seq_state, seq_msg, unit, unit, seq_out) Sim.Protocol.t =
  {
    Sim.Protocol.init = (fun ~n:_ _ -> { next = 0 });
    on_input = Sim.Protocol.no_input;
    on_step =
      (fun ctx st recv ->
        let outs =
          match recv with
          | Some (src, Data k) -> [ Sim.Protocol.Output (Got (src, k)) ]
          | None -> []
        in
        if st.next < m then
          let sends =
            List.filter_map
              (fun p ->
                if Sim.Pid.equal p ctx.Sim.Protocol.self then None
                else Some (Sim.Protocol.Send (p, Data st.next)))
              (Sim.Pid.all ctx.Sim.Protocol.n)
          in
          ({ next = st.next + 1 }, outs @ sends)
        else (st, outs));
  }

(* Assumes no kills: completeness is demanded of every pair. *)
let seq_invariant ~n ~m =
  let check ~complete events =
    let got = Array.make_matrix n n [] (* got.(dst).(src), newest first *) in
    List.iter
      (fun e ->
        match e.Sim.Trace.value with
        | Got (src, k) ->
          got.(e.Sim.Trace.pid).(src) <- k :: got.(e.Sim.Trace.pid).(src))
      events;
    let err = ref None in
    for dst = 0 to n - 1 do
      for src = 0 to n - 1 do
        if src <> dst && !err = None then begin
          let ks = List.rev got.(dst).(src) in
          List.iteri
            (fun i k ->
              if !err = None && k <> i then
                err :=
                  Some
                    (Printf.sprintf
                       "link axiom violated: p%d<-p%d delivered #%d where #%d \
                        was expected"
                       dst src k i))
            ks;
          if complete && !err = None && List.length ks <> m then
            err :=
              Some
                (Printf.sprintf
                   "link axiom violated: p%d<-p%d delivered %d of %d messages \
                    (lost in the link layer)"
                   dst src (List.length ks) m)
        end
      done
    done;
    match !err with None -> Ok () | Some e -> Error e
  in
  {
    Invariant.name = "in-order exactly-once delivery";
    on_output = (fun _fp events -> check ~complete:false (List.rev events));
    final = (fun _fp ~must_terminate events -> check ~complete:must_terminate events);
  }

let pp_seq_out fmt (Got (src, k)) = Format.fprintf fmt "got #%d from p%d" k src

(* A deliberately broken ARQ, shaped like [Net.Rel] but with one wrong
   line: the receiver acknowledges the HIGHEST sequence number it has
   seen instead of the highest delivered in order, while the sender
   (correctly, for a cumulative protocol) discards every unacked frame
   up to the ack.  A frame lost below a later one is then never
   retransmitted — the receiver's resequencing buffer waits forever for
   a frame nobody still has.  [Net_harness] convicts it: once both
   sides believe themselves drained the run quiesces and the
   completeness check reports the lost message. *)
module Broken_arq = struct
  type frame = D of int * string | A of int

  type conn = {
    mutable next_seq : int;
    mutable unacked : (int * string) list; (* ascending seq *)
    mutable highest_seen : int;
    mutable next_expect : int;
    mutable ooo : (int * string) list;
  }

  type t = {
    inner : Net.Transport.t;
    conns : conn array;
    ready : (Sim.Pid.t * bytes) Queue.t;
    mutable polls : int;
    resend_every : int;
  }

  let make ?(resend_every = 2) inner =
    {
      inner;
      conns =
        Array.init inner.Net.Transport.n (fun _ ->
            {
              next_seq = 0;
              unacked = [];
              highest_seen = -1;
              next_expect = 0;
              ooo = [];
            });
      ready = Queue.create ();
      polls = 0;
      resend_every;
    }

  let encode (f : frame) = Bytes.of_string (Marshal.to_string f [])

  let decode b : frame option =
    try Some (Marshal.from_bytes b 0) with _ -> None

  let send t dst payload =
    if Sim.Pid.equal dst t.inner.Net.Transport.self then
      t.inner.Net.Transport.send dst payload
    else begin
      let c = t.conns.(dst) in
      let seq = c.next_seq in
      c.next_seq <- seq + 1;
      let body = Bytes.to_string payload in
      c.unacked <- c.unacked @ [ (seq, body) ];
      t.inner.Net.Transport.send dst (encode (D (seq, body)))
    end

  let handle t src = function
    | A a ->
      (* cumulative trust in a non-cumulative claim *)
      let c = t.conns.(src) in
      c.unacked <- List.filter (fun (s, _) -> s > a) c.unacked
    | D (seq, payload) ->
      let c = t.conns.(src) in
      if seq > c.highest_seen then c.highest_seen <- seq;
      (* the bug: [A highest_seen] claims everything below it arrived *)
      t.inner.Net.Transport.send src (encode (A c.highest_seen));
      if seq = c.next_expect then begin
        Queue.add (src, Bytes.of_string payload) t.ready;
        c.next_expect <- c.next_expect + 1;
        let rec drain () =
          match List.assoc_opt c.next_expect c.ooo with
          | Some p ->
            c.ooo <- List.remove_assoc c.next_expect c.ooo;
            Queue.add (src, Bytes.of_string p) t.ready;
            c.next_expect <- c.next_expect + 1;
            drain ()
          | None -> ()
        in
        drain ()
      end
      else if seq > c.next_expect && not (List.mem_assoc seq c.ooo) then
        c.ooo <- (seq, payload) :: c.ooo

  let rec poll t ~timeout_ms =
    if not (Queue.is_empty t.ready) then Some (Queue.pop t.ready)
    else begin
      t.polls <- t.polls + 1;
      if t.polls mod t.resend_every = 0 then
        Array.iteri
          (fun peer c ->
            if not (Sim.Pid.equal peer t.inner.Net.Transport.self) then
              List.iter
                (fun (seq, body) ->
                  t.inner.Net.Transport.send peer (encode (D (seq, body))))
                c.unacked)
          t.conns;
      match t.inner.Net.Transport.poll ~timeout_ms:0 with
      | None -> None
      | Some (src, frame) ->
        (match decode frame with Some f -> handle t src f | None -> ());
        poll t ~timeout_ms
    end

  let transport t =
    { t.inner with Net.Transport.send = send t; poll = poll t }

  let idle t = Array.for_all (fun c -> c.unacked = []) t.conns

  let digest t =
    let project =
      ( Array.map
          (fun c -> (c.next_seq, c.unacked, c.highest_seen, c.next_expect, c.ooo))
          t.conns,
        Queue.fold (fun acc (s, p) -> (s, Bytes.to_string p) :: acc) [] t.ready,
        t.polls mod t.resend_every )
    in
    Hashtbl.hash (Digest.bytes (Marshal.to_bytes project []))
end

let broken_arq_link ?(resend_every = 2) () tr =
  let b = Broken_arq.make ~resend_every tr in
  {
    Net_harness.tr = Broken_arq.transport b;
    link_digest = (fun () -> Broken_arq.digest b);
    link_idle = (fun () -> Broken_arq.idle b);
  }

let seq_target ~name ~n ~m ~link ~reorder ~faults ~max_rounds =
  {
    Net_harness.name;
    n;
    protocol = seq_protocol ~m;
    link;
    reorder;
    inputs = [];
    faults;
    invariant = seq_invariant ~n ~m;
    max_rounds;
    pp_out = pp_seq_out;
  }

let seq_raw_reorder ~n ~m =
  seq_target ~name:"net_seq_raw_reorder" ~n ~m ~link:Net_harness.raw_link
    ~reorder:true ~faults:[] ~max_rounds:24

let seq_rel ~n ~m =
  seq_target ~name:"net_seq_rel" ~n ~m ~link:(Net_harness.rel_link ())
    ~reorder:true
    ~faults:[ (0, Net_harness.Drop_next 0); (1, Net_harness.Dup_next 1) ]
    ~max_rounds:40

(* [resend_every] must outlast the ack round-trip: if the scan re-sent
   the dropped frame before the bogus ack cleared it, the bug would be
   masked by its own chattiness. *)
let seq_broken_arq ~n ~m =
  seq_target ~name:"net_seq_broken_arq" ~n ~m
    ~link:(broken_arq_link ~resend_every:8 ())
    ~reorder:false
    ~faults:[ (0, Net_harness.Drop_next 0) ]
    ~max_rounds:40

(* ABD is written against a Σ oracle; on a real network detectors are
   emulated layers, but in a kill-free scenario the full process set is
   a legitimate (even live) quorum system sample, so a constant Σ = Π
   closes the protocol to [fd = unit] without changing its logic.

   FIFO hub, slow resend clock: frame reordering and a chatty ARQ each
   multiply the state space past exhaustibility; the drop fault still
   forces a full retransmission round trip through the real stack, and
   reordering is covered by [seq_rel]. *)
let abd_rel ~n =
  {
    Net_harness.name = "net_abd_rel";
    n;
    protocol =
      Sim.Protocol.const_fd (Sim.Pidset.full n)
        (Regs.Abd.protocol ~registers:1);
    link = Net_harness.rel_link ~resend_every:8 ();
    reorder = false;
    inputs =
      [ (0, 0, Regs.Abd.Write (0, 7)); (0, min 1 (n - 1), Regs.Abd.Read 0) ];
    faults = [ (0, Net_harness.Drop_next 0) ];
    invariant = Invariant.linearizable ();
    max_rounds = 40;
    pp_out = Targets.pp_abd_out;
  }

(* The EC replica over the raw hub with reordering, a dropped and a
   duplicated frame: no ARQ underneath — anti-entropy must mask the loss
   itself (an unanswered digest leaves [synced] behind, so the next
   round re-digests).  Ω-EC is closed to a constant leader as for ABD's
   Σ: in a kill-free run any fixed correct leader is a legitimate
   sample, and here it only steers digest fan-out. *)
let ec_converge ~n =
  {
    Net_harness.name = "net_ec_converge";
    n;
    protocol =
      Sim.Protocol.const_fd (0, 0)
        (Ec.Replica.make ~sync_every:2 ~emit_fp:true ());
    link = Net_harness.raw_link;
    reorder = true;
    inputs =
      List.map
        (fun p ->
          (0, p, Ec.Replica.Put { key = "x"; value = "v" ^ string_of_int p }))
        (Sim.Pid.all n);
    faults = [ (1, Net_harness.Drop_next 0); (2, Net_harness.Dup_next 1) ];
    invariant = Invariant.ec_convergence ();
    max_rounds = 60;
    pp_out = Targets.pp_fp_out;
  }

(* Positive control: anti-entropy disabled (cadence beyond the round
   bound), so the concurrent writes never propagate and the run drains
   with divergent stores — every schedule violates convergence. *)
let ec_no_sync ~n =
  let t = ec_converge ~n in
  {
    t with
    Net_harness.name = "net_ec_no_sync";
    protocol =
      Sim.Protocol.const_fd (0, 0)
        (Ec.Replica.make ~sync_every:1_000 ~emit_fp:true ());
    faults = [];
  }
