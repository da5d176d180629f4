(* The load harness behind `cluster.exe bench`: spawn an n-replica
   cluster over Unix-domain sockets (Cli_common's forked-cluster
   lifecycle), then drive node 0 from one process multiplexing C
   non-blocking client connections over Net.Poll, each writing through a
   Net.Wire.Writer.

   Two generators:
   - closed loop (default): each connection keeps [outstanding] requests
     in flight and refills on every decided reply — measures the
     saturated pipeline (what the batching/pipelining hot path is for);
   - open loop (--rate R): requests are issued on a fixed schedule,
     R per second across all connections, regardless of completions —
     latency then includes the queueing delay a coordinated-omissions
     -free measurement must see.

   Replies are matched FIFO per connection: a connection's requests are
   submitted in order, the serving node assigns them increasing seqs,
   and decided entries come back in log order — under the stable node-0
   leadership of a fault-free run that order is the send order.  (The
   decoded seq is checked against the FIFO's expectation anyway; a
   mismatch aborts the run rather than fabricating latencies.)

   Latencies land in an Obs.Metrics histogram (bench.latency_us) so the
   optional --json output is the same JSONL dialect every other tool
   here writes: one meta record, one metrics record with the
   power-of-two bucket counts as labeled counters. *)

type conn = {
  fd : Unix.file_descr;
  dec : Net.Wire.Decoder.t;
  sent_at : float Queue.t;  (* send timestamps of in-flight requests *)
  out : Net.Wire.Writer.t;  (* encoded frames awaiting the kernel *)
  mutable expect_seq : int;  (* seq the next reply must carry *)
}

let enqueue metrics c payload now =
  Net.Wire.Writer.push c.out payload;
  Queue.push now c.sent_at;
  Obs.Metrics.incr metrics "bench.sent"

let run ~n ~clients ~outstanding ~rate ~duration ~size ~period ~window
    ~batch_max ~tick_ms ~json ~dir_opt =
  Random.self_init ();
  if n < 1 then failwith "bench needs n >= 1";
  if clients < 1 then failwith "bench needs --clients >= 1";
  if size < 8 then failwith "bench needs --size >= 8";
  let dir = Cli_common.ensure_dir dir_opt in
  let mode = if rate > 0. then "open" else "closed" in
  Printf.printf
    "bench: n=%d clients=%d mode=%s%s duration=%.1fs window=%d batch_max=%d \
     size=%dB dir=%s\n%!"
    n clients mode
    (if rate > 0. then Printf.sprintf " rate=%.0f/s" rate
     else Printf.sprintf " outstanding=%d" outstanding)
    duration window batch_max size dir;
  let cluster =
    Cli_common.spawn ~tool:"bench" n
      (Cli_common.serve_node ~dir ~n ~period
         ~detector:Fd.Emulated.Omega.Heartbeat ~window ~batch_max ~tick_ms
         ~trace:false)
  in
  let metrics = Obs.Metrics.create () in
  let lats = ref [] and n_lats = ref 0 in
  Cli_common.guard cluster (fun () ->
      let conns =
        Array.init clients (fun _ ->
            let fd =
              Cli_common.connect_retry
                (Cli_common.client_addr dir 0)
                ~attempts:100 ~delay_s:0.1
            in
            Unix.set_nonblock fd;
            {
              fd;
              dec = Net.Wire.Decoder.create ();
              sent_at = Queue.create ();
              out = Net.Wire.Writer.create ();
              expect_seq = 0;
            })
      in
      (* all clients share the serving node's seq counter: interleave is
         arbitrary, so per-conn seq checking only works with one client *)
      let check_seq = clients = 1 in
      let payload k =
        let b = Bytes.make size 'x' in
        let tag = Printf.sprintf "%08x" (k land 0x7fffffff) in
        Bytes.blit_string tag 0 b 0 (min 8 size);
        b
      in
      let sent = ref 0 in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. duration in
      let next_open_send = ref t0 in
      let rr = ref 0 in
      (* closed loop: prime every connection's pipeline *)
      if rate <= 0. then
        Array.iter
          (fun c ->
            for _ = 1 to outstanding do
              enqueue metrics c (payload !sent) (Unix.gettimeofday ());
              incr sent
            done)
          conns;
      let pl = Net.Poll.create () in
      let rbuf = Bytes.create 65536 in
      let outstanding_total () =
        Array.fold_left (fun a c -> a + Queue.length c.sent_at) 0 conns
      in
      let read_conn c now measuring =
        match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> failwith "server closed a client connection"
        | nread ->
          Net.Wire.Decoder.feed c.dec rbuf nread;
          let continue = ref true in
          while !continue do
            match Net.Wire.Decoder.next c.dec with
            | None -> continue := false
            | Some frame ->
              let seq, _slot = Net.Smr_node.decode_reply frame in
              if check_seq && seq <> c.expect_seq then
                failwith
                  (Printf.sprintf "reply out of order: seq %d, expected %d"
                     seq c.expect_seq);
              c.expect_seq <- c.expect_seq + 1;
              (match Queue.take_opt c.sent_at with
              | None -> failwith "reply with nothing in flight"
              | Some sent_t ->
                let lat = now -. sent_t in
                lats := lat :: !lats;
                incr n_lats;
                Obs.Metrics.observe metrics "bench.latency_us"
                  (int_of_float (lat *. 1e6));
                Obs.Metrics.incr metrics "bench.completed");
              (* closed loop refills from completions *)
              if rate <= 0. && measuring then begin
                enqueue metrics c (payload !sent) now;
                incr sent
              end
          done
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          ()
      in
      let drain_grace = 5.0 in
      let hard_stop = ref (deadline +. drain_grace) in
      let running = ref true in
      while !running do
        let now = Unix.gettimeofday () in
        let measuring = now < deadline in
        (* open loop: issue everything due, round-robin across conns *)
        if rate > 0. && measuring then
          while !next_open_send <= now do
            let c = conns.(!rr mod clients) in
            incr rr;
            enqueue metrics c (payload !sent) !next_open_send;
            incr sent;
            next_open_send := !next_open_send +. (1. /. rate)
          done;
        Net.Poll.clear pl;
        let idx =
          Array.map
            (fun c ->
              Net.Poll.add pl c.fd ~read:true
                ~write:(Net.Wire.Writer.pending c.out))
            conns
        in
        let timeout_ms =
          if rate > 0. && measuring then
            let dt = !next_open_send -. Unix.gettimeofday () in
            max 0 (min 5 (int_of_float (Float.ceil (dt *. 1000.))))
          else 5
        in
        (match Net.Poll.wait pl ~timeout_ms with
        | _ -> ()
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        let now = Unix.gettimeofday () in
        Array.iteri
          (fun i c ->
            if Net.Poll.writable pl idx.(i) then
              Net.Wire.Writer.flush c.out c.fd;
            if Net.Poll.readable pl idx.(i) then
              read_conn c now (now < deadline))
          conns;
        if now >= deadline then
          if outstanding_total () = 0 then running := false
          else if now > !hard_stop then begin
            Obs.Metrics.incr metrics "bench.timeouts"
              ~by:(outstanding_total ());
            running := false
          end
      done;
      let t_end = Unix.gettimeofday () in
      Array.iter (fun c -> Cli_common.close_quiet c.fd) conns;
      let completed = Obs.Metrics.counter metrics "bench.completed" in
      let elapsed = t_end -. t0 in
      let a = Array.of_list !lats in
      Array.sort compare a;
      let throughput = float_of_int completed /. elapsed in
      Printf.printf
        "sent=%d completed=%d elapsed=%.2fs throughput=%.1f/s p50=%.2fms \
         p90=%.2fms p99=%.2fms max=%.2fms\n%!"
        !sent completed elapsed throughput
        (1000. *. Cli_common.percentile a 0.50)
        (1000. *. Cli_common.percentile a 0.90)
        (1000. *. Cli_common.percentile a 0.99)
        (1000. *. (if Array.length a = 0 then 0. else a.(Array.length a - 1)));
      (match json with
      | None -> ()
      | Some path ->
        (* buckets become labeled counters so the metrics record carries
           the whole latency histogram, not just count/sum/min/max *)
        (match Obs.Metrics.histogram metrics "bench.latency_us" with
        | None -> ()
        | Some h ->
          Array.iteri
            (fun i count ->
              if count > 0 then
                Obs.Metrics.incr_l metrics "bench.latency_us.bucket" ~by:count
                  ~labels:[ ("pow", string_of_int i) ])
            h.Obs.Metrics.buckets);
        let oc = open_out path in
        output_string oc
          (Obs.Jsonl.meta_line
             [
               ("kind", "bench");
               ("n", string_of_int n);
               ("clients", string_of_int clients);
               ("mode", mode);
               ("rate", Printf.sprintf "%.0f" rate);
               ("outstanding", string_of_int outstanding);
               ("duration_s", Printf.sprintf "%.2f" duration);
               ("elapsed_s", Printf.sprintf "%.2f" elapsed);
               ("window", string_of_int window);
               ("batch_max", string_of_int batch_max);
               ("size", string_of_int size);
               ("throughput_per_s", Printf.sprintf "%.1f" throughput);
             ]);
        output_char oc '\n';
        output_string oc (Obs.Jsonl.metrics_line (Obs.Metrics.snapshot metrics));
        output_char oc '\n';
        close_out oc;
        Printf.printf "json: %s\n%!" path);
      if completed = 0 then failwith "no command completed";
      let timeouts = Obs.Metrics.counter metrics "bench.timeouts" in
      if timeouts > 0 then
        failwith
          (Printf.sprintf "%d requests unanswered %.0f s past the deadline"
             timeouts drain_grace));
  Cli_common.stop cluster;
  Printf.printf "bench OK\n%!"
