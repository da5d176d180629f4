(* smr_loopback and smr_lossy: a closed loop keeping [outstanding]
   commands in flight at node 0 of an in-process n=3 cluster.  smr_lossy
   puts [Net.Rel] over a [Net.Nemesis] that drops 2% of the frames on
   every link, so the ARQ layer retransmits, acknowledges and resequences;
   on smr_loopback the hub delivers everything and no ARQ runs. *)

open Common

let outstanding = 512
let warmup_rounds = 200
let warmup_cmds = 2_000
let drain_round_cap = 100_000
let loss = 0.02

(* A cluster lives for one epoch of a fixed number of commands:
   [Cons.Smr] keeps every decided batch, so a run of many short epochs
   keeps the heap, and what the GC pays for it, the same however long the
   run is.  Short epochs also make the run's best unit steady: on a
   shared 2-vCPU host, eight runs spread 5-12% between quartiles with
   epochs of 100,000 commands (a 200 MB heap) or 50,000, and 1-9% with
   20,000. *)
let epoch_cmds = 20_000

(* Submit commands [first, first + count) at node 0, [outstanding] in
   flight, until node 0 has applied them all.  [lat.(i)] gets command
   [first + i]'s submit-to-apply time in ns.  Returns the ns this loop
   spent on its own bookkeeping: the load generator's share. *)
let closed_loop (v : Loop_cluster.t) ~payloads ~first ~count ~lat =
  let stop_at = first + count in
  let sent_at = Array.make count 0 in
  let next = ref first and applied = ref first and client_ns = ref 0 in
  while !applied < stop_at do
    let c0 = now_ns () in
    while !next < stop_at && !next - !applied < outstanding do
      sent_at.(!next - first) <- c0;
      v.submit 0 payloads.(!next land (pool_size - 1));
      incr next
    done;
    let c1 = now_ns () in
    v.step ();
    let c2 = now_ns () in
    let a = min stop_at (v.applied 0) in
    while !applied < a do
      lat.(!applied - first) <- c2 - sent_at.(!applied - first);
      incr applied
    done;
    client_ns := !client_ns + (c1 - c0) + (now_ns () - c2)
  done;
  !client_ns

type epoch = { setup_s : float; u : unit_stats }

let epoch ~lossy ~seed ~payloads ~probe checks sums =
  Gc.full_major ();
  let count = epoch_cmds in
  let stack = Probe.stack () and hub = Probe.link () and rel = Probe.link () in
  let t0 = now_ns () in
  let rels = ref [] in
  let timed l tr = if probe then Probe.transport l tr else tr in
  let wrap, tick =
    if lossy then
      let ctrl =
        Net.Nemesis.create ~seed ~n:Loop_cluster.n
          [ (0, Net.Nemesis.Drop ({ Net.Nemesis.src = None; dst = None }, loss)) ]
      in
      ( Some
          (fun _ tr ->
            let r = Net.Rel.wrap ~resend_every:8 (timed hub (Net.Nemesis.wrap ctrl tr)) in
            rels := r :: !rels;
            timed rel (Net.Rel.transport r)),
        fun () -> Net.Nemesis.tick ctrl )
    else ((if probe then Some (fun _ tr -> timed hub tr) else None), ignore)
  in
  let v =
    if probe then Loop_cluster.traced stack ?wrap ~tick ()
    else Loop_cluster.production ?wrap ~tick ()
  in
  for _ = 1 to warmup_rounds do
    v.step ()
  done;
  ignore
    (closed_loop v ~payloads ~first:0 ~count:warmup_cmds
       ~lat:(Array.make warmup_cmds 0));
  let setup_s = secs_since t0 in
  Probe.reset_stack stack;
  Probe.reset_link hub;
  Probe.reset_link rel;
  let rel_stats f = List.fold_left (fun a r -> a + f (Net.Rel.stats r)) 0 !rels in
  let retransmits () = rel_stats (fun s -> s.Net.Rel.retransmits) in
  let r0 = retransmits () and d0 = Net.Loopback.delivered v.hub in
  let a0 = v.applied 0 and b0 = v.batches 0 in
  let lat = Array.make count 0 in
  let m0 = now_ns () in
  let client_ns = closed_loop v ~payloads ~first:warmup_cmds ~count ~lat in
  let wall_ns = now_ns () - m0 in
  let f = float_of_int in
  if probe then begin
    Probe.add_stack sums stack;
    Probe.add_link sums "hub" hub;
    Probe.add_link sums "rel" rel;
    add sums "cmds" (f count);
    add sums "wall_us" (f wall_ns *. 1e-3);
    add sums "client_us" (f client_ns *. 1e-3);
    add sums "retransmits" (f (retransmits () - r0));
    add sums "hub_frames" (f (Net.Loopback.delivered v.hub - d0));
    add sums "batch_cmds" (f (v.applied 0 - a0));
    add sums "batches" (f (v.batches 0 - b0))
  end;
  let total = warmup_cmds + count in
  let rounds = ref 0 in
  while (v.applied 1 < total || v.applied 2 < total) && !rounds < drain_round_cap do
    v.step ();
    incr rounds
  done;
  if probe then add sums "unacked_end" (f (rel_stats (fun s -> s.Net.Rel.unacked)));
  Loop_cluster.check_logs checks v ~origin:0 ~payloads ~total ~fifo:true
    ~same:[ 1; 2 ] ~prefix:[];
  { setup_s; u = { ops = count; measured_s = f wall_ns *. 1e-9; lat_ns = lat } }

let run ~lossy ~seed ~seconds ~traced =
  let payloads = payloads ~seed in
  let checks = checks () and sums = sums () in
  let plain = ref [] and timed = ref [] in
  let units =
    repeat ~seconds ~min_units:3 (fun i ->
        let probe = traced && i mod 2 = 1 in
        let e = epoch ~lossy ~seed ~payloads ~probe checks sums in
        if probe then timed := e.u :: !timed else plain := e :: !plain)
  in
  let bare = List.map (fun e -> e.u) !plain in
  let end_to_end =
    end_to_end ~setups:(List.map (fun e -> e.setup_s) !plain)
      ~peak_mem_mb:(peak_mem_mb ()) bare
  in
  let per_layer =
    if not traced then []
    else
      let g = get sums in
      let cmds = g "cmds" in
      let outer_us = if lossy then g "rel_us" else g "hub_us" in
      let lat = latency_ms (Array.concat (List.map (fun u -> u.lat_ns) !timed)) in
      Probe.stack_metrics sums ~n:Loop_cluster.n ~cmds
      @ [
          ("smr.cmds_per_batch", g "batch_cmds" /. g "batches");
          ( "node.unattributed_us_per_cmd",
            (g "wall_us" -. Probe.stack_us sums -. outer_us -. g "client_us") /. cmds );
          ("hub.us_per_cmd", g "hub_us" /. cmds);
          ("hub.frames_per_cmd", g "hub_frames" /. cmds);
          ("client.cpu_frac", g "client_us" /. g "wall_us");
          ("client.latency_p99_ms", percentile lat 0.99);
          ("client.latency_max_ms", lat.(Array.length lat - 1));
          ("trace.overhead_frac", overhead ~plain:bare ~timed:!timed);
        ]
      @
      if not lossy then []
      else
        [
          ("rel.self_us_per_cmd", (g "rel_us" -. g "hub_us") /. cmds);
          ("rel.retransmits_per_cmd", g "retransmits" /. cmds);
          ("rel.useful_frac", g "rel_sends" /. (g "rel_sends" +. g "retransmits"));
          ("rel.unacked_end", g "unacked_end" /. float_of_int (List.length !timed));
        ]
  in
  {
    attempted = units * (warmup_cmds + epoch_cmds);
    failed = checks.failed;
    errors = checks.errors;
    metrics = end_to_end @ per_layer;
  }
