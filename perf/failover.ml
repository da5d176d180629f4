(* smr_failover: the leader crashes under an open loop.  An in-process
   n=3 cluster with heartbeat Ω; node 1 submits one command every
   [every] rounds for [rounds] rounds, whatever happens; node 0, the
   leader, crashes at round [crash_base + offset].  Latency runs from the
   round a command was due, so commands due while no leader serves wait
   out the outage.  Everything but the wall clock is deterministic: the
   round counts repeat exactly for a given crash offset, and a run covers
   the 16 offsets of one heartbeat period equally. *)

open Common

let every = 16
let rounds = 20_000
let crash_base = 10_000
let offsets = 16
let warmup_rounds = 200
let drain_round_cap = 20_000
let cmds = rounds / every

type phase = {
  setup_s : float;
  u : unit_stats;  (** latency: due → applied at node 1 *)
  lat_rounds : int array;
  outage : int;  (** crash → node 1 applies the first command due after it *)
  detect : int;  (** crash → every survivor's Ω names node 1 *)
}

let phase ~payloads ~offset ~probe checks sums =
  Gc.full_major ();
  let stack = Probe.stack () in
  let t0 = now_ns () in
  let v =
    if probe then Loop_cluster.traced stack () else Loop_cluster.production ()
  in
  for _ = 1 to warmup_rounds do
    v.step ()
  done;
  let setup_s = secs_since t0 in
  Probe.reset_stack stack;
  let crash = crash_base + offset in
  let due_ns = Array.make cmds 0 and applied_ns = Array.make cmds 0 in
  let applied_round = Array.make cmds (-1) in
  let submitted = ref 0 and applied = ref 0 and detect = ref (-1) in
  let r = ref 0 in
  let m0 = now_ns () in
  while !r < rounds || (!applied < cmds && !r < rounds + drain_round_cap) do
    if !r = crash then v.crash 0;
    if !r < rounds && !r mod every = 0 then begin
      due_ns.(!submitted) <- now_ns ();
      v.submit 1 payloads.(!submitted land (pool_size - 1));
      incr submitted
    end;
    v.step ();
    let a = v.applied 1 in
    if a > !applied then begin
      let now = now_ns () in
      for i = !applied to a - 1 do
        applied_ns.(i) <- now;
        applied_round.(i) <- !r
      done;
      applied := a
    end;
    if !detect < 0 && !r >= crash && v.leader 1 = 1 && v.leader 2 = 1 then
      detect := !r - crash;
    incr r
  done;
  let wall_ns = now_ns () - m0 in
  if probe then begin
    Probe.add_stack sums stack;
    add sums "cmds" (float_of_int cmds);
    add sums "wall_us" (float_of_int wall_ns *. 1e-3);
    add sums "batch_cmds" (float_of_int (v.applied 1));
    add sums "batches" (float_of_int (v.batches 1))
  end;
  let extra = ref 0 in
  while v.applied 2 < cmds && !extra < drain_round_cap do
    v.step ();
    incr extra
  done;
  (* Across the leader change commands may apply out of submission
     order, so find each one's position in node 1's log. *)
  Loop_cluster.check_logs checks v ~origin:1 ~payloads ~total:cmds ~fifo:false
    ~same:[ 2 ] ~prefix:[ 0 ];
  let pos = Array.make cmds (-1) in
  List.iteri
    (fun i (_, (c : string Cons.Smr.cmd)) ->
      if i < !applied && c.seq >= 0 && c.seq < cmds then pos.(c.seq) <- i)
    (v.log 1);
  let done_ = List.filter (fun s -> pos.(s) >= 0) (List.init cmds Fun.id) in
  let first_after = (crash + every - 1) / every in
  {
    setup_s;
    u =
      {
        ops = cmds;
        measured_s = float_of_int wall_ns *. 1e-9;
        lat_ns = Array.of_list (List.map (fun s -> applied_ns.(pos.(s)) - due_ns.(s)) done_);
      };
    lat_rounds =
      Array.of_list (List.map (fun s -> applied_round.(pos.(s)) - (s * every)) done_);
    outage =
      (if pos.(first_after) >= 0 then applied_round.(pos.(first_after)) - crash
       else -1);
    detect = !detect;
  }

let run ~seed ~seconds ~traced =
  let payloads = payloads ~seed in
  let checks = checks () and sums = sums () in
  let plain = ref [] and timed = ref [] in
  (* The unit is a whole cycle of crash offsets, so the round counts do
     not depend on where in the heartbeat period the seed starts. *)
  ignore
    (repeat ~seconds ~min_units:1 (fun c ->
         for i = 0 to offsets - 1 do
           let k = (c * offsets) + i in
           let probe = traced && k mod 2 = 1 in
           let p = phase ~payloads ~offset:((seed + k) mod offsets) ~probe checks sums in
           if p.outage < 0 || p.detect < 0 then
             fail checks (Printf.sprintf "phase %d: no recovery within the round cap" k);
           if probe then timed := p :: !timed else plain := p :: !plain
         done));
  let phases = !plain @ !timed in
  let units ps = List.map (fun p -> p.u) ps in
  let end_to_end =
    end_to_end ~setups:(List.map (fun p -> p.setup_s) !plain)
      ~peak_mem_mb:(peak_mem_mb ()) (units !plain)
  in
  let per_layer =
    if not traced then []
    else
      let g = get sums in
      let n_cmds = g "cmds" in
      let rounds =
        Array.map float_of_int
          (Array.concat (List.map (fun p -> p.lat_rounds) phases))
      in
      Array.sort Float.compare rounds;
      let outage = median (List.map (fun p -> float_of_int p.outage) phases) in
      let detect = median (List.map (fun p -> float_of_int p.detect) phases) in
      let lat = latency_ms (Array.concat (List.map (fun p -> p.u.lat_ns) !timed)) in
      Probe.stack_metrics sums ~n:Loop_cluster.n ~cmds:n_cmds
      @ [
          ("smr.cmds_per_batch", g "batch_cmds" /. g "batches");
          ("smr.recover_rounds", outage -. detect);
          ("fd.detect_rounds", detect);
          ("failover.outage_rounds", outage);
          ("failover.commit_rounds_p50", percentile rounds 0.50);
          ("failover.commit_rounds_p99", percentile rounds 0.99);
          ("node.unattributed_us_per_cmd", (g "wall_us" -. Probe.stack_us sums) /. n_cmds);
          ("client.latency_p99_ms", percentile lat 0.99);
          ("client.latency_max_ms", lat.(Array.length lat - 1));
          ("trace.overhead_frac", overhead ~plain:(units !plain) ~timed:(units !timed));
        ]
  in
  {
    attempted = cmds * List.length phases;
    failed = checks.failed;
    errors = checks.errors;
    metrics = end_to_end @ per_layer;
  }
