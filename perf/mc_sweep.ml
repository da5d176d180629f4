(* mc_ring_sweep: time to verdict of the model checker.  An exhaustive
   crash-adversary search of the ring detector target at n=3 (at most one
   crash, default horizon and stride) on one domain, no shrinking.  The
   verdict and its counts are fixed, so a wrong one fails the run.

   One domain because a second one, on a 2-vCPU host, made the search
   slower (8-12 s against 2.3 s) and its time a measure of how the host
   schedules two busy threads: the quartiles of ten runs spread 20-27%. *)

open Common

let n = 3

let opts =
  {
    Mc.Harness.default_opts with
    domains = 1;
    budget = 200_000;
    inner_budget = 100_000;
    max_crashes = 1;
    shrink = false;
  }

(* Set-up includes a short search of the same target, so the first-touch
   costs of the explorer are paid before timing. *)
let warmup_budget = 2_000
let expected_schedules = 55_609
let expected_steps = 1_576_160

type search = {
  setup_s : float;
  verdict_s : float;
  cpu_s : float;
  proto_s : float;
  invariant_s : float;
  executed : int;  (** protocol steps run, speculative ones included *)
  report : Mc.Crash_adversary.report;
}

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let search ~probe checks =
  Gc.full_major ();
  let t0 = now_ns () in
  let target = Mc.Targets.fd_ring ~n in
  let target = if probe then Probe.mc_target target else target in
  ignore (Mc.Parallel.search ~opts:{ opts with budget = warmup_budget } target ~n);
  let setup_s = secs_since t0 in
  Probe.mc_reset ();
  let c0 = process_cpu () in
  let m0 = now_ns () in
  let report = Mc.Parallel.search ~opts target ~n in
  let verdict_s = secs_since m0 in
  let cpu_s = process_cpu () -. c0 in
  let proto_s, invariant_s, executed = Probe.mc_totals () in
  let r = report in
  if not r.Mc.Crash_adversary.complete then fail checks "search did not complete";
  if r.counterexample <> None then fail checks "search reported a counterexample";
  if r.schedules <> expected_schedules || r.steps <> expected_steps then
    fail checks
      (Printf.sprintf "search explored %d schedules / %d steps, expected %d / %d"
         r.schedules r.steps expected_schedules expected_steps);
  { setup_s; verdict_s; cpu_s; proto_s; invariant_s; executed; report }

(* A search is the unit: its one latency sample is the time to verdict,
   and its throughput the schedules explored per second. *)
let as_unit s =
  {
    ops = s.report.Mc.Crash_adversary.schedules;
    measured_s = s.verdict_s;
    lat_ns = [| int_of_float (s.verdict_s *. 1e9) |];
  }

let run ~seed:_ ~seconds ~traced =
  let checks = checks () in
  let plain = ref [] and timed = ref [] in
  let n_units =
    repeat ~seconds ~min_units:3 (fun i ->
        let probe = traced && i mod 2 = 1 in
        let s = search ~probe checks in
        if probe then timed := s :: !timed else plain := s :: !plain)
  in
  let end_to_end =
    end_to_end ~setups:(List.map (fun s -> s.setup_s) !plain)
      ~peak_mem_mb:(peak_mem_mb ()) (List.map as_unit !plain)
  in
  let per_layer =
    if not traced then []
    else
      let med f = median (List.map f !timed) in
      let v = sorted_of_list (List.map (fun s -> s.verdict_s *. 1e3) !timed) in
      [
        ( "mc.useful_step_frac",
          med (fun s -> float_of_int s.report.Mc.Crash_adversary.steps /. float_of_int s.executed) );
        ("mc.proto_s", med (fun s -> s.proto_s));
        ("mc.invariant_s", med (fun s -> s.invariant_s));
        ("mc.cpu_s", med (fun s -> s.cpu_s));
        ("mc.parallelism", med (fun s -> s.cpu_s /. s.verdict_s));
        ("mc.unattributed_s", med (fun s -> s.cpu_s -. s.proto_s -. s.invariant_s));
        ("mc.schedules", med (fun s -> float_of_int s.report.Mc.Crash_adversary.schedules));
        ("mc.steps", med (fun s -> float_of_int s.report.Mc.Crash_adversary.steps));
        ("client.latency_p99_ms", percentile v 0.99);
        ("client.latency_max_ms", v.(Array.length v - 1));
        ( "trace.overhead_frac",
          overhead ~plain:(List.map as_unit !plain) ~timed:(List.map as_unit !timed) );
      ]
  in
  { attempted = n_units; failed = checks.failed; errors = checks.errors; metrics = end_to_end @ per_layer }
