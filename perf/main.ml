(* The benchmark: four workloads over the (Ω, Σ) → SMR tower and the
   model checker.  See perf/README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload all --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones below, measured with no instrument in
   place; with --trace 1 they are the per-layer ones, from a run that
   alternates instrumented and bare units.  A failed check exits 1. *)

let workloads =
  [
    ("smr_loopback", Smr_local.run ~lossy:false);
    ("smr_lossy", Smr_local.run ~lossy:true);
    ("smr_failover", Failover.run);
    ("mc_ring_sweep", Mc_sweep.run);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_ops_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_mem_mb", "MB");
  ]

(* A layer a workload does not run reports 0. *)
let per_layer =
  [
    ("codec.enc_us_per_cmd", "us/cmd");
    ("codec.dec_us_per_cmd", "us/cmd");
    ("codec.enc_ns_per_frame", "ns/frame");
    ("codec.dec_ns_per_frame", "ns/frame");
    ("codec.dec_words_per_frame", "words/frame");
    ("codec.bytes_per_cmd", "bytes/cmd");
    ("smr.busy_us_per_cmd", "us/cmd");
    ("smr.cmds_per_batch", "cmds/batch");
    ("smr.recover_rounds", "rounds");
    ("fd.busy_us_per_cmd", "us/cmd");
    ("fd.frames_per_round", "frames/round");
    ("fd.detect_rounds", "rounds");
    ("failover.outage_rounds", "rounds");
    ("failover.commit_rounds_p50", "rounds");
    ("failover.commit_rounds_p99", "rounds");
    ("node.steps_per_cmd", "steps/cmd");
    ("node.unattributed_us_per_cmd", "us/cmd");
    ("hub.us_per_cmd", "us/cmd");
    ("hub.frames_per_cmd", "frames/cmd");
    ("rel.self_us_per_cmd", "us/cmd");
    ("rel.retransmits_per_cmd", "frames/cmd");
    ("rel.useful_frac", "frac");
    ("rel.unacked_end", "frames");
    ("client.cpu_frac", "frac");
    ("client.latency_p99_ms", "ms");
    ("client.latency_max_ms", "ms");
    ("mc.useful_step_frac", "frac");
    ("mc.proto_s", "s/search");
    ("mc.invariant_s", "s/search");
    ("mc.cpu_s", "s/search");
    ("mc.parallelism", "cpus");
    ("mc.unattributed_s", "s/search");
    ("mc.schedules", "count");
    ("mc.steps", "count");
    ("trace.overhead_frac", "frac");
  ]

(* The commit of a checkout that still has its .git directory. *)
let commit () =
  let read p = String.trim (Common.read_file (Filename.concat ".git" p)) in
  let head = read "HEAD" in
  let sha =
    if String.starts_with ~prefix:"ref: " head then
      read (String.sub head 5 (String.length head - 5))
    else head
  in
  if sha = "" then "unknown" else sha

let json_string s = Printf.sprintf "%S" s

let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads, or all");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !workload = "all" then begin
    (* one fresh process per workload, so no heap or GC state carries over *)
    let code = ref 0 in
    List.iter
      (fun (name, _) ->
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed;
             "--seconds"; string_of_int !seconds; "--trace"; string_of_int !trace |]
        in
        flush stdout;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> code := 1)
      workloads;
    exit !code
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !trace = 0 || !trace = 1 -> run
    | _ ->
      prerr_endline usage;
      exit 2
  in
  let traced = !trace = 1 in
  Printf.printf
    "{\"meta\": {\"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"ocaml\": %s, \"commit\": %s}}\n%!"
    (json_string !workload) !seed !seconds !trace
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string (commit ()));
  let r = run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced in
  let wanted = if traced then per_layer else end_to_end in
  let value name =
    match List.assoc_opt name r.Common.metrics with
    | Some v -> v
    | None when traced -> 0.
    | None -> nan
  in
  let bad = List.filter (fun (name, _) -> not (Float.is_finite (value name))) wanted in
  let errors =
    r.errors @ List.map (fun (name, _) -> "metric " ^ name ^ " was not measured") bad
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) errors;
  let correct = errors = [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = value name in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
          (json_string unit))
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
