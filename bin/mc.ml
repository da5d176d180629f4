(* mc — schedule exploration and invariant checking over the sim engine.

   Examples:
     mc --list
     mc --protocol cons.quorum_paxos -n 3 --explorer pct --budget 100000
     mc --protocol qcnbac.two_phase_commit -n 2 --max-crashes 1
     mc --protocol cons.broken_validity -n 2 --explorer exhaustive
     mc --protocol qcnbac.two_phase_commit -n 2 \
        --replay 'crashes=0@0;choices='

   Exit status: 0 = no violation, 1 = violation found, 124 = usage error. *)

let usage_error e =
  Printf.eprintf "mc: %s\n" e;
  124

let list_targets () =
  print_endline "registered targets:";
  List.iter (fun name -> Printf.printf "  %s\n" name) Mc.Targets.names;
  0

let with_target name ~n k =
  match Mc.Targets.find name ~n with
  | Some packed -> k packed
  | None ->
    usage_error
      (Printf.sprintf "unknown target %S (known: %s)" name
         (String.concat ", " Mc.Targets.names))

let replay_schedule ?trace name ~n ~seed spec =
  (* An illegal crash list is a usage error, not a clean replay:
     [Mc.Harness.replay] would turn it into a report with no violation. *)
  match
    let sched = Mc.Schedule.of_string spec in
    ignore (Mc.Schedule.fp ~n sched);
    sched
  with
  | exception Invalid_argument e -> usage_error ("bad schedule: " ^ e)
  | sched ->
    with_target name ~n @@ fun (Mc.Targets.Packed t) ->
    let schedule = Mc.Schedule.to_string sched in
    let obs = Option.map (fun path -> (path, Obs.Collector.create ())) trace in
    let sink = Option.map (fun (_, (c : Obs.Collector.t)) -> c.sink) obs in
    let r = Mc.Harness.replay ~seed ?sink t ~n sched in
    Option.iter
      (fun (path, c) ->
        Obs.Jsonl.write_run ~path
          ~meta:
            [
              ("kind", "mc-replay");
              ("target", name);
              ("n", string_of_int n);
              ("seed", string_of_int seed);
              ("schedule", schedule);
              ("violation", Option.value ~default:"" r.violation);
            ]
          c)
      obs;
    Format.printf "replay %s n=%d %s@." name n schedule;
    Format.printf "outputs:@.%s@." (Lazy.force r.outputs);
    match r.violation with
    | Some reason ->
      Format.printf "VIOLATION: %s@." reason;
      1
    | None ->
      Format.printf "no violation@.";
      0

(* Tracing the search itself would let the explorer's helper domains race
   on the collector, so [--trace] records the search summary plus the
   deterministic replay of its counterexample, if any: the file minus its
   profile record is the same for every [--domains]. *)
let write_search_trace path t name ~n ~(opts : Mc.Harness.opts)
    (r : Mc.Crash_adversary.report) =
  let obs = Obs.Collector.create () in
  Option.iter
    (fun (c : Mc.Harness.counterexample) ->
      ignore (Mc.Harness.replay ~seed:opts.seed ~sink:obs.sink t ~n c.schedule))
    r.counterexample;
  let cex f = Option.fold ~none:"" ~some:f r.counterexample in
  Obs.Jsonl.write_run ~path
    ~meta:
      [
        ("kind", "mc");
        ("target", name);
        ("explorer", Mc.Harness.explorer_name opts.explorer);
        ("n", string_of_int n);
        ("seed", string_of_int opts.seed);
        ("patterns", string_of_int r.patterns);
        ("schedules", string_of_int r.schedules);
        ("steps", string_of_int r.steps);
        ("exhausted", string_of_bool r.complete);
        ("violation", cex (fun c -> c.reason));
        ("schedule", cex (fun c -> Mc.Schedule.to_string c.schedule));
      ]
    obs

let explore ?trace name ~n ~opts =
  match Mc.Harness.validate_opts opts with
  | Error e -> usage_error e
  | Ok () when n < 1 -> usage_error (Printf.sprintf "n must be >= 1 (got %d)" n)
  | Ok () ->
    with_target name ~n @@ fun (Mc.Targets.Packed t) ->
    let r = Mc.Parallel.search ~opts t ~n in
    Option.iter (fun path -> write_search_trace path t name ~n ~opts r) trace;
    Format.printf
      "@[<v>%-24s %-10s patterns=%-4d schedules=%-8d steps=%-9d %s: %s%a@]@."
      name
      (Mc.Harness.explorer_name opts.explorer)
      r.patterns r.schedules r.steps
      (if r.complete then "exhausted" else "budget-bounded")
      (if r.counterexample = None then "no violation" else "VIOLATION")
      (Format.pp_print_option (fun fmt c ->
           Format.fprintf fmt "@ %a" Mc.Harness.pp_counterexample c))
      r.counterexample;
    if r.counterexample = None then 0 else 1

let run list protocol n explorer domains budget inner_budget depth seed
    max_crashes horizon stride no_shrink replay trace =
  if list then list_targets ()
  else
    match protocol with
    | None -> usage_error "--protocol is required (or use --list)"
    | Some name -> (
      match replay with
      | Some spec -> replay_schedule ?trace name ~n ~seed spec
      | None ->
        explore ?trace name ~n
          ~opts:
            {
              Mc.Harness.explorer;
              domains;
              budget;
              inner_budget;
              d = depth;
              seed;
              max_crashes;
              horizon;
              stride;
              shrink = not no_shrink;
            })

open Cmdliner

let list_t =
  Arg.(value & flag & info [ "list" ] ~doc:"List registered targets and exit.")

let protocol_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol"; "p" ] ~docv:"NAME"
        ~doc:"Target to check (see $(b,--list)).")

let n_t =
  Arg.(
    value & opt int 3 & info [ "n"; "nprocs" ] ~docv:"N" ~doc:"System size.")

let explorer_t =
  let kind =
    Arg.enum
      [
        ("exhaustive", `Exhaustive);
        ("dpor", `Dpor);
        ("pct", `Pct);
        ("random", `Random);
      ]
  in
  Arg.(
    value & opt kind `Exhaustive
    & info [ "explorer"; "e" ] ~docv:"KIND"
        ~doc:
          "Schedule explorer: $(b,exhaustive), $(b,dpor) (exhaustive with \
           dynamic partial-order reduction — identical verdicts, fewer \
           schedules), $(b,pct) or $(b,random).")

let domains_t =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel exploration (results are identical \
           for every N, including 1).")

let budget_t =
  Arg.(
    value & opt int 100_000
    & info [ "budget" ] ~docv:"RUNS" ~doc:"Total schedule budget.")

let inner_budget_t =
  Arg.(
    value & opt int 2_000
    & info [ "inner-budget" ] ~docv:"RUNS"
        ~doc:"Per-failure-pattern schedule cap.")

let depth_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "depth"; "d" ] ~docv:"D"
        ~doc:
          "PCT bug depth (number of ordering constraints); only valid with \
           $(b,--explorer pct).")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")

let max_crashes_t =
  Arg.(
    value & opt int 1
    & info [ "max-crashes"; "f" ] ~docv:"F"
        ~doc:"Crash-adversary bound on faulty processes.")

let horizon_t =
  Arg.(
    value & opt int 4
    & info [ "horizon" ] ~docv:"T" ~doc:"Latest injected crash time.")

let stride_t =
  Arg.(
    value & opt int 2
    & info [ "stride" ] ~docv:"S" ~doc:"Crash time grid spacing.")

let no_shrink_t =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Report the raw counterexample unshrunk.")

let replay_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"SCHEDULE"
        ~doc:
          "Replay a serialized schedule (e.g. 'crashes=0@0;choices=1,0') \
           instead of exploring.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL observability record to $(docv): the search summary \
           as metadata plus, when a counterexample is found, the event trace \
           of its deterministic replay.  The search itself is never \
           instrumented, so results stay identical across $(b,--domains) \
           counts.")

let cmd =
  let doc = "bounded model checking of the simulated protocols" in
  Cmd.v
    (Cmd.info "mc" ~doc)
    Term.(
      const run $ list_t $ protocol_t $ n_t $ explorer_t $ domains_t
      $ budget_t $ inner_budget_t $ depth_t $ seed_t $ max_crashes_t
      $ horizon_t $ stride_t $ no_shrink_t $ replay_t $ trace_t)

let () = exit (Cmd.eval' cmd)
