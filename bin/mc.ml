(* mc — schedule exploration and invariant checking over the sim engine.

   Examples:
     mc --list
     mc --protocol cons.quorum_paxos -n 3 --explorer pct --budget 100000
     mc --protocol qcnbac.two_phase_commit -n 2 --max-crashes 1
     mc --protocol cons.broken_validity -n 2 --explorer exhaustive
     mc --protocol qcnbac.two_phase_commit -n 2 \
        --replay 'crashes=0@0;choices='

   Exit status: 0 = no violation, 1 = violation found, 124 = usage error.

   (The executable goes through [Core.Runner] only: its own compilation
   unit is [Mc], which shadows the library module of the same name.) *)

let list_targets () =
  print_endline "registered targets:";
  List.iter (fun name -> Printf.printf "  %s\n" name) Core.Runner.mc_targets;
  0

let replay_schedule ?trace name ~n ~seed spec =
  match Core.Runner.mc_replay ?trace name ~n ~seed ~schedule:spec with
  | Error e ->
    Printf.eprintf "mc: %s\n" e;
    124
  | Ok r ->
    Format.printf "replay %s n=%d %s@." name n r.Core.Runner.re_schedule;
    Format.printf "outputs:@.%s@." r.Core.Runner.re_outputs;
    (match r.Core.Runner.re_violation with
    | Some reason ->
      Format.printf "VIOLATION: %s@." reason;
      1
    | None ->
      Format.printf "no violation@.";
      0)

let explore ?trace name ~n ~(opts : Core.Runner.mc_opts) =
  match Core.Runner.model_check ~opts ?trace name ~n with
  | Error e ->
    Printf.eprintf "mc: %s\n" e;
    124
  | Ok s ->
    Format.printf "%a@." Core.Runner.pp_mc_summary s;
    (match s.Core.Runner.counterexample with Some _ -> 1 | None -> 0)

let run list protocol n explorer domains budget inner_budget depth seed
    max_crashes horizon stride no_shrink replay trace =
  if list then list_targets ()
  else
    match protocol with
    | None ->
      Printf.eprintf "mc: --protocol is required (or use --list)\n";
      124
    | Some name -> (
      match replay with
      | Some spec -> replay_schedule ?trace name ~n ~seed spec
      | None ->
        let opts =
          {
            Core.Runner.explorer;
            domains;
            budget;
            inner_budget;
            d = depth;
            seed;
            max_crashes;
            horizon;
            stride;
            shrink = not no_shrink;
          }
        in
        explore ?trace name ~n ~opts)

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
