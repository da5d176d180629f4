(* A command-line driver to run any algorithm of the library on any
   scenario, with full control over seeds, crash patterns and network
   policies.

     dune exec bin/simulate.exe -- consensus --algo quorum-paxos -n 5 \
       --crash 1@40 --crash 3@90 --seed 7
     dune exec bin/simulate.exe -- qc -n 4 --mode fs --crash 0@10
     dune exec bin/simulate.exe -- nbac --algo 2pc -n 4 --crash 0@1
     dune exec bin/simulate.exe -- registers -n 5 --crash 0@50 --ops 4
     dune exec bin/simulate.exe -- extract-sigma -n 4 --crash 2@100
     dune exec bin/simulate.exe -- extract-psi -n 3 --crash 1@30

   Any subcommand accepts [--trace FILE] to write the run's JSONL
   observability record (events, metrics, profile — see
   docs/OBSERVABILITY.md) and print the collected metric rows. *)

open Cmdliner

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t -> Ok (p, t)
      | _ -> Error (`Msg "expected PID@TIME"))
    | _ -> Error (`Msg "expected PID@TIME")
  in
  let print fmt (p, t) = Format.fprintf fmt "%d@%d" p t in
  Arg.conv (parse, print)

let n_arg =
  Arg.(
    value & opt Cli_common.pos_int 4
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let crashes_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"PID@TIME" ~doc:"Crash process PID at TIME.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's JSONL observability trace (events, metrics, \
           profile) to $(docv) and print the metric rows.")

(* [-n] and the [--crash] list as one scenario: a list that is no legal
   failure pattern for [n] processes is a usage error (exit 124). *)
let scenario_of n crashes =
  match Sim.Failure_pattern.make ~n crashes with
  | fp ->
    `Ok
      {
        Core.Scenario.name = Format.asprintf "%a" Sim.Failure_pattern.pp fp;
        n;
        fp;
      }
  | exception Invalid_argument e -> `Error (false, "--crash: " ^ e)

let scenario_arg = Term.(ret (const scenario_of $ n_arg $ crashes_arg))

let report s =
  Format.printf "%a@." Core.Runner.pp_summary s;
  (match s.Core.Runner.metrics with
  | [] -> ()
  | rows ->
    Format.printf "metrics:@.";
    List.iter (fun (name, v) -> Format.printf "  %-24s %d@." name v) rows);
  match s.Core.Runner.spec_ok with
  | Ok () -> ()
  | Error e ->
    Format.printf "spec violation detail: %s@." e;
    exit 1

(* One run = one [Core.Runner.run] of one workload; every subcommand
   funnels through here so [--trace] behaves identically everywhere. *)
let execute ?max_steps workload sc seed trace =
  report (Core.Runner.run ?max_steps ?trace ~seed workload sc)

let consensus_cmd =
  let algo_arg =
    let algo_conv =
      Arg.enum
        [
          ("quorum-paxos", Core.Runner.Quorum_paxos);
          ("disk-paxos-shm", Core.Runner.Disk_paxos_shm);
          ("disk-paxos-abd", Core.Runner.Disk_paxos_abd);
          ("chandra-toueg", Core.Runner.Chandra_toueg);
          ("multivalued", Core.Runner.Multivalued 4);
        ]
    in
    Arg.(
      value
      & opt algo_conv Core.Runner.Quorum_paxos
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Consensus algorithm.")
  in
  let run algo = execute (Core.Runner.Consensus { algo; proposals = None }) in
  Cmd.v (Cmd.info "consensus" ~doc:"Run a consensus algorithm")
    Term.(const run $ algo_arg $ scenario_arg $ seed_arg $ trace_arg)

let qc_cmd =
  let mode_arg =
    let mode_conv =
      Arg.enum
        [ ("cons", Some Fd.Psi.Consensus_mode); ("fs", Some Fd.Psi.Failure_mode);
          ("auto", None) ]
    in
    Arg.(
      value & opt mode_conv None
      & info [ "mode" ] ~docv:"MODE" ~doc:"Force the Psi branch (cons|fs|auto).")
  in
  let run mode = execute (Core.Runner.Quittable_consensus { mode }) in
  Cmd.v (Cmd.info "qc" ~doc:"Run quittable consensus from Psi")
    Term.(const run $ mode_arg $ scenario_arg $ seed_arg $ trace_arg)

let nbac_cmd =
  let algo_arg =
    let algo_conv =
      Arg.enum
        [ ("qc+fs", Core.Runner.Nbac_psi_fs); ("2pc", Core.Runner.Two_phase_commit) ]
    in
    Arg.(
      value
      & opt algo_conv Core.Runner.Nbac_psi_fs
      & info [ "algo" ] ~docv:"ALGO" ~doc:"NBAC algorithm (qc+fs|2pc).")
  in
  let no_arg =
    Arg.(
      value & opt_all int []
      & info [ "no" ] ~docv:"PID" ~doc:"Process PID votes No (default: all Yes).")
  in
  let run algo nos (sc : Core.Scenario.t) seed trace =
    match List.find_opt (fun p -> not (Sim.Pid.valid ~n:sc.n p)) nos with
    | Some p ->
      `Error (false, Printf.sprintf "--no %d: pid outside 0..%d" p (sc.n - 1))
    | None ->
      let vote p =
        if Sim.Failure_pattern.crashed_at sc.fp ~time:0 p then
          None (* crashed at start: never votes *)
        else if List.mem p nos then Some (p, Qcnbac.Types.No)
        else Some (p, Qcnbac.Types.Yes)
      in
      let votes = List.filter_map vote (Sim.Pid.all sc.n) in
      `Ok
        (execute ~max_steps:60_000
           (Core.Runner.Nbac { algo; votes = Some votes })
           sc seed trace)
  in
  Cmd.v (Cmd.info "nbac" ~doc:"Run non-blocking atomic commit")
    Term.(
      ret (const run $ algo_arg $ no_arg $ scenario_arg $ seed_arg $ trace_arg))

let registers_cmd =
  let ops_arg =
    Arg.(
      value & opt Cli_common.pos_int 3
      & info [ "ops" ] ~docv:"K" ~doc:"Operations per process.")
  in
  let majority_arg =
    Arg.(
      value & flag
      & info [ "majority" ]
          ~doc:"Use fixed majority quorums instead of Sigma (may block).")
  in
  let run ops majority =
    let quorums = if majority then `Majority else `Sigma in
    execute
      (Core.Runner.Registers { ops_per_proc = ops; registers = 2; quorums })
  in
  Cmd.v (Cmd.info "registers" ~doc:"Run an ABD register workload")
    Term.(
      const run $ ops_arg $ majority_arg $ scenario_arg $ seed_arg $ trace_arg)

let extract_sigma_cmd =
  Cmd.v
    (Cmd.info "extract-sigma" ~doc:"Run the Figure 1 Sigma extraction")
    Term.(
      const (execute Core.Runner.Sigma_extraction)
      $ scenario_arg $ seed_arg $ trace_arg)

let extract_psi_cmd =
  Cmd.v (Cmd.info "extract-psi" ~doc:"Run the Figure 3 Psi extraction")
    Term.(
      const (execute (Core.Runner.Psi_extraction { rounds = 3; chunk = 220 }))
      $ scenario_arg $ seed_arg $ trace_arg)

let () =
  let default =
    Term.(ret (const (`Help (`Pager, None))))
  in
  let info =
    Cmd.info "simulate" ~version:"1.0"
      ~doc:
        "Simulate the algorithms of the weakest-failure-detector library \
         (Delporte-Gallet et al., PODC 2004)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            consensus_cmd; qc_cmd; nbac_cmd; registers_cmd; extract_sigma_cmd;
            extract_psi_cmd;
          ]))
