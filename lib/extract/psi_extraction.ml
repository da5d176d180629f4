type result = {
  mode : [ `Red | `Cons ];
  outputs : Fd.Psi.output Sim.Trace.event list;
  horizon : int;
  real_decision : int Qcnbac.Types.qc_decision;
}

let algorithm :
    (int Qcnbac.Qc_psi.state, int Qcnbac.Qc_psi.msg, Fd.Psi.output, int,
     int Qcnbac.Types.qc_decision)
    Sim.Protocol.t =
  Qcnbac.Qc_psi.protocol

(* The real execution of A (lines 9-15): run the engine once with the same
   detector history, each process proposing its phase-1 conclusion. *)
let real_execution ?sink ~fp ~seed ~history ~proposals () =
  let cfg =
    Sim.Engine.config ~seed:(seed + 101) ~max_steps:120_000
      ~inputs:(List.map (fun (p, v) -> (0, p, v)) proposals)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~detect_quiescence:false ?sink
      ~render_out:(fun d ->
        Format.asprintf "%a"
          (Qcnbac.Types.pp_qc_decision Format.pp_print_int)
          d)
      ~fd:history fp
  in
  let trace = Sim.Engine.run cfg algorithm in
  match trace.Sim.Trace.outputs with
  | [] -> None
  | e :: _ -> Some e.Sim.Trace.value

(* Extraction-specific metric events ([psi.*] in the glossary); round [r]
   and time [horizon] locate them on the extraction timeline. *)
let emit_metric sink ~round ~time name value =
  match sink with
  | None -> ()
  | Some s ->
    s.Sim.Event.emit
      {
        Sim.Event.time;
        round;
        vc = None;
        kind = Sim.Event.Metric { name; value };
      }

let run ?sink ~fp ~seed ~rounds ~chunk () =
  let n = Sim.Failure_pattern.n fp in
  let history = Fd.Oracle.history Fd.Psi.oracle fp ~seed in
  let full_horizon = (rounds + 1) * chunk in
  let samples_full = Dag.build fp history ~horizon:full_horizon in
  let t = Cht.make algorithm ~n ~fd0:Fd.Psi.Bot in
  let correct = Sim.Failure_pattern.correct fp in
  (* Phase 1: every (correct) process simulates until it decides in some run
     of every tree; it concludes "legit red" if any decision was Q. *)
  let saw_q p =
    List.exists
      (fun tree ->
        match Cht.decision_of t samples_full ~tree ~pid:p with
        | Some Qcnbac.Types.Quit -> true
        | Some (Qcnbac.Types.Value _) | None -> false)
      (List.init (n + 1) (fun i -> i))
  in
  let proposals =
    List.map
      (fun p -> (p, if saw_q p then 0 else 1))
      (Sim.Pidset.elements correct)
  in
  (* Phase 2: agree by actually executing A. *)
  let real_decision =
    match real_execution ?sink ~fp ~seed ~history ~proposals () with
    | Some d -> d
    | None -> Qcnbac.Types.Quit (* unreachable for a live QC algorithm *)
  in
  let mode =
    match real_decision with
    | Qcnbac.Types.Value 1 -> `Cons
    | Qcnbac.Types.Value _ | Qcnbac.Types.Quit -> `Red
  in
  (* Phase 3: per round, one output at each process alive at the round's
     horizon, stamped there. *)
  let round_outputs horizon output =
    List.filter_map
      (fun p ->
        if Sim.Failure_pattern.crashed_at fp ~time:horizon p then None
        else Some { Sim.Trace.time = horizon; pid = p; value = output p })
      (Sim.Pid.all n)
  in
  let rounds_out =
    match mode with
    | `Red ->
      List.init rounds (fun r ->
          round_outputs ((r + 1) * chunk) (fun _ -> Fd.Psi.Fs_mode Fd.Fs.Red))
    | `Cons ->
      (* The agreed (I0, I1, S0, S1): the first adjacent trees whose
         canonical runs decide differently; their deciding prefixes form
         the configuration set C (identical at every process, since the
         sample sequence is shared). *)
      let tree_decision i =
        let cfg = Cht.run_tree t samples_full ~tree:i in
        match Simconfig.outputs cfg with [] -> None | (_, d) :: _ -> Some d
      in
      let rec find_critical i =
        if i > n then (0, 1) (* degenerate; should not happen in Cons mode *)
        else
          match (tree_decision (i - 1), tree_decision i) with
          | Some d0, Some d1 when d0 <> d1 -> (i - 1, i)
          | _ -> find_critical (i + 1)
      in
      let t0, t1 = find_critical 1 in
      let some_correct = Sim.Pidset.min_elt correct in
      let configs =
        Cht.deciding_prefix_configs t samples_full ~tree:t0 ~pid:some_correct
          ~stride:(4 * n)
        @ Cht.deciding_prefix_configs t samples_full ~tree:t1
            ~pid:some_correct ~stride:(4 * n)
      in
      let last_sigma = Hashtbl.create 8 in
      List.init rounds (fun r ->
          let horizon = (r + 1) * chunk in
          (* samples with time <= horizon *)
          let samples_r =
            Array.sub samples_full 0
              (Dag.suffix_from samples_full ~time:(horizon + 1))
          in
          let fresh_from =
            Dag.suffix_from samples_r ~time:(max 0 (horizon - chunk))
          in
          (* Leader analysis runs on the fresh window only: in the limit
             forest, crashed processes stop appearing on sample paths, which
             is exactly what makes a critical index identify a *correct*
             process.  The finite analogue is to use recent samples, where
             already-crashed processes take no steps. *)
          let window =
            Array.sub samples_r fresh_from
              (Array.length samples_r - fresh_from)
          in
          let leader =
            match Cht.extract_leader t window with
            | Some l -> l
            | None -> Sim.Pidset.min_elt correct
          in
          round_outputs horizon (fun p ->
              let quorum =
                match
                  Cht.sigma_quorum t samples_r ~configs ~from_:fresh_from
                    ~pid:p
                with
                | Some q ->
                  Hashtbl.replace last_sigma p q;
                  q
                | None -> (
                  (* Keep the previous quorum until fresh samples let us
                     re-decide (the paper's loop also repeats until it
                     succeeds). *)
                  match Hashtbl.find_opt last_sigma p with
                  | Some q -> q
                  | None -> Sim.Pidset.full n)
              in
              Fd.Psi.Cons_mode (leader, quorum)))
  in
  (match sink with
  | None -> ()
  | Some _ ->
    emit_metric sink ~round:0 ~time:0 "psi.dag_total"
      (Array.length samples_full);
    List.iteri
      (fun i outs ->
        let horizon = (i + 1) * chunk in
        emit_metric sink ~round:(i + 1) ~time:horizon "psi.dag_samples"
          (Dag.suffix_from samples_full ~time:(horizon + 1));
        emit_metric sink ~round:(i + 1) ~time:horizon "psi.round_outputs"
          (List.length outs))
      rounds_out);
  {
    mode;
    outputs = List.concat rounds_out;
    horizon = rounds * chunk;
    real_decision;
  }
