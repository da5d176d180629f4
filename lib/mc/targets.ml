(* Ready-made systems under test.  Each target fixes the detector oracle,
   the workload and the bounds so that explorers (and the CLI) only have to
   pick schedules and failure patterns.

   Detector histories use the time-invariant oracle variants (instant Ω,
   exact Σ) where available: the sampled history then depends only on the
   failure pattern, which keeps the reachable state space small and makes
   the exhaustive explorer's mod-time digest pruning sound. *)

let proposals ~n = List.map (fun p -> (p, 10 + p)) (Sim.Pid.all n)

let at_zero inputs = List.map (fun (p, v) -> (0, p, v)) inputs

(* ---- consensus from (Ω, Σ) ---------------------------------------- *)

let cons_oracle =
  Fd.Oracle.product Fd.Omega.oracle_instant Fd.Sigma.oracle_exact

let quorum_paxos ~n =
  let proposals = proposals ~n in
  {
    Harness.name = "cons.quorum_paxos";
    protocol = Cons.Quorum_paxos.protocol;
    make_fd = (fun fp ~seed -> Fd.Oracle.history cons_oracle fp ~seed);
    make_inputs = (fun _ -> at_zero proposals);
    invariant =
      Invariant.decision
        (Cons.Spec.consensus ~pp:Format.pp_print_int ~proposals);
    stop = Sim.Engine.stop_when_all_correct_output;
    max_steps = 600;
    detect_quiescence = true;
    time_invariant_fd = true;
    pp_out = Format.pp_print_int;
  }

(* A deliberately broken variant: process 0 announces a value nobody
   proposed.  Violates validity on every schedule — the "can the checker
   actually find bugs?" direction of the test suite. *)
let broken_validity ~n =
  let base = quorum_paxos ~n in
  let corrupt (ctx : _ Sim.Protocol.ctx) acts =
    if ctx.Sim.Protocol.self = 0 then
      List.map
        (function
          | Sim.Protocol.Output v -> Sim.Protocol.Output (v + 100)
          | a -> a)
        acts
    else acts
  in
  let p = base.Harness.protocol in
  {
    base with
    Harness.name = "cons.broken_validity";
    protocol =
      {
        Sim.Protocol.init = p.Sim.Protocol.init;
        on_step =
          (fun ctx st m ->
            let st, acts = p.Sim.Protocol.on_step ctx st m in
            (st, corrupt ctx acts));
        on_input =
          (fun ctx st i ->
            let st, acts = p.Sim.Protocol.on_input ctx st i in
            (st, corrupt ctx acts));
      };
  }

(* ---- atomic registers from Σ -------------------------------------- *)

let pp_abd_out fmt (o : int Regs.Abd.output) =
  let pp_op fmt = function
    | Regs.Abd.Read r -> Format.fprintf fmt "read(%d)" r
    | Regs.Abd.Write (r, v) -> Format.fprintf fmt "write(%d, %d)" r v
  in
  match o with
  | Regs.Abd.Invoked { op_seq; op } ->
    Format.fprintf fmt "invoke #%d %a" op_seq pp_op op
  | Regs.Abd.Responded { op_seq; resp = Regs.Abd.Read_value (r, v) } ->
    Format.fprintf fmt "resp   #%d read(%d) = %a" op_seq r
      (Format.pp_print_option ~none:(fun fmt () ->
           Format.pp_print_string fmt "none")
         Format.pp_print_int)
      v
  | Regs.Abd.Responded { op_seq; resp = Regs.Abd.Written r } ->
    Format.fprintf fmt "resp   #%d write(%d) ok" op_seq r

let abd ~n =
  (* each process writes its own value to register 0, then reads it back;
     the second invocation queues behind the first *)
  let inputs =
    List.concat_map
      (fun p -> [ (0, p, Regs.Abd.Write (0, 100 + p)); (0, p, Regs.Abd.Read 0) ])
      (Sim.Pid.all n)
  in
  let responded (e : _ Sim.Trace.event) p =
    Sim.Pid.equal e.Sim.Trace.pid p
    && match e.Sim.Trace.value with Regs.Abd.Responded _ -> true | _ -> false
  in
  {
    Harness.name = "regs.abd";
    protocol = Regs.Abd.protocol ~registers:1;
    make_fd = (fun fp ~seed -> Fd.Oracle.history Fd.Sigma.oracle_exact fp ~seed);
    make_inputs = (fun _ -> inputs);
    invariant = Invariant.linearizable ();
    stop =
      (fun fp outs ->
        Sim.Pidset.for_all
          (fun p -> List.length (List.filter (fun e -> responded e p) outs) >= 2)
          (Sim.Failure_pattern.correct fp));
    max_steps = 600;
    detect_quiescence = true;
    time_invariant_fd = true;
    pp_out = pp_abd_out;
  }

(* ---- atomic commit ------------------------------------------------ *)

let two_phase_commit ~n =
  let votes = List.map (fun p -> (p, Qcnbac.Types.Yes)) (Sim.Pid.all n) in
  {
    Harness.name = "qcnbac.two_phase_commit";
    protocol = Qcnbac.Two_phase_commit.protocol;
    make_fd = (fun _ ~seed:_ _ _ -> ());
    make_inputs = (fun _ -> at_zero votes);
    invariant = Invariant.decision (Qcnbac.Nbac_spec.problem ~votes);
    stop = Sim.Engine.stop_when_all_correct_output;
    max_steps = 600;
    detect_quiescence = true;
    time_invariant_fd = true;
    pp_out = Qcnbac.Types.pp_outcome;
  }

let qc_psi ~n =
  let proposals = proposals ~n in
  {
    Harness.name = "qcnbac.qc_psi";
    protocol = Qcnbac.Qc_psi.protocol;
    make_fd = (fun fp ~seed -> Fd.Oracle.history Fd.Psi.oracle fp ~seed);
    make_inputs = (fun _ -> at_zero proposals);
    invariant =
      Invariant.decision
        (Qcnbac.Qc_spec.problem ~pp:Format.pp_print_int ~proposals);
    stop = Sim.Engine.stop_when_all_correct_output;
    (* Ψ outputs ⊥ for a while before committing to a mode, so the run
       cannot quiesce early; the step bound must cover the ⊥ period. *)
    max_steps = 4_000;
    detect_quiescence = false;
    (* Psi's history is *not* time-invariant: it reads bot before the
       switch time, so states may not be merged modulo the clock *)
    time_invariant_fd = false;
    pp_out = Qcnbac.Types.pp_qc_decision Format.pp_print_int;
  }

(* ---- eventually-consistent store ---------------------------------- *)

let pp_fp_out fmt (Ec.Replica.Fp fp) =
  Format.fprintf fmt "fp %s" (String.sub fp 0 (min 8 (String.length fp)))

let ec_store ~n =
  (* every process writes the same key concurrently: convergence forces
     the LWW total order to win identically everywhere, whatever the
     delivery schedule and whoever crashes *)
  let inputs =
    List.map
      (fun p -> (0, p, Ec.Replica.Put { key = "x"; value = "v" ^ string_of_int p }))
      (Sim.Pid.all n)
  in
  {
    Harness.name = "ec.store";
    protocol = Ec.Replica.make ~sync_every:2 ~emit_fp:true ();
    make_fd =
      (* Ω-EC sampled as the instant-Ω oracle with a constant epoch: the
         detector only steers which peer is digested first, so the exact
         epoch dynamics are irrelevant to the explored state space. *)
      (fun fp ~seed ->
        let h = Fd.Oracle.history Fd.Omega.oracle_instant fp ~seed in
        fun p t -> (h p t, 0));
    make_inputs = (fun _ -> inputs);
    invariant = Invariant.ec_convergence ();
    (* run to quiescence: anti-entropy must go quiet on its own.  With a
       crashed peer the survivors keep (backed-off) digesting it forever,
       so those runs end at the step bound instead — [must_terminate]
       still arms there, and the correct replicas must have converged. *)
    stop = (fun _ _ -> false);
    max_steps = 600;
    detect_quiescence = true;
    time_invariant_fd = true;
    pp_out = pp_fp_out;
  }

(* ---- the ring detector itself ------------------------------------- *)

(* Eventual leader agreement of Fd.Emulated.Omega_ring, checked on the
   implementation itself rather than an oracle: every correct process's
   last leader estimate must settle on the smallest correct id, whatever
   the round interleaving and whoever crashes.  The protocol under test
   is the detector's own emulated layer, wrapped to emit its leader
   estimate as an output whenever the estimate changes.

   Liveness is encoded through [stop] and the step bound: a run stops
   (and is vacuously fine) the moment all correct processes agree on the
   smallest *correct* id — pre-crash agreement on a process that is due
   to crash does not stop the run — and a run that exhausts [max_steps]
   without reaching that agreement arms [must_terminate], where [final]
   reports it as a violation. *)
let ring_agreed fp outs =
  let correct = Sim.Failure_pattern.correct fp in
  match Sim.Pidset.min_elt_opt correct with
  | None -> true
  | Some lmin ->
    let last = Hashtbl.create 8 in
    List.iter
      (fun (e : _ Sim.Trace.event) ->
        Hashtbl.replace last e.Sim.Trace.pid e.Sim.Trace.value)
      outs;
    Sim.Pidset.for_all
      (fun p -> Hashtbl.find_opt last p = Some lmin)
      correct

let fd_ring ~n:_ =
  let det = Fd.Emulated.Omega_ring.detector ~period:1 in
  let proto = det.Sim.Layered.proto in
  let protocol =
    {
      Sim.Protocol.init =
        (fun ~n self -> (proto.Sim.Protocol.init ~n self, None));
      on_step =
        (fun ctx (st, last) m ->
          let st, acts = proto.Sim.Protocol.on_step ctx st m in
          let l = Fd.Emulated.Omega_ring.leader st in
          (* the detector's unit outputs (it emits none) give way to the
             leader estimate *)
          let acts =
            Sim.Protocol.map_actions ~msg:Fun.id ~out:(fun () -> None) acts
          in
          if last = Some l then ((st, last), acts)
          else ((st, Some l), acts @ [ Sim.Protocol.Output l ]));
      on_input = (fun _ st (_ : unit) -> (st, []));
    }
  in
  {
    Harness.name = "fd.ring";
    protocol;
    make_fd = (fun _ ~seed:_ _ _ -> ());
    make_inputs = (fun _ -> []);
    invariant =
      {
        Invariant.name = "ring_leader_agreement";
        (* transient estimates are legal — there is no online clause *)
        on_output = (fun _ _ -> Ok ());
        final =
          (fun fp ~must_terminate outs ->
            if (not must_terminate) || ring_agreed fp outs then Ok ()
            else
              Error
                (Format.asprintf
                   "eventual leader agreement violated: correct processes \
                    did not all settle on %a within the step budget"
                   (Format.pp_print_option Sim.Pid.pp)
                   (Sim.Pidset.min_elt_opt (Sim.Failure_pattern.correct fp))));
      };
    stop = ring_agreed;
    (* with period 1 the initial Adaptive timeout is 4 steps: a crash at
       the default horizon (4) is convicted by ~step 10 and the Suspect
       broadcast settles everyone within a few more rounds *)
    max_steps = 32;
    detect_quiescence = false;
    time_invariant_fd = true;
    pp_out = Sim.Pid.pp;
  }

(* ---- registry ----------------------------------------------------- *)

type packed = Packed : ('st, 'msg, 'fd, 'inp, 'out) Harness.target -> packed

let all ~n =
  [
    ("cons.quorum_paxos", Packed (quorum_paxos ~n));
    ("cons.broken_validity", Packed (broken_validity ~n));
    ("regs.abd", Packed (abd ~n));
    ("qcnbac.two_phase_commit", Packed (two_phase_commit ~n));
    ("qcnbac.qc_psi", Packed (qc_psi ~n));
    ("ec.store", Packed (ec_store ~n));
    ("fd.ring", Packed (fd_ring ~n));
  ]

let find name ~n = List.assoc_opt name (all ~n)

let names = List.map fst (all ~n:2)
