type output =
  | Bot
  | Fs_mode of Fs.output
  | Cons_mode of Omega.output * Sigma.output

let pp_output fmt = function
  | Bot -> Format.pp_print_string fmt "⊥"
  | Fs_mode v -> Format.fprintf fmt "FS:%a" Fs.pp_output v
  | Cons_mode (l, q) ->
    Format.fprintf fmt "(Ω=%a,Σ=%a)" Sim.Pid.pp l Sim.Pidset.pp q

type mode = Consensus_mode | Failure_mode

let generate ~mode fp rng =
  let n = Sim.Failure_pattern.n fp in
  let first_crash = Sim.Failure_pattern.first_crash fp in
  let mode =
    match mode with
    | Some m -> m
    | None -> (
      match first_crash with
      | None -> Consensus_mode
      | Some _ ->
        if Sim.Rng.bool (Sim.Rng.split rng 1) then Failure_mode
        else Consensus_mode)
  in
  (match (mode, first_crash) with
  | Failure_mode, None ->
    invalid_arg "Psi: Failure_mode requires a failure in the pattern"
  | (Failure_mode | Consensus_mode), _ -> ());
  let switch_base =
    match (mode, first_crash) with
    | Failure_mode, Some t0 -> t0 + 1
    | Failure_mode, None -> assert false
    | Consensus_mode, _ -> 0
  in
  let sw_rng = Sim.Rng.split rng 2 in
  let switch =
    Array.init n (fun p ->
        switch_base + Sim.Rng.int (Sim.Rng.derive sw_rng p) 40)
  in
  match mode with
  | Failure_mode ->
    let fs = Fs.oracle.Oracle.generate fp (Sim.Rng.split rng 3) in
    fun p t -> if t >= switch.(p) then Fs_mode (fs p t) else Bot
  | Consensus_mode ->
    let om = Omega.oracle.Oracle.generate fp (Sim.Rng.split rng 4) in
    let sg = Sigma.oracle.Oracle.generate fp (Sim.Rng.split rng 5) in
    fun p t -> if t >= switch.(p) then Cons_mode (om p t, sg p t) else Bot

let oracle = Oracle.make ~name:"Psi" (generate ~mode:None)

let oracle_forced m =
  let name =
    match m with
    | Consensus_mode -> "Psi(cons)"
    | Failure_mode -> "Psi(fs)"
  in
  Oracle.make ~name (generate ~mode:(Some m))

type observed = No_switch | Saw_fs | Saw_cons

let classify fp ~horizon h p =
  (* Check the ⊥-prefix shape for process [p] and report what it switched
     to, with the switch time. *)
  let rec scan t saw switch_time =
    if t > horizon then Ok (saw, switch_time)
    else
      match (h p t, saw) with
      | Bot, No_switch -> scan (t + 1) No_switch switch_time
      | Bot, (Saw_fs | Saw_cons) ->
        Error
          (Format.asprintf "%a output ⊥ at t=%d after switching" Sim.Pid.pp p
             t)
      | Fs_mode _, (No_switch | Saw_fs) -> scan (t + 1) Saw_fs
          (match switch_time with None -> Some t | s -> s)
      | Cons_mode _, (No_switch | Saw_cons) -> scan (t + 1) Saw_cons
          (match switch_time with None -> Some t | s -> s)
      | Fs_mode _, Saw_cons | Cons_mode _, Saw_fs ->
        Error
          (Format.asprintf "%a mixed FS and (Ω,Σ) outputs" Sim.Pid.pp p)
  in
  ignore fp;
  scan 0 No_switch None

let check fp ~horizon h =
  let n = Sim.Failure_pattern.n fp in
  let correct = Sim.Failure_pattern.correct fp in
  let first_crash = Sim.Failure_pattern.first_crash fp in
  let classifications =
    List.map (fun p -> (p, classify fp ~horizon h p)) (Sim.Pid.all n)
  in
  let errors =
    List.filter_map
      (fun (_, r) -> match r with Error e -> Some e | Ok _ -> None)
      classifications
  in
  match errors with
  | e :: _ -> Error e
  | [] -> (
    let oks =
      List.filter_map
        (fun (p, r) -> match r with Ok v -> Some (p, v) | Error _ -> None)
        classifications
    in
    let modes =
      List.filter_map
        (fun (_, (saw, _)) ->
          match saw with
          | Saw_fs -> Some `Fs
          | Saw_cons -> Some `Cons
          | No_switch -> None)
        oks
    in
    let distinct = List.sort_uniq compare modes in
    match distinct with
    | [] ->
      (* Nobody switched within the horizon: legal prefix only if some
         correct process could still switch later; we flag it because our
         oracles always switch well within test horizons. *)
      if Sim.Pidset.is_empty correct then Error "no correct process"
      else Error "no process switched within the horizon"
    | [ `Fs ] | [ `Cons ] -> (
      let mode = List.hd distinct in
      match mode with
      | `Fs -> (
        match first_crash with
        | None -> Error "FS mode without any failure"
        | Some t0 -> (
          (* Switches must happen at or after the first crash. *)
          let early =
            List.filter_map
              (fun (p, (_, sw)) ->
                match sw with
                | Some t when t < t0 -> Some (p, t)
                | Some _ | None -> None)
              oks
          in
          match early with
          | (p, t) :: _ ->
            Error
              (Format.asprintf
                 "%a switched to FS at t=%d before the first crash (t=%d)"
                 Sim.Pid.pp p t t0)
          | [] ->
            (* The post-switch values must form a legal FS suffix: check
               accuracy pointwise and completeness at the horizon. *)
            let fs_view p t =
              match h p t with Fs_mode v -> v | Bot | Cons_mode _ -> Fs.Green
            in
            Fs.check fp ~horizon fs_view))
      | `Cons ->
        (* Post-switch values must embed into legal Ω and Σ histories. *)
        let omega_view p t =
          match h p t with
          | Cons_mode (l, _) -> Some l
          | Bot | Fs_mode _ -> None
        in
        let last_leader p =
          match omega_view p horizon with Some l -> Some l | None -> None
        in
        let leaders =
          Sim.Pidset.elements correct |> List.filter_map last_leader
          |> List.sort_uniq Sim.Pid.compare
        in
        (match leaders with
        | [ l ] when Sim.Pidset.mem l correct ->
          let sigma_outputs =
            List.concat_map
              (fun pid ->
                List.init (horizon + 1) (fun time ->
                    match h pid time with
                    | Cons_mode (_, value) -> [ { Sim.Trace.time; pid; value } ]
                    | Bot | Fs_mode _ -> [])
                |> List.concat)
              (Sim.Pid.all n)
          in
          Sigma.check fp ~horizon sigma_outputs
        | [ l ] ->
          Error
            (Format.asprintf "eventual leader %a is faulty" Sim.Pid.pp l)
        | [] -> Error "no (Ω,Σ) samples at the horizon"
        | _ :: _ :: _ -> Error "correct processes disagree on the leader"))
    | _ :: _ :: _ -> Error "processes switched to different modes")
