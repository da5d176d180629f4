(* Chaos harness for the sharded service: Net.Chaos's core with one
   group per shard, a Zipfian workload through the ring, a scripted
   reconfiguration and the sharded invariants (lib/shard/chaos.mli). *)

module Chaos = Net.Chaos

type config = {
  shards : int;
  replicas : int;
  spares : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
  schedule : Net.Nemesis.schedule;  (* per shard; pids are group-local *)
  cmds : int;
  cmd_every : int;
  reconfig_at : int option;
      (* rotate every shard's membership at this round *)
  reads : int;  (* quiescent quorum reads after the run *)
}

let default ~shards ~replicas ~schedule =
  {
    shards;
    replicas;
    spares = 1;
    seed = 0;
    rounds = 3_000;
    period = 16;
    detector = Fd.Emulated.Omega.Heartbeat;
    schedule;
    cmds = 40;
    cmd_every = 50;
    reconfig_at = None;
    reads = 8;
  }

let watchdog = 900

type detail = {
  applied : int array;  (* per shard: longest live applied log *)
  epochs : int array;  (* per shard: final installed epoch *)
  reconfig_done : bool;
  reads_ok : int;
  reads_bad : int;
}

type report = detail Chaos.report

let pp_report =
  Chaos.pp (fun ppf (r : report) ->
      let d = r.detail in
      Format.fprintf ppf
        "submitted   %d@,applied     %a@,epochs      %a@,reconfig    \
         %s@,reads       %d ok, %d bad@,%a"
        r.submitted Chaos.pp_ints d.applied Chaos.pp_ints d.epochs
        (if d.reconfig_done then "completed" else "none/incomplete")
        d.reads_ok d.reads_bad
        (Chaos.pp_agreement " per shard") r)

let run ?collector cfg =
  let h =
    Chaos.create ?collector ~groups:cfg.shards ~seed:cfg.seed
      ~n:(cfg.replicas + cfg.spares) cfg.schedule
  in
  let cluster =
    Cluster.create ~period:cfg.period ~detector:cfg.detector
      ?sink:(Option.map (fun s ~shard:_ _ -> Some s) (Chaos.sink h))
      ~wrap:(fun ~shard -> Chaos.wrap h shard)
      ~shards:cfg.shards ~replicas:cfg.replicas ~spares:cfg.spares ()
  in
  let group = Cluster.group cluster in
  let value (_, (c : Replica.cmd)) =
    match c.Cons.Smr.payload with
    | Replica.App a -> Some a.value
    | Replica.Reconfig _ -> None
  in
  let views =
    Array.init cfg.shards (fun s ->
        let g = group s in
        {
          Chaos.step = Group.step_one g;
          crash = Group.crash g;
          alive = (fun p -> not (Group.crashed g p));
          members =
            (fun () -> Sim.Pidset.elements (Group.config g).Epoch.members);
          log = Group.applied_log g;
          cmd = value;
        })
  in
  let shards f = for s = 0 to cfg.shards - 1 do f s done in
  (* workload: one write per cmd_every rounds, Zipfian (θ = 0.99) over 64
     keys, at the lowest live member of the key's shard; and the scripted
     membership rotation *)
  let zipf = Zipf.create ~theta:0.99 ~seed:(cfg.seed + 7919) ~keys:64 () in
  let written = ref [] in
  let expected_cfg : Epoch.config option array = Array.make cfg.shards None in
  let workload r =
    let k = Chaos.n_submitted h in
    (if r mod cfg.cmd_every = 0 && k < cfg.cmds then
       let key = Zipf.next_key zipf in
       let s = Ring.shard_of (Cluster.ring cluster) key in
       let g = group s in
       match List.filter (Epoch.is_member (Group.config g)) (Group.live g) with
       | [] -> ()
       | origin :: _ ->
         let value = Printf.sprintf "v-%d" k in
         Group.submit g origin (Replica.App { key; value });
         written := key :: !written;
         Chaos.submitted h s origin value);
    if cfg.reconfig_at = Some r then
      shards (fun s ->
          let g = group s in
          match Epoch.rotate (Group.config g) ~universe:(Group.universe g) with
          | None -> Chaos.fail_at h r " shard %d: no spare to rotate in" s
          | Some next ->
            if Cluster.reconfig cluster ~shard:s next then
              expected_cfg.(s) <- Some next
            else Chaos.fail_at h r " shard %d: reconfig not accepted" s)
  in
  (* the epoch handoff, per shard: same-epoch quorums intersect (judged
     by Fd.Sigma.safety once per epoch over [held], each distinct quorum
     of that shard and epoch with its first sample, as in Net.Chaos),
     different-epoch replicas differ in applied count, and every held
     quorum is of the replica's own, installed epoch *)
  let held = Hashtbl.create 8 in
  let handoff =
    Chaos.sampled h (fun r ->
        shards (fun s ->
            let g = group s in
            let fail_here fmt = Chaos.fail_at h r (" shard %d: " ^^ fmt) s in
            let ps = Chaos.live h s in
            let epoch p = Replica.epoch (Group.state g p) in
            let quorum e pid =
              if epoch pid <> e then None
              else
                Some
                  {
                    Sim.Trace.time = r;
                    pid;
                    value =
                      Fd.Emulated.Sigma_epoch.current
                        (Replica.sigma_state (Group.state g pid));
                  }
            in
            List.iter
              (fun e ->
                let quorums =
                  Fd.Sigma.distinct
                    (Option.value ~default:[] (Hashtbl.find_opt held (s, e))
                    @ List.filter_map (quorum e) ps)
                in
                Hashtbl.replace held (s, e) quorums;
                Result.iter_error (fail_here "epoch %d: %s" e)
                  (Fd.Sigma.safety quorums))
              (List.sort_uniq Int.compare (List.map epoch ps));
            Chaos.pairs
              (fun p q ->
                let sp = Group.state g p and sq = Group.state g q in
                let ep = Replica.epoch sp and eq = Replica.epoch sq in
                if ep <> eq && Replica.applied sp = Replica.applied sq then
                  fail_here
                    "%d and %d in epochs %d/%d with equal applied count %d" p q
                    ep eq (Replica.applied sp))
              ps;
            List.iter
              (fun p ->
                let st = Group.state g p in
                let si = Replica.sigma_state st in
                let epoch = Fd.Emulated.Sigma_epoch.epoch si in
                if Fd.Emulated.Sigma_epoch.quorum_epoch si <> epoch then
                  fail_here "replica %d outputs a stale-epoch quorum" p;
                if epoch <> Replica.epoch st then
                  fail_here "replica %d Σ epoch != installed epoch" p)
              ps))
  in
  (* quiescent reads: the router's quorum read must return exactly the
     last applied write of each sampled key, wherever a member majority
     survives *)
  let router =
    Router.create ~ring:(Cluster.ring cluster) ~ops:(Cluster.ops cluster)
      ~step:(fun () -> Chaos.round h)
  in
  let reads_ok = ref 0 and reads_bad = ref 0 in
  let read key =
    let s = Ring.shard_of (Cluster.ring cluster) key in
    let g = group s in
    if Chaos.quorate h s then
      let longest =
        List.fold_left
          (fun acc q ->
            let l = Group.applied_log g q in
            if List.length l > List.length acc then l else acc)
          [] (Group.live g)
      in
      let expected =
        List.fold_left
          (fun acc (_, (c : Replica.cmd)) ->
            match c.Cons.Smr.payload with
            | Replica.App a when a.key = key -> Some a.value
            | _ -> acc)
          None longest
      in
      let show = Option.value ~default:"<none>" in
      match Router.read ~max_rounds:(2 * watchdog) router ~key with
      | Ok got when got = expected -> incr reads_ok
      | Ok got ->
        incr reads_bad;
        Chaos.fail h "read %s: got %s, expected %s from the applied log" key
          (show got) (show expected)
      | Error e ->
        incr reads_bad;
        Chaos.fail h "read %s: %s" key e
  in
  (* reconfiguration completed: every live member of the expected final
     configuration installed it (when a member majority survives) *)
  let reconfig_done = ref false in
  let reconfigured () =
    reconfig_done := Array.exists Option.is_some expected_cfg;
    Array.iteri
      (fun s ->
        Option.iter (fun exp ->
            let g = group s in
            let members = List.filter (Epoch.is_member exp) (Group.live g) in
            if List.length members < Epoch.majority exp then
              reconfig_done := false
            else
              List.iter
                (fun p ->
                  let got = Replica.config (Group.state g p) in
                  if got <> exp then begin
                    reconfig_done := false;
                    Chaos.fail h
                      "shard %d: replica %d ended in %a, expected %a after \
                       reconfiguration"
                      s p Epoch.pp got Epoch.pp exp
                  end)
                members))
      expected_cfg
  in
  let report =
    Chaos.drive h views ~watchdog ~rounds:cfg.rounds ~workload
      ~detail:(fun () ->
        {
          applied =
            Array.init cfg.shards (fun s -> Group.applied_max (group s));
          epochs =
            Array.init cfg.shards (fun s ->
                (Group.config (group s)).Epoch.epoch);
          reconfig_done = !reconfig_done;
          reads_ok = !reads_ok;
          reads_bad = !reads_bad;
        })
      [
        Chaos.at_end (fun () ->
            List.sort_uniq compare !written
            |> List.filteri (fun i _ -> i < cfg.reads)
            |> List.iter read);
        handoff;
        Chaos.at_end reconfigured;
      ]
  in
  Option.iter
    (fun m ->
      shards (fun s ->
          let labels = [ ("shard", string_of_int s) ] in
          Obs.Metrics.incr_l ~by:report.detail.applied.(s) m "shard.applied"
            ~labels;
          Obs.Metrics.incr_l ~by:report.detail.epochs.(s) m "shard.epoch"
            ~labels))
    (Chaos.metrics h);
  report
