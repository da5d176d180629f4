(* The EC chaos harness: Net.Chaos's core pointed at the mixed node,
   with the invariants of the EC regime (lib/ec/chaos.mli). *)

module Nemesis = Net.Nemesis
module Local = Net.Local
module Chaos = Net.Chaos

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;
  window : int;
  sync_every : int;
  schedule : Nemesis.schedule;
  puts_every : int;  (* every live node writes its session keys this often *)
  lin_every : int;
  lin_cmds : int;
}

(* Every node a singleton group: no majority component anywhere, so the
   quorum path provably cannot decide — the regime where only the EC
   path serves. *)
let default_schedule n =
  [
    (400, Nemesis.Partition (List.map Sim.Pidset.singleton (Sim.Pid.all n)));
    (1600, Nemesis.Heal);
  ]

(* The post-heal tail must cover the ARQ redelivery of the whole cut-era
   backlog (two towers' heartbeats from each of the n-1 peers, drained at
   the model's one receive per round) before the stores can converge and
   the queued SMR commands can decide — so the tail, the watchdog and the
   convergence bound all scale with n-1. *)
let default ~n ~schedule =
  {
    n;
    seed = 0;
    rounds = 1_600 + (1_200 * (n - 1));
    period = 16;
    window = 4;
    sync_every = 8;
    schedule;
    puts_every = 10;
    lin_every = 100;
    lin_cmds = 12;
  }

(* rounds after the cut for in-flight decisions to land; keys per session *)
let grace = 100
let keys = 4

(* The cut window of the schedule: the first partition/isolate command to
   the first Heal after it.  The partition-specific invariants (EC flows,
   SMR frozen) only fire when the schedule has one. *)
let cut_window schedule =
  let start =
    List.find_map
      (fun (t, c) ->
        match c with
        | Nemesis.Partition _ | Nemesis.Isolate _ -> Some t
        | _ -> None)
      schedule
  in
  Option.bind start (fun s ->
      List.find_map
        (fun (t, c) -> if c = Nemesis.Heal && t > s then Some (s, t) else None)
        schedule)

type detail = {
  ec_puts : int array;  (* puts submitted per node *)
  ec_puts_in_partition : int;  (* store-rev growth inside the cut window *)
  smr_applied : int array;
  smr_frozen_in_partition : bool;
  converged_in : int option;  (* rounds from last write to equal fingerprints *)
}

type report = detail Chaos.report

let pp_report =
  Chaos.pp (fun ppf (r : report) ->
      let d = r.detail in
      Format.fprintf ppf
        "ec puts     %a  (in partition: %d)@,smr         submitted %d, applied \
         %a%s@,"
        Chaos.pp_ints d.ec_puts d.ec_puts_in_partition r.submitted
        Chaos.pp_ints d.smr_applied
        (if d.smr_frozen_in_partition then ", frozen during partition" else "");
      (match d.converged_in with
      | Some c ->
        Format.fprintf ppf "converged   in %d rounds after last write@," c
      | None -> Format.fprintf ppf "converged   NOT within bound@,");
      Format.fprintf ppf "%a%a" (Chaos.pp_heals "EC leader") r
        (Chaos.pp_agreement "") r)

let run ?collector cfg =
  let h =
    Chaos.create ?collector ~logs:"SMR logs" ~cmds:"lin commands"
      ~seed:cfg.seed ~n:cfg.n cfg.schedule
  in
  let metrics = Chaos.metrics h in
  let ctrl = Chaos.ctrl h 0 in
  let heal_bound = 500 * (cfg.n - 1) in
  let cluster =
    Local.make
      ~sink:(fun _ -> Chaos.sink h)
      ~wrap:(Chaos.wrap h 0)
      ~codec:(Codecs.mixed Net.Wire.string_c)
      ~n:cfg.n
      (Mixed.protocol ~window:cfg.window ~sync_every:cfg.sync_every
         ~period:cfg.period ())
  in
  let live () = Chaos.live h 0 in
  let state p = Local.cluster_state cluster p in
  let store_of p = Mixed.store (state p) in
  let smr_applied_at p = Cons.Smr.applied (Mixed.smr_state (state p)) in
  let ec_leader _ p =
    (Fd.Emulated.Omega_ec.detector ~period:cfg.period).Sim.Layered.current
      (Mixed.ec_detector (state p))
    |> fst
  in
  let decided_log p =
    List.filter_map
      (function Sim.Layered.Detector e -> Some e | Sim.Layered.Main _ -> None)
      (Local.cluster_outputs cluster p)
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 (live ()) in
  let rev_total () = sum (fun p -> Store.rev (store_of p)) in
  let smr_total () = sum smr_applied_at in
  let ec_puts = Array.make cfg.n 0 in
  (* per node: key -> (value, node step-count at submit) for RYW *)
  let last_put = Array.init cfg.n (fun _ -> Hashtbl.create 8) in
  let window = cut_window cfg.schedule in
  let stop_puts =
    match window with Some (_, s) -> s | None -> cfg.rounds / 2
  in
  let workload r =
    (* EC: every session writes its own namespace at every live node —
       including (especially) during the partition *)
    if r mod cfg.puts_every = 0 && r <= stop_puts then
      List.iter
        (fun p ->
          let i = ec_puts.(p) in
          ec_puts.(p) <- i + 1;
          let key = Printf.sprintf "s%d-k%d" p (i mod keys) in
          let value = Printf.sprintf "v%d-%d" p i in
          Local.cluster_submit cluster p
            (Sim.Layered.Main (Replica.Put { key; value }));
          Hashtbl.replace last_put.(p) key (value, Local.cluster_now cluster p);
          Option.iter
            (fun m ->
              Obs.Metrics.incr_l m "ec.puts"
                ~labels:[ ("node", string_of_int p) ])
            metrics)
        (live ());
    (* linearizable workload at the lowest live node *)
    let k = Chaos.n_submitted h in
    if r mod cfg.lin_every = 0 && k < cfg.lin_cmds then
      match live () with
      | [] -> ()
      | p :: _ ->
        let payload = Printf.sprintf "lin-%d" k in
        Local.cluster_submit cluster p (Sim.Layered.Detector payload);
        Chaos.submitted h 0 p payload
  in
  (* EC availability and SMR freeze over the cut window.  The freeze is
     only owed when no majority component exists anywhere in the window;
     it is measured regardless. *)
  let in_partition = ref 0 and frozen = ref true in
  let cut =
    match window with
    | None -> []
    | Some (start, stop) ->
      let rev0 = ref 0 and smr0 = ref 0 and majority = ref false in
      [
        {
          Chaos.online =
            (fun r ->
              if r >= start && r < stop && Nemesis.majority_component ctrl
              then majority := true;
              if r = start + grace then begin
                rev0 := rev_total ();
                smr0 := smr_total ()
              end;
              if r = stop then begin
                in_partition := rev_total () - !rev0;
                if !in_partition <= 0 then
                  Chaos.fail h
                    "partition %d-%d: no EC write progress in the minority \
                     window"
                    start stop;
                frozen := smr_total () = !smr0;
                if not (!frozen || !majority) then
                  Chaos.fail h
                    "partition %d-%d: SMR applied grew from %d to %d with no \
                     majority component"
                    start stop !smr0 (smr_total ())
              end);
          final = ignore;
        };
      ]
  in
  (* store convergence after the last write *)
  let converged = ref None in
  let fingerprints_equal () =
    List.map (fun p -> Store.fingerprint (store_of p)) (live ())
    |> List.sort_uniq String.compare |> List.length <= 1
  in
  let convergence =
    {
      Chaos.online =
        (fun r ->
          if r > stop_puts && !converged = None && not (Nemesis.cut_active ctrl)
          then
            if fingerprints_equal () then begin
              converged := Some (r - stop_puts);
              Option.iter
                (fun m -> Obs.Metrics.set m "ec.converged_in" (r - stop_puts))
                metrics
            end
            else if r - stop_puts > heal_bound then begin
              Chaos.fail h
                "stores not converged within %d rounds of the last write"
                heal_bound;
              converged := Some (-1)
            end);
      final =
        (fun () ->
          if !converged = None then
            if fingerprints_equal () then
              converged := Some (cfg.rounds - stop_puts)
            else Chaos.fail h "end of run: stores never converged");
    }
  in
  (* reference store: the join of every live replica's entries — what all
     of them will hold once anti-entropy finishes *)
  let sample_gauges m =
    let live = live () in
    let reference =
      List.fold_left
        (fun acc p ->
          let s = store_of p in
          snd (Store.merge_entries acc (Store.entries_for s (Store.keys s))))
        (Store.create ~n:cfg.n 0) live
    in
    let stale p key =
      match (Store.get (store_of p) key, Store.get reference key) with
      | Some held, Some re -> not (Entry.equal held re)
      | _ -> true
    in
    let keys = Store.keys reference in
    Obs.Metrics.set m "ec.divergent_keys"
      (List.length
         (List.filter (fun k -> List.exists (fun p -> stale p k) live) keys));
    List.iter
      (fun p ->
        Obs.Metrics.set_l m "ec.replication_lag"
          ~labels:[ ("node", string_of_int p) ]
          (List.length (List.filter (stale p) keys)))
      live
  in
  (* read-your-writes: a session's node always reads back its latest
     write once it has stepped past the submit *)
  let sessions =
    Chaos.sampled h (fun r ->
        List.iter
          (fun p ->
            Hashtbl.iter
              (fun key (value, at_step) ->
                if Local.cluster_now cluster p > at_step then
                  match Store.get (store_of p) key with
                  | Some e when String.equal e.Entry.value value -> ()
                  | Some e ->
                    Chaos.fail_at h r
                      ": node %d reads %S for its own key %s, wrote %S" p
                      e.Entry.value key value
                  | None ->
                    Chaos.fail_at h r ": node %d lost its own key %s" p key)
              last_put.(p))
          (live ());
        Option.iter sample_gauges metrics)
  in
  Chaos.drive h [| Chaos.local h cluster decided_log |]
    ~reagree:
      { leader = ec_leader; metric = "ec.heal_reagree_rounds"; heal_bound }
    ~watchdog:(600 * (cfg.n - 1))
    ~rounds:cfg.rounds ~workload
    ~detail:(fun () ->
      {
        ec_puts;
        ec_puts_in_partition = !in_partition;
        smr_applied = Array.init cfg.n smr_applied_at;
        smr_frozen_in_partition = !frozen;
        converged_in =
          (match !converged with Some d when d >= 0 -> Some d | _ -> None);
      })
    (cut @ [ convergence; sessions ])
