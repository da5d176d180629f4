(* The chaos harness core, then its SMR configuration (chaos.mli). *)

let check_every = 50
let resend_every = 8

type 'e group = {
  step : Sim.Pid.t -> unit;
  crash : Sim.Pid.t -> unit;
  alive : Sim.Pid.t -> bool;
  members : unit -> Sim.Pid.t list;
  log : Sim.Pid.t -> 'e list;
  cmd : 'e -> string option;
}

type invariant = { online : int -> unit; final : unit -> unit }

type reagree = {
  leader : int -> Sim.Pid.t -> Sim.Pid.t;
  metric : string;
  heal_bound : int;
}

type heal = { heal_round : int; reconverged_in : int option }

type 'a report = {
  rounds_run : int;
  submitted : int;
  logs_identical : bool;
  all_applied : bool;
  heals : heal list;
  failures : string list;
  nemesis : Nemesis.stats;
  rel_retransmits : int;
  detail : 'a;
}

type 'e t = {
  n : int;
  schedule : Nemesis.schedule;
  sink : Sim.Event.sink option;
  metrics : Obs.Metrics.t option;
  ctrls : Nemesis.ctrl array;
  logs_label : string;
  cmds_label : string;
  mutable rels : Rel.t list;
  mutable groups : 'e group array;
  mutable invariants : invariant list;
  mutable round : int;
  mutable failures : string list;  (* newest first *)
  mutable submitted : (int * Sim.Pid.t * string) list;  (* newest first *)
}

let create ?collector ?(groups = 1) ?(logs = "logs") ?(cmds = "commands")
    ~seed ~n schedule =
  let sink = Option.map (fun (c : Obs.Collector.t) -> c.sink) collector in
  let metrics =
    Option.map (fun (c : Obs.Collector.t) -> c.metrics) collector
  in
  {
    n;
    schedule;
    sink;
    metrics;
    ctrls =
      Array.init groups (fun g ->
          Nemesis.create ?sink ?metrics ~seed:(seed + g) ~n schedule);
    logs_label = logs;
    cmds_label = cmds;
    rels = [];
    groups = [||];
    invariants = [];
    round = 0;
    failures = [];
    submitted = [];
  }

let sink h = h.sink
let metrics h = h.metrics
let ctrl h g = h.ctrls.(g)

let wrap h g _ raw =
  let r =
    Rel.wrap ~resend_every ?metrics:h.metrics (Nemesis.wrap h.ctrls.(g) raw)
  in
  h.rels <- r :: h.rels;
  Rel.transport r

let fail h fmt = Format.kasprintf (fun s -> h.failures <- s :: h.failures) fmt
let live h g = List.filter h.groups.(g).alive (Sim.Pid.all h.n)

let quorate h g =
  let m = h.groups.(g).members () in
  2 * List.length (List.filter h.groups.(g).alive m) > List.length m

let submitted h g origin cmd = h.submitted <- (g, origin, cmd) :: h.submitted
let n_submitted h = List.length h.submitted

let rec pairs f = function
  | [] -> ()
  | p :: rest ->
    List.iter (f p) rest;
    pairs f rest

let sampled h check =
  {
    online = (fun r -> if r mod check_every = 0 then check r);
    final = (fun () -> check h.round);
  }

let at_end final = { online = ignore; final }

let local h cluster log =
  let hub = Local.cluster_hub cluster in
  let all = Sim.Pid.all h.n in
  {
    step = Local.cluster_step_one cluster;
    crash = Local.cluster_crash cluster;
    alive = (fun p -> not (Loopback.crashed hub p));
    members = (fun () -> all);
    log;
    cmd = (fun (_, (c : string Cons.Smr.cmd)) -> Some c.payload);
  }

(* " shard g" in the core's messages once a run drives several groups *)
let pp_group h ppf g =
  if Array.length h.ctrls > 1 then Format.fprintf ppf " shard %d" g

(* one of two logs (slot order) is a prefix of the other *)
let rec consistent a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | x :: a, y :: b -> x = y && consistent a b

let check_prefix h r =
  Array.iteri
    (fun g v ->
      pairs
        (fun (p, lp) (q, lq) ->
          if not (consistent lp lq) then
            fail h "round %d%a: %s of %d and %d not prefix-consistent" r
              (pp_group h) g h.logs_label p q)
        (List.map (fun p -> (p, v.log p)) (live h g)))
    h.groups

let identical h =
  Array.for_all Fun.id
    (Array.mapi
       (fun g v ->
         match List.map v.log (live h g) with
         | l :: rest when not (List.for_all (( = ) l) rest) ->
           fail h "end of run%a: survivor %s differ" (pp_group h) g
             h.logs_label;
           false
         | _ -> true)
       h.groups)

(* Commands the model owes: submitted at a live origin, in a group whose
   member majority is alive, and still missing from a live member. *)
let owed h =
  List.filter
    (fun (g, origin, c) ->
      let v = h.groups.(g) in
      v.alive origin && quorate h g
      && List.exists
           (fun p ->
             v.alive p
             && not (List.exists (fun e -> v.cmd e = Some c) (v.log p)))
           (v.members ()))
    h.submitted

let completion h =
  let owed = owed h in
  Array.iteri
    (fun g _ ->
      if List.exists (fun (g', _, _) -> g' = g) owed then
        fail h "end of run%a: submitted %s missing" (pp_group h) g h.cmds_label)
    h.groups;
  owed = []

(* While the network delivers and commands are owed, the applied total
   must grow within [bound] rounds. *)
let watchdog h bound =
  let last_total = ref 0 and last_progress = ref 0 in
  let total () =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun g v ->
           List.fold_left (fun a p -> a + List.length (v.log p)) 0 (live h g))
         h.groups)
  in
  {
    online =
      (fun r ->
        let t = total () in
        if t > !last_total then begin
          last_total := t;
          last_progress := r
        end;
        if not (Array.for_all Nemesis.healthy h.ctrls) then last_progress := r
        else if r - !last_progress > bound && owed h <> [] then begin
          fail h "round %d: no progress for %d rounds on a healthy network" r
            bound;
          last_progress := r
        end);
    final = ignore;
  }

(* After every Heal the live replicas must trust one common live leader
   within [heal_bound] rounds. *)
let heal_clock h heals { leader; metric; heal_bound } =
  let pending = ref [] in
  let agreed () =
    Array.for_all Fun.id
      (Array.mapi
         (fun g v ->
           match List.map (leader g) (live h g) with
           | [] -> true
           | l :: ls -> v.alive l && List.for_all (( = ) l) ls)
         h.groups)
  in
  let close d hr = heals := { heal_round = hr; reconverged_in = d } :: !heals in
  {
    online =
      (fun r ->
        List.iter
          (fun tc -> if tc = (r, Nemesis.Heal) then pending := r :: !pending)
          h.schedule;
        if !pending <> [] && agreed () then begin
          List.iter
            (fun hr ->
              Option.iter
                (fun m -> Obs.Metrics.observe m metric (r - hr))
                h.metrics;
              close (Some (r - hr)) hr)
            !pending;
          pending := []
        end
        else
          pending :=
            List.filter
              (fun hr ->
                r - hr <= heal_bound
                ||
                (fail h
                   "heal at round %d: no single live leader within %d rounds"
                   hr heal_bound;
                 close None hr;
                 false))
              !pending);
    final =
      (fun () ->
        List.iter
          (fun hr ->
            fail h "heal at round %d: run ended before reconvergence" hr;
            close None hr)
          !pending);
  }

let round h =
  h.round <- h.round + 1;
  let r = h.round in
  Array.iteri
    (fun g ctrl ->
      let v = h.groups.(g) in
      Nemesis.tick ctrl;
      (* crash-stop faults: silence the node and stop stepping it *)
      List.iter
        (fun p -> if Nemesis.killed ctrl p && v.alive p then v.crash p)
        (Sim.Pid.all h.n);
      (* every live node steps, a skewed one only every k-th round *)
      List.iter
        (fun p -> if r mod Nemesis.skew_of ctrl p = 0 then v.step p)
        (live h g))
    h.ctrls;
  List.iter (fun i -> i.online r) h.invariants

let drive h groups ?reagree ~watchdog:bound ~rounds ~workload ~detail
    invariants =
  let heals = ref [] in
  h.groups <- groups;
  h.invariants <-
    Option.to_list (Option.map (heal_clock h heals) reagree)
    @ (watchdog h bound :: invariants)
    @ [ sampled h (check_prefix h) ];
  while h.round < rounds do
    round h;
    workload h.round
  done;
  List.iter (fun i -> i.final ()) h.invariants;
  let logs_identical = identical h in
  let all_applied = completion h in
  let sum f = Array.fold_left (fun a c -> a + f (Nemesis.stats c)) 0 h.ctrls in
  {
    rounds_run = h.round;
    submitted = n_submitted h;
    logs_identical;
    all_applied;
    heals = List.rev !heals;
    failures = List.rev h.failures;
    nemesis =
      {
        n_dropped = sum (fun s -> s.n_dropped);
        n_duplicated = sum (fun s -> s.n_duplicated);
        n_reordered = sum (fun s -> s.n_reordered);
        n_delayed = sum (fun s -> s.n_delayed);
      };
    rel_retransmits =
      List.fold_left (fun a r -> a + (Rel.stats r).retransmits) 0 h.rels;
    detail = detail ();
  }

let ok (r : _ report) = r.failures = []

let pp_ints ppf a =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    Format.pp_print_int ppf (Array.to_list a)

let pp_agreement per ppf (r : _ report) =
  Format.fprintf ppf "logs        %s@,completion  %s@,"
    (if r.logs_identical then "identical" ^ per else "DIVERGED")
    (if r.all_applied then "all applied" else "MISSING COMMANDS")

let pp_heals who ppf (r : _ report) =
  List.iter
    (fun h ->
      Format.fprintf ppf "heal @@%d    %s %s@," h.heal_round who
        (match h.reconverged_in with
        | Some d -> Printf.sprintf "re-agreed in %d rounds" d
        | None -> "NOT re-agreed in bound"))
    r.heals

let pp pp_head ppf (r : _ report) =
  let s = r.nemesis in
  Format.fprintf ppf
    "@[<v>rounds      %d@,%anemesis     dropped %d, duplicated %d, reordered \
     %d, delayed %d@,rel         %d retransmits@,"
    r.rounds_run pp_head r s.n_dropped s.n_duplicated s.n_reordered
    s.n_delayed r.rel_retransmits;
  (match r.failures with
  | [] -> Format.fprintf ppf "invariants  all held@,"
  | fs -> List.iter (Format.fprintf ppf "FAILED      %s@,") fs);
  Format.fprintf ppf "@]"

(* ---------------------------------------------- the SMR configuration *)

type config = {
  n : int;
  seed : int;
  rounds : int;
  period : int;
  detector : Fd.Emulated.Omega.kind;
  window : int;
  schedule : Nemesis.schedule;
  cmds : int;
  cmd_every : int;
}

let default ~n ~schedule =
  {
    n;
    seed = 0;
    rounds = 2_500;
    period = 16;
    detector = Fd.Emulated.Omega.Heartbeat;
    window = 4;
    schedule;
    cmds = 20;
    cmd_every = 100;
  }

type smr = { applied : int array }

let pp_report =
  pp (fun ppf (r : smr report) ->
      Format.fprintf ppf "submitted   %d@,applied     %a@,%a%a" r.submitted
        pp_ints r.detail.applied (pp_agreement "") r (pp_heals "leader") r)

let run ?collector (cfg : config) =
  let h = create ?collector ~seed:cfg.seed ~n:cfg.n cfg.schedule in
  let cluster =
    Local.create ~period:cfg.period ~detector:cfg.detector ~window:cfg.window
      ~sink:(fun _ -> h.sink)
      ~wrap:(wrap h 0) ?metrics:h.metrics ~n:cfg.n ()
  in
  let log = Local.cluster_outputs cluster in
  let state = Local.cluster_state cluster in
  let leader _ p = Fd.Emulated.Omega.current (Smr_node.omega_state (state p)) in
  let quorum p =
    let si = Smr_node.sigma_state (state p) in
    if Fd.Emulated.Sigma_majority.rounds si > 0 then
      Some (Fd.Emulated.Sigma_majority.detector.Sim.Layered.current si)
    else None
  in
  (* Σ: no two live replicas ever hold disjoint quorums *)
  let sigma =
    sampled h (fun r ->
        pairs
          (fun p q ->
            match (quorum p, quorum q) with
            | Some a, Some b when not (Sim.Pidset.intersects a b) ->
              fail h "round %d: disjoint quorums at %d and %d" r p q
            | _ -> ())
          (live h 0))
  in
  (* workload: a command every [cmd_every] rounds at the lowest live one *)
  let workload r =
    let k = n_submitted h in
    if r mod cfg.cmd_every = 0 && k < cfg.cmds then
      match live h 0 with
      | [] -> ()
      | p :: _ ->
        let payload = Printf.sprintf "cmd-%d" k in
        Local.cluster_submit cluster p payload;
        submitted h 0 p payload
  in
  drive h [| local h cluster log |]
    ~reagree:{ leader; metric = "net.partition_heal_ms"; heal_bound = 1_200 }
    ~watchdog:800 ~rounds:cfg.rounds ~workload
    ~detail:(fun () ->
      { applied = Array.init cfg.n (fun p -> List.length (log p)) })
    [ sigma ]
