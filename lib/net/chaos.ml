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
  mutable reported : string list;  (* their texts apart from the round *)
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
    reported = [];
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

(* Each violation is reported once: a failure whose text, apart from its
   round, an earlier one had is dropped. *)
let report h ~text line =
  if not (List.mem text h.reported) then begin
    h.reported <- text :: h.reported;
    h.failures <- line :: h.failures
  end

let fail h fmt = Format.kasprintf (fun s -> report h ~text:s s) fmt

let fail_at h r fmt =
  Format.kasprintf
    (fun s -> report h ~text:("round" ^ s) (Printf.sprintf "round %d%s" r s))
    fmt

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
  let all = Sim.Pid.all h.n in
  {
    step = Local.cluster_step_one cluster;
    crash = Local.cluster_crash cluster;
    alive = (fun p -> not (Local.cluster_crashed cluster p));
    members = (fun () -> all);
    log;
    cmd = (fun (_, (c : string Cons.Smr.cmd)) -> Some c.payload);
  }

(* " shard g" in the core's messages once a run drives several groups *)
let pp_group h ppf g =
  if Array.length h.ctrls > 1 then Format.fprintf ppf " shard %d" g

(* Group [g] as the log specification sees it: every pid's log, crashed
   ones included, and the live pids as the correct ones. *)
let spec_run h g =
  let v = h.groups.(g) in
  let mine (g', origin, c) = if g' = g then Some (origin, c) else None in
  {
    Cons.Log_spec.logs = List.map (fun p -> (p, v.log p)) (Sim.Pid.all h.n);
    correct = live h g;
    submitted = List.filter_map mine (List.rev h.submitted);
    key = v.cmd;
  }

let group_ids h = List.init (Array.length h.groups) Fun.id

let pp_violation =
  Cons.Log_spec.pp_violation (fun ppf -> Format.fprintf ppf "%S")

(* The specification's safety half, every 50 rounds and at the end. *)
let safety h =
  sampled h (fun r ->
      List.iter
        (fun g ->
          List.iter
            (fail_at h r "%a: %a" (pp_group h) g pp_violation)
            (Cons.Log_spec.safety (spec_run h g)))
        (group_ids h))

(* The whole specification at the end of the run, its safety half
   reported above: whether every group's logs met safety and agreement,
   and whether none missed a command. *)
let judge h =
  let liveness = function
    | Cons.Log_spec.Lost _ | Missing _ -> true
    | _ -> false
  and differ = function Cons.Log_spec.Differ _ -> true | _ -> false in
  List.fold_left
    (fun (same, complete) g ->
      let missing, broken =
        List.partition liveness
          (Cons.Log_spec.check ~live:(quorate h g) (spec_run h g))
      in
      if List.exists differ broken then
        fail h "end of run%a: survivor %s differ" (pp_group h) g h.logs_label;
      if missing <> [] then
        fail h "end of run%a: submitted %s missing" (pp_group h) g
          h.cmds_label;
      (same && broken = [], complete && missing = []))
    (true, true) (group_ids h)

(* While the network delivers and the model owes a command (its group's
   member majority lives and the specification finds it missing at a live
   replica), the applied total must grow within [bound] rounds. *)
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
        else if
          r - !last_progress > bound
          && List.exists
               (fun g ->
                 quorate h g && Cons.Log_spec.missing (spec_run h g) <> [])
               (group_ids h)
        then begin
          fail_at h r ": no progress for %d rounds on a healthy network"
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
    @ [ safety h ];
  while h.round < rounds do
    round h;
    workload h.round
  done;
  List.iter (fun i -> i.final ()) h.invariants;
  let logs_identical, all_applied = judge h in
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
  (* Σ: no two quorums the live replicas held at sampled rounds are
     disjoint; [held] keeps each distinct quorum's first sample, so a
     failure names the rounds the two were first seen and keeps its text
     while it persists *)
  let held = ref [] in
  let sigma =
    sampled h (fun r ->
        let quorum pid =
          let si = Smr_node.sigma_state (state pid) in
          if Fd.Emulated.Sigma_majority.rounds si = 0 then None
          else
            Some
              {
                Sim.Trace.time = r;
                pid;
                value = Fd.Emulated.Sigma_majority.detector.current si;
              }
        in
        held := Fd.Sigma.distinct (!held @ List.filter_map quorum (live h 0));
        Result.iter_error (fail_at h r ": %s") (Fd.Sigma.safety !held))
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
