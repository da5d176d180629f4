(* One work list per failure pattern, in the report's canonical order:
   helper domains claim runs ahead of the coordinator, which makes every
   decision that reaches the report.  See parallel.mli for why the report
   does not depend on the domain count. *)

(* ---- shared visited-digest filter ---------------------------------- *)

(* Fixed-capacity open-addressing set of digest keys, sharded into
   independent stripes.  Slots hold immediate ints, so concurrent reads
   cannot tear under the OCaml memory model; a stale read just misses a
   key, which only costs helper time.  A hit is always genuine: the one
   writer, the coordinator, stores key k solely along the probe path of
   k.  Striping keeps a probe sequence inside one small table, so the
   cache lines a reader walks are mostly ones the writer is not currently
   dirtying. *)
module Filter = struct
  type stripe = {
    slots : int array;  (* 0 = empty, otherwise key + 1 *)
    mutable occupied : int;
    limit : int;
  }

  type t = { stripes : stripe array; smask : int; mask : int }

  let probe_bound = 64

  (* [stripes] must be a power of two; [bits] is per-stripe capacity. *)
  let create ~stripes bits =
    let cap = 1 lsl bits in
    {
      stripes =
        Array.init stripes (fun _ ->
            { slots = Array.make cap 0; occupied = 0; limit = cap - (cap / 8) });
      smask = stripes - 1;
      mask = cap - 1;
    }

  (* Stripe from high bits, slot from low bits of the same product, so
     the two indices stay independent. *)
  let mix key = key * 0x9E3779B1
  let stripe_of t h = t.stripes.((h lsr 24) land t.smask)

  let mem t key =
    let h = mix key in
    let st = stripe_of t h in
    let v = key + 1 in
    let rec go i tries =
      let s = Array.unsafe_get st.slots i in
      if s = v then true
      else if s = 0 || tries >= probe_bound then false
      else go ((i + 1) land t.mask) (tries + 1)
    in
    go (h land t.mask) 0

  (* Coordinator-only.  Dropping an insert (full / probe bound) is fine:
     the filter stays a subset of the coordinator's exact seen-set. *)
  let add t key =
    let h = mix key in
    let st = stripe_of t h in
    if st.occupied < st.limit then
      let v = key + 1 in
      let rec go i tries =
        let s = Array.unsafe_get st.slots i in
        if s = v then ()
        else if s = 0 then begin
          Array.unsafe_set st.slots i v;
          st.occupied <- st.occupied + 1
        end
        else if tries < probe_bound then go ((i + 1) land t.mask) (tries + 1)
      in
      go (h land t.mask) 0
end

(* ---- the work list --------------------------------------------------- *)

(* A round boundary an earlier run passed: the [n_taken] choices made
   before it, latest first, and the system's snapshot there.  Every
   sibling branching in the round after it shares one, and boundaries
   along one path share the tails of [taken]. *)
type 'snap boundary = { taken : int list; n_taken : int; snap : 'snap }

(* A prefix job resumes at [from] (time 0 if [None]), replays [suffix]
   and then takes alternative 0: its prefix is [from]'s choices followed
   by [suffix].  A sampled job runs under its own scheduler. *)
type 'snap job =
  | Prefix of { from : 'snap boundary option; suffix : int list }
  | Run of (unit -> Sim.Scheduler.t)

(* A run's trajectory.  [taken] holds every choice from time 0, latest
   first; [arities] the arity of each choice from the job's boundary on.
   [rounds] holds one (raw digest key, choices consumed, steps executed)
   triple per round past the prefix, [passed] every boundary the run
   continued past, latest first; [cut] marks a run its cut predicate
   (the salted filter or the exact seen-set) stopped at a key.  [note]
   is what the system's run reports besides its verdict and steps. *)
type ('snap, 'note) traj = {
  taken : int list;
  arities : int array;
  rounds : (int * int * int) array;
  passed : 'snap boundary list;
  cut : bool;
  violation : string option;
  steps : int;
  note : 'note;
}

(* What an explorer decides for one failure pattern: the first jobs of
   its list, the alternatives a finished run opens (up to its cut at
   choice [upto]), and whether they go right after their parent
   (depth-first) or at the tail.  [children] runs on the coordinator. *)
type ('snap, 'note) rule = {
  first : 'snap job Seq.t;
  children : 'snap job -> upto:int -> ('snap, 'note) traj -> 'snap job list;
  after_parent : bool;
}

(* How the jobs of pattern [pat] run — on any domain, as a pure function
   of the job — and how a violation of that pattern becomes a
   counterexample.  [run] calls [hook] at every round boundary with the
   round's key, and stops where it answers [false]; [save], if given, at
   every boundary the run continues past. *)
type ('snap, 'note) system = {
  run :
    int ->
    resume:'snap option ->
    save:('snap -> unit) option ->
    hook:(key:(unit -> int) -> steps:int -> bool) ->
    Sim.Scheduler.t ->
    string option * int * 'note;
  cex : int -> reason:string -> int list -> Harness.counterexample;
  rule : int -> ('snap, 'note) rule;
}

type ('snap, 'note) state = Free | Claimed | Done of ('snap, 'note) traj

(* Entries are linked through [next], and published through it and the
   state [Atomic]s. *)
type ('snap, 'note) entry = {
  pat : int;
  job : 'snap job;
  state : ('snap, 'note) state Atomic.t;
  next : ('snap, 'note) entry option Atomic.t;
}

let entry ~pat job state =
  { pat; job; state = Atomic.make state; next = Atomic.make None }

(* How far past the coordinator's entry [synced] a domain has looked for
   work.  Jobs are only ever spliced in right after the coordinator's
   entry or at the tail, so the entries [at] passed stay claimed or done
   until the coordinator moves. *)
type ('snap, 'note) cursor = {
  mutable synced : ('snap, 'note) entry;
  mutable at : ('snap, 'note) entry;
}

(* Claim the first free entry past the coordinator's position [pos]: one
   compare-and-set, no lock. *)
let claim ~pos c =
  let p = Atomic.get pos in
  if p != c.synced then begin
    c.synced <- p;
    c.at <- p
  end;
  let rec go e =
    c.at <- e;
    if Atomic.get e.state == Free && Atomic.compare_and_set e.state Free Claimed
    then Some e
    else match Atomic.get e.next with Some e' -> go e' | None -> None
  in
  go c.at

let salt ~pat key = Hashtbl.hash (pat, key)

let base = function Some b -> b.n_taken | None -> 0
let from_of = function Prefix { from; _ } -> from | Run _ -> None

let depth = function
  | Prefix { from; suffix } -> base from + List.length suffix
  | Run _ -> max_int

let root = Prefix { from = None; suffix = [] }

(* The children of [job]'s trajectory [t]: every unexplored alternative
   of the choices past the job's prefix and before [upto], shallowest
   first, each resuming at the latest boundary at or before its
   branching choice. *)
let siblings job ~upto t =
  let from = from_of job and lowest = depth job in
  let choices = Array.of_list (List.rev t.taken) in
  let rec go i bounds acc =
    if i < lowest then acc
    else
      match bounds with
      | b :: older when b.n_taken > i -> go i older acc
      | _ ->
        let at = match bounds with b :: _ -> Some b | [] -> from in
        let suffix k =
          Array.to_list (Array.sub choices (base at) (i - base at)) @ [ k ]
        in
        let alts = ref acc in
        for k = t.arities.(i - base from) - 1 downto 1 do
          alts := Prefix { from = at; suffix = suffix k } :: !alts
        done;
        go (i - 1) bounds !alts
  in
  go (upto - 1) t.passed []

(* The job of the prefix [p] (choices from time 0) that [job]'s run [t]
   opened: it resumes at the latest boundary of [t] or of [job] at or
   before [p]'s last choice, else at time 0. *)
let prefix_job job t p =
  let last = List.length p - 1 in
  let from =
    List.find_opt
      (fun b -> b.n_taken <= last)
      (t.passed @ Option.to_list (from_of job))
  in
  Prefix { from; suffix = List.filteri (fun i _ -> i >= base from) p }

(* ---- search ---------------------------------------------------------- *)

let clamp_domains requested =
  max 1 (min (min requested 64) (Domain.recommended_domain_count ()))

(* The one search loop: [sys] over patterns [0 .. patterns - 1]. *)
let explore ~domains ~budget ~inner_budget ~patterns sys =
  let n_helpers = clamp_domains domains - 1 in
  (* Only helpers read the filter. *)
  let filter =
    if n_helpers = 0 then None else Some (Filter.create ~stripes:8 17)
  in
  let over = Atomic.make false in

  (* -- one run, on any domain: a pure function of the entry, cut short
     where [mem] reports a round key seen -- *)
  let exec ~mem e =
    let from = from_of e.job in
    let taken = ref (match from with Some b -> b.taken | None -> []) in
    let arities = ref [] in
    let consumed = ref (base from) in
    let rounds = ref [] in
    let passed = ref [] in
    let cut = ref false in
    let depth = depth e.job in
    let inner =
      match e.job with
      | Prefix { suffix; _ } ->
        Sim.Scheduler.replay suffix ~rest:Sim.Scheduler.first
      | Run sched -> sched ()
    in
    let choose c =
      arities := Sim.Scheduler.arity c :: !arities;
      incr consumed;
      let i = inner.Sim.Scheduler.choose c in
      taken := i :: !taken;
      i
    in
    (* A run still going when the search ends is abandoned unread. *)
    let hook ~key ~steps =
      if Atomic.get over then false
      else if !consumed < depth then true
      else begin
        let key = key () in
        rounds := (key, !consumed, steps) :: !rounds;
        cut := mem key;
        not !cut
      end
    in
    let save =
      match e.job with
      | Prefix _ ->
        Some
          (fun snap ->
            passed := { taken = !taken; n_taken = !consumed; snap } :: !passed)
      | Run _ -> None
    in
    let violation, steps, note =
      sys.run e.pat
        ~resume:(Option.map (fun b -> b.snap) from)
        ~save ~hook { Sim.Scheduler.choose }
    in
    {
      taken = !taken;
      arities = Array.of_list (List.rev !arities);
      rounds = Array.of_list (List.rev !rounds);
      passed = !passed;
      cut = !cut;
      violation;
      steps;
      note;
    }
  in

  (* -- helpers: claim, run against the filter, publish; sleep when there
     is nothing to claim -- *)
  let sentinel = entry ~pat:0 root Claimed in
  let pos = Atomic.make sentinel in
  let epoch = Atomic.make 0 in
  let sleepers = Atomic.make 0 in
  let mutex = Mutex.create () in
  let wake = Condition.create () in
  let signal () =
    Mutex.lock mutex;
    Condition.broadcast wake;
    Mutex.unlock mutex
  in
  let rec helper filter cursor =
    if not (Atomic.get over) then
      let seen_epoch = Atomic.get epoch in
      match claim ~pos cursor with
      | Some e -> (
        let mem key = Filter.mem filter (salt ~pat:e.pat key) in
        match exec ~mem e with
        | t ->
          Atomic.set e.state (Done t);
          helper filter cursor
        (* hand the entry back and stop: the coordinator runs it, and
           raises, only if the report needs it *)
        | exception _ -> Atomic.set e.state Free)
      | None ->
        (* The coordinator bumps [epoch] before it reads [sleepers], and
           we bump [sleepers] before we read [epoch]: no lost wakeup. *)
        Atomic.incr sleepers;
        Mutex.lock mutex;
        while Atomic.get epoch = seen_epoch && not (Atomic.get over) do
          Condition.wait wake mutex
        done;
        Mutex.unlock mutex;
        Atomic.decr sleepers;
        helper filter cursor
  in
  let helpers =
    match filter with
    | None -> [||]
    | Some f ->
      Array.init n_helpers (fun _ ->
          Domain.spawn (fun () ->
              helper f { synced = sentinel; at = sentinel }))
  in
  (* The coordinator moved or linked jobs: let sleeping helpers look. *)
  let moved () =
    Atomic.incr epoch;
    if Atomic.get sleepers > 0 then signal ()
  in

  (* -- the coordinator: entry [e]'s trajectory.  Run it if nobody has
     claimed it; otherwise run later free entries (against [mem]) until the
     helper's is done -- *)
  let obtain ~mem e =
    let cursor = { synced = e; at = e } in
    let rec go () =
      match Atomic.get e.state with
      | Done t -> t
      | Free when Atomic.compare_and_set e.state Free Claimed -> exec ~mem e
      | Free | Claimed ->
        (match claim ~pos cursor with
        | Some e' -> Atomic.set e'.state (Done (exec ~mem e'))
        | None -> Domain.cpu_relax ());
        go ()
    in
    go ()
  in
  let patterns_tried = ref 0 in
  let total_schedules = ref 0 in
  let total_pruned = ref 0 in
  let total_steps = ref 0 in
  let found = ref None in
  let complete = ref true in

  (* Walk pattern [pat]'s list in order, adjudicating each entry and
     placing the children its rule opens.  At most [budget] entries run;
     a tail-appending list never grows past [budget] entries, since those
     past it would never run.  Leaving a job unrun leaves the pattern
     incomplete. *)
  let explore_pattern ~pat ~budget =
    let rule = sys.rule pat in
    let seen = Hashtbl.create 4096 in
    let mem = Hashtbl.mem seen in
    let tail = ref sentinel in
    let appended = ref 0 in
    (* Link [jobs] in after [at], or as a new list if [at] is the
       sentinel; the last one becomes the tail if [at] was. *)
    let splice at jobs =
      match jobs with
      | [] -> ()
      | job :: rest ->
        let first = entry ~pat job Free in
        let last =
          List.fold_left
            (fun prev job ->
              let e = entry ~pat job Free in
              Atomic.set prev.next (Some e);
              e)
            first rest
        in
        if at == sentinel then Atomic.set pos first
        else begin
          Atomic.set last.next (Atomic.get at.next);
          Atomic.set at.next (Some first)
        end;
        if at == !tail then tail := last
    in
    let append jobs =
      let room = budget - !appended in
      let jobs =
        if List.compare_length_with jobs room <= 0 then jobs
        else begin
          complete := false;
          List.filteri (fun i _ -> i < room) jobs
        end
      in
      appended := !appended + List.length jobs;
      splice !tail jobs
    in
    let adjudicate e =
      let t = obtain ~mem e in
      (* A filter cut no key in the exact seen-set justifies (a salted
         hash collision) is run again against the exact set. *)
      let t =
        if t.cut && not (Array.exists (fun (key, _, _) -> mem key) t.rounds)
        then exec ~mem e
        else t
      in
      (* The first key already seen is the cut; every earlier one
         becomes seen. *)
      let rec walk i =
        if i = Array.length t.rounds then None
        else
          let key, consumed, steps = t.rounds.(i) in
          if mem key then Some (consumed, steps)
          else begin
            Hashtbl.add seen key ();
            Option.iter (fun f -> Filter.add f (salt ~pat key)) filter;
            walk (i + 1)
          end
      in
      match walk 0 with
      | Some (consumed, steps) ->
        total_steps := !total_steps + steps;
        incr total_pruned;
        rule.children e.job ~upto:consumed t
      | None -> (
        total_steps := !total_steps + t.steps;
        match t.violation with
        | Some reason ->
          found := Some (sys.cex pat ~reason (List.rev t.taken));
          []
        | None -> rule.children e.job ~upto:(List.length t.taken) t)
    in
    let rec go e ran =
      incr total_schedules;
      let jobs = adjudicate e in
      if rule.after_parent then splice e jobs else append jobs;
      if !found = None then
        match Atomic.get e.next with
        | None -> ()
        | Some _ when ran = budget -> complete := false
        | Some e' ->
          Atomic.set pos e';
          moved ();
          go e' (ran + 1)
    in
    (* one job more than fits shows an endless first list as cut *)
    append (List.of_seq (Seq.take (budget + 1) rule.first));
    if !appended > 0 then begin
      moved ();
      go (Atomic.get pos) 1
    end
  in
  for pat = 0 to patterns - 1 do
    let remaining = budget - !total_schedules in
    if !found = None && remaining > 0 then begin
      incr patterns_tried;
      explore_pattern ~pat ~budget:(min inner_budget remaining)
    end
    else if !found = None then complete := false
  done;

  (* first-counterexample cancellation: in-flight runs stop at their next
     round, idle helpers wake, and the pool is joined *)
  Atomic.set over true;
  signal ();
  Array.iter Domain.join helpers;
  {
    Crash_adversary.counterexample = !found;
    patterns = !patterns_tried;
    schedules = !total_schedules;
    pruned = !total_pruned;
    steps = !total_steps;
    complete = !complete && !found = None;
  }

(* ---- systems --------------------------------------------------------- *)

let exhaustive ~after_parent _ =
  { first = Seq.return root; children = siblings; after_parent }

(* A sim target's round key: the digest, paired with the clock unless the
   target's detector history is time-invariant. *)
let key target ~now digest =
  if target.Harness.time_invariant_fd then digest
  else fun () -> Hashtbl.hash (digest (), now)

let search ~opts:(o : Harness.opts) ?fps target ~n =
  let fps =
    Array.of_list
      (match fps with
      | Some l -> l
      | None ->
        Crash_adversary.patterns ~n ~max_crashes:o.max_crashes
          ~horizon:o.horizon ~stride:o.stride)
  in
  let explore sys =
    explore ~domains:o.domains ~budget:o.budget ~inner_budget:o.inner_budget
      ~patterns:(Array.length fps) sys
  in
  let cex pat ~reason choices =
    Harness.counterexample ~shrink:o.shrink
      ~violates:(Harness.violates ~seed:o.seed target ~n)
      ~target:target.Harness.name ~n ~seed:o.seed ~reason
      (Schedule.of_fp fps.(pat) choices)
  in
  let round_hook hook ~now ~digest ~steps =
    hook ~key:(key target ~now digest) ~steps
  in
  let harness pat ~resume ~save ~hook sched =
    let r =
      Harness.run ~seed:o.seed target ~fp:fps.(pat)
        ~round_hook:(round_hook hook) ?resume ?save sched
    in
    (r.Harness.violation, r.Harness.steps, ())
  in
  match o.explorer with
  | `Dpor when target.Harness.time_invariant_fd ->
    let run pat ~resume ~save ~hook sched =
      let r, requests =
        Dpor.run ~seed:o.seed ~round_hook:(round_hook hook) ?resume ?save
          target ~fp:fps.(pat) sched
      in
      (r.Harness.violation, r.Harness.steps, requests)
    in
    let rule _ =
      let explored = Dpor.explored () in
      let children job ~upto t =
        Dpor.openings explored
          ~choices:(Array.of_list (List.rev t.taken))
          ~upto t.note
        |> List.map (prefix_job job t)
      in
      { first = Seq.return root; children; after_parent = true }
    in
    explore { run; cex; rule }
  | (`Exhaustive | `Dpor) as explorer ->
    explore
      { run = harness; cex; rule = exhaustive ~after_parent:(explorer = `Dpor) }
  | (`Pct | `Random) as explorer ->
    let d = Option.value o.d ~default:3 in
    (* run [i] of pattern [pat] draws its stream from the root seed, so
       it is the same whichever domain executes it *)
    let sampler pat i () =
      let rng = Sim.Rng.make (Hashtbl.hash (o.seed, pat, i, "mc.parallel")) in
      match explorer with
      | `Pct ->
        Pct.scheduler ~d ~horizon:(max 1 target.Harness.max_steps) rng ~n
      | `Random -> Sim.Scheduler.random rng
    in
    let rule pat =
      {
        first = Seq.map (fun i -> Run (sampler pat i)) (Seq.ints 0);
        children = (fun _ ~upto:_ _ -> []);
        after_parent = false;
      }
    in
    explore { run = harness; cex; rule }

let exhaust ~budget ~cex run =
  explore ~domains:1 ~budget ~inner_budget:budget ~patterns:1
    {
      run =
        (fun _ ~resume:_ ~save:_ ~hook sched ->
          let violation, steps = run ~hook sched in
          (violation, steps, ()));
      cex = (fun _ -> cex);
      rule = exhaustive ~after_parent:false;
    }
