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
   before it, latest first, and the engine's snapshot there.  Every
   sibling branching in the round after it shares one, and boundaries
   along one path share the tails of [taken]. *)
type 'snap boundary = { taken : int list; n_taken : int; snap : 'snap }

(* An exhaustive job resumes at [from] (time 0 if [None]), replays
   [suffix] and then takes alternative 0: its prefix is [from]'s choices
   followed by [suffix]. *)
type 'snap job =
  | Prefix of { from : 'snap boundary option; suffix : int list }
  | Run of int

(* A run's trajectory.  [taken] holds every choice from time 0, latest
   first; [arities] the arity of each choice from the job's boundary on.
   [rounds] holds one (raw digest key, choices consumed, steps executed)
   triple per round past the prefix, [passed] every boundary the run
   continued past, latest first; [cut] marks a run its cut predicate
   (the salted filter or the exact seen-set) stopped at a key. *)
type 'snap traj = {
  taken : int list;
  arities : int array;
  rounds : (int * int * int) array;
  passed : 'snap boundary list;
  cut : bool;
  violation : string option;
  steps : int;
}

type 'snap state = Free | Claimed | Done of 'snap traj

(* Entries are linked through [next], and published through it and the
   state [Atomic]s.  [id] grows along a list and from one pattern's list
   to the next, so a cursor can tell which of two entries lies further
   on. *)
type 'snap entry = {
  id : int;
  pat : int;
  job : 'snap job;
  state : 'snap state Atomic.t;
  next : 'snap entry option Atomic.t;
}

let entry ~id ~pat job state =
  { id; pat; job; state = Atomic.make state; next = Atomic.make None }

(* Claim the first free entry at or past both [!cursor] and the
   coordinator's position [pos]: one compare-and-set, no lock.  Entries
   the cursor passes are claimed or done, so no claim walks them twice. *)
let claim ~pos cursor =
  let p = Atomic.get pos in
  if !cursor.id < p.id then cursor := p;
  let rec go e =
    cursor := e;
    if Atomic.get e.state == Free && Atomic.compare_and_set e.state Free Claimed
    then Some e
    else match Atomic.get e.next with Some e' -> go e' | None -> None
  in
  go !cursor

let salt ~pat key = Hashtbl.hash (pat, key)

let base = function Some b -> b.n_taken | None -> 0
let from_of = function Prefix { from; _ } -> from | Run _ -> None

let depth = function
  | Prefix { from; suffix } -> base from + List.length suffix
  | Run _ -> 0

(* The children of [job]'s trajectory [t]: every unexplored alternative
   of the choices past the job's prefix and before [upto], shallowest
   first (the order of {!Exhaustive.siblings}), each resuming at the
   latest boundary at or before its branching choice. *)
let children job ~upto t =
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

(* ---- search ---------------------------------------------------------- *)

let clamp_domains requested =
  max 1 (min (min requested 64) (Domain.recommended_domain_count ()))

let search ~opts:(o : Harness.opts) ?fps target ~n =
  let fps =
    Array.of_list
      (match fps with
      | Some l -> l
      | None ->
        Crash_adversary.patterns ~n ~max_crashes:o.max_crashes
          ~horizon:o.horizon ~stride:o.stride)
  in
  let d = Option.value o.d ~default:3 in
  let n_helpers = clamp_domains o.domains - 1 in
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
    let sched, round_hook, save =
      match e.job with
      | Prefix { suffix; _ } ->
        let depth = depth e.job in
        let replay = Sim.Scheduler.replay suffix ~rest:Sim.Scheduler.first in
        let choose c =
          arities := Sim.Scheduler.arity c :: !arities;
          incr consumed;
          let i = replay.Sim.Scheduler.choose c in
          taken := i :: !taken;
          i
        in
        (* A run still going when the search ends is abandoned unread. *)
        let hook ~now ~digest ~steps =
          if Atomic.get over then false
          else if !consumed < depth then true
          else begin
            let key = Exhaustive.key target ~now digest () in
            rounds := (key, !consumed, steps) :: !rounds;
            cut := mem key;
            not !cut
          end
        in
        let save snap =
          passed := { taken = !taken; n_taken = !consumed; snap } :: !passed
        in
        ({ Sim.Scheduler.choose }, Some hook, Some save)
      | Run i ->
        (* per-run stream derived from the root seed, independent of
           which domain executes the run *)
        let rng =
          Sim.Rng.make (Hashtbl.hash (o.seed, e.pat, i, "mc.parallel"))
        in
        ( (match o.explorer with
          | `Pct ->
            Pct.scheduler ~d ~horizon:(max 1 target.Harness.max_steps) rng ~n
          | `Random | `Exhaustive | `Dpor -> Sim.Scheduler.random rng),
          None,
          None )
    in
    let r =
      Harness.run ~seed:o.seed target ~fp:fps.(e.pat) ?round_hook
        ?resume:(Option.map (fun b -> b.snap) from)
        ?save sched
    in
    {
      taken =
        (match e.job with
        | Prefix _ -> !taken
        | Run _ -> List.rev r.Harness.choices);
      arities = Array.of_list (List.rev !arities);
      rounds = Array.of_list (List.rev !rounds);
      passed = !passed;
      cut = !cut;
      violation = r.Harness.violation;
      steps = r.Harness.steps;
    }
  in

  (* -- helpers: claim, run against the filter, publish; sleep when there
     is nothing to claim -- *)
  let sentinel = entry ~id:(-1) ~pat:0 (Run 0) Claimed in
  let pos = Atomic.make sentinel in
  let appended = Atomic.make 0 in
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
      let epoch = Atomic.get appended in
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
        (* An append bumps [appended] before it reads [sleepers], and we
           bump [sleepers] before we read [appended]: no lost wakeup. *)
        Atomic.incr sleepers;
        Mutex.lock mutex;
        while Atomic.get appended = epoch && not (Atomic.get over) do
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
          Domain.spawn (fun () -> helper f (ref sentinel)))
  in

  (* -- the coordinator: entry [e]'s trajectory.  Run it if nobody has
     claimed it; otherwise run later free entries (against [mem]) until the
     helper's is done -- *)
  let obtain ~mem e =
    let cursor = ref e in
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
  let total_steps = ref 0 in
  let found = ref None in
  let complete = ref true in
  let remaining () = o.budget - !total_schedules in
  let record_violation ~pat reason choices =
    found :=
      Some
        (Harness.counterexample ~shrink:o.shrink
           ~violates:(Harness.violates ~seed:o.seed target ~n)
           ~target:target.Harness.name ~n ~seed:o.seed ~reason
           (Schedule.of_fp fps.(pat) choices))
  in

  (* Walk pattern [pat]'s list from [first], adjudicating each entry in
     order and appending the jobs [adjudicate] returns.  The list never
     grows past [budget] entries, since those past it would never be
     adjudicated; dropping one leaves the pattern incomplete. *)
  let explore ~pat ~budget first adjudicate =
    let tail = ref None in
    let base = Atomic.get appended in
    let append jobs =
      List.iter
        (fun job ->
          if Atomic.get appended - base >= budget then complete := false
          else begin
            let e = entry ~id:(Atomic.get appended) ~pat job Free in
            (match !tail with
            | Some t -> Atomic.set t.next (Some e)
            | None -> Atomic.set pos e);
            tail := Some e;
            Atomic.incr appended
          end)
        jobs;
      if jobs <> [] && Atomic.get sleepers > 0 then signal ()
    in
    append first;
    let rec go e =
      incr total_schedules;
      append (adjudicate e);
      if !found = None then
        match Atomic.get e.next with
        | Some e' ->
          Atomic.set pos e';
          go e'
        | None -> ()
    in
    if Atomic.get appended > base then go (Atomic.get pos)
  in

  let adjudicate_exhaustive ~pat ~budget =
    let seen = Hashtbl.create 4096 in
    let mem = Hashtbl.mem seen in
    explore ~pat ~budget [ Prefix { from = None; suffix = [] } ] (fun e ->
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
          children e.job ~upto:consumed t
        | None -> (
          total_steps := !total_steps + t.steps;
          match t.violation with
          | Some reason ->
            record_violation ~pat reason (List.rev t.taken);
            []
          | None -> children e.job ~upto:(List.length t.taken) t))
  in

  let adjudicate_sampled ~pat ~budget =
    explore ~pat ~budget (List.init budget (fun i -> Run i)) (fun e ->
        let t = obtain ~mem:(fun _ -> false) e in
        total_steps := !total_steps + t.steps;
        Option.iter
          (fun reason -> record_violation ~pat reason (List.rev t.taken))
          t.violation;
        []);
    complete := false
  in

  let adjudicate_dpor ~pat ~budget =
    (* DPOR's backtrack sets are computed along one sequential
       exploration; it runs on the coordinator, patterns in order, while
       the helpers sleep.  Its report is already exact. *)
    let r =
      Dpor.search ~budget ~shrink:o.shrink ~seed:o.seed target ~fp:fps.(pat)
    in
    total_schedules := !total_schedules + r.Exhaustive.schedules;
    total_steps := !total_steps + r.Exhaustive.steps;
    if not r.Exhaustive.complete then complete := false;
    found := r.Exhaustive.counterexample
  in

  Array.iteri
    (fun pat _ ->
      if !found = None && remaining () > 0 then begin
        incr patterns_tried;
        let budget = min o.inner_budget (remaining ()) in
        match o.explorer with
        | `Exhaustive -> adjudicate_exhaustive ~pat ~budget
        | `Dpor -> adjudicate_dpor ~pat ~budget
        | `Pct | `Random -> adjudicate_sampled ~pat ~budget
      end
      else if !found = None then complete := false)
    fps;

  (* first-counterexample cancellation: in-flight runs stop at their next
     round, idle helpers wake, and the pool is joined *)
  Atomic.set over true;
  signal ();
  Array.iter Domain.join helpers;
  {
    Crash_adversary.counterexample = !found;
    patterns = !patterns_tried;
    schedules = !total_schedules;
    steps = !total_steps;
    complete = !complete && !found = None;
  }
