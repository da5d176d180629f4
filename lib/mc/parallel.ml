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

type job = Prefix of int list | Run of int

(* A run's trajectory.  [rounds] holds one (raw digest key, choices
   consumed, steps executed) triple per round past the prefix; [cut] marks
   a run its cut predicate (the salted filter or the exact seen-set)
   stopped at a key. *)
type traj = {
  choices : int list;
  arities : int array;
  rounds : (int * int * int) array;
  cut : bool;
  violation : string option;
  steps : int;
}

type state = Free | Claimed | Done of traj

(* Entries are linked through [next], and published through it and the
   state [Atomic]s.  [id] grows along a list and from one pattern's list
   to the next, so a cursor can tell which of two entries lies further
   on. *)
type entry = {
  id : int;
  pat : int;
  job : job;
  state : state Atomic.t;
  next : entry option Atomic.t;
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
  let filter = Filter.create ~stripes:8 17 in
  let over = Atomic.make false in

  (* -- one run, on any domain: a pure function of the entry, cut short
     where [mem] reports a round key seen -- *)
  let exec ~mem e =
    let arities = ref [] in
    let consumed = ref 0 in
    let rounds = ref [] in
    let cut = ref false in
    let sched, round_hook =
      match e.job with
      | Prefix prefix ->
        let depth = List.length prefix in
        let base = Sim.Scheduler.replay prefix ~rest:Sim.Scheduler.first in
        let choose c =
          arities := Sim.Scheduler.arity c :: !arities;
          incr consumed;
          base.Sim.Scheduler.choose c
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
        ({ Sim.Scheduler.choose }, Some hook)
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
          None )
    in
    let r = Harness.run ~seed:o.seed target ~fp:fps.(e.pat) ?round_hook sched in
    {
      choices = r.Harness.choices;
      arities = Array.of_list (List.rev !arities);
      rounds = Array.of_list (List.rev !rounds);
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
  let rec helper cursor =
    if not (Atomic.get over) then
      let epoch = Atomic.get appended in
      match claim ~pos cursor with
      | Some e -> (
        let mem key = Filter.mem filter (salt ~pat:e.pat key) in
        match exec ~mem e with
        | t ->
          Atomic.set e.state (Done t);
          helper cursor
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
        helper cursor
  in
  let helpers =
    Array.init (clamp_domains o.domains - 1) (fun _ ->
        Domain.spawn (fun () -> helper (ref sentinel)))
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
    explore ~pat ~budget [ Prefix [] ] (fun e ->
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
              Filter.add filter (salt ~pat key);
              walk (i + 1)
            end
        in
        let depth = match e.job with Prefix p -> List.length p | Run _ -> 0 in
        let children choices =
          List.map (fun p -> Prefix p)
            (Exhaustive.siblings choices ~depth ~arities:t.arities)
        in
        match walk 0 with
        | Some (consumed, steps) ->
          total_steps := !total_steps + steps;
          children (List.filteri (fun i _ -> i < consumed) t.choices)
        | None -> (
          total_steps := !total_steps + t.steps;
          match t.violation with
          | Some reason ->
            record_violation ~pat reason t.choices;
            []
          | None -> children t.choices))
  in

  let adjudicate_sampled ~pat ~budget =
    explore ~pat ~budget (List.init budget (fun i -> Run i)) (fun e ->
        let t = obtain ~mem:(fun _ -> false) e in
        total_steps := !total_steps + t.steps;
        Option.iter (fun reason -> record_violation ~pat reason t.choices)
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
