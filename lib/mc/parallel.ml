(* Parallel exploration = racy speculation + canonical adjudication,
   over subtree-grained work units.

   Workers execute whole *subtrees* of the prefix tree (bounded local
   BFS, one job submission per boundary node instead of one per
   schedule) and stream each run's trajectory to the coordinator; a
   single coordinator consumes them in a fixed order and makes every
   decision that shows up in the report (pruning, counting, the
   counterexample).  A trajectory is a pure function of (target, fp,
   prefix-or-index, seed), so the report is independent of the domain
   count and of scheduling luck.  See parallel.mli for the full
   argument.

   [opts.ordered = false] drops the adjudication half entirely: workers
   race over one shared frontier with a multi-writer racy filter and
   atomic counters — maximum drain rate, deterministic verdict on a
   complete drain, but timing-dependent counters and counterexample
   choice.  See [search_unordered] below. *)

(* ---- shared visited-digest filter ---------------------------------- *)

(* Fixed-capacity open-addressing set of digest keys, sharded into
   independent stripes.  Slots hold immediate ints, so concurrent reads
   cannot tear under the OCaml memory model; a stale read just misses a
   key, which only costs speculation time.  A hit is always genuine:
   writers store key k solely along the probe path of k.  Striping keeps
   a probe sequence inside one small table, so the cache lines a reader
   walks are mostly ones writers are not currently dirtying.

   Two write disciplines share the [mem] path:
   - [add] (ordered mode): single writer — the coordinator — with an
     occupancy limit per stripe;
   - [add_racy] (unordered mode): any worker.  Two racers probing the
     same empty slot can overwrite each other; the lost insert only
     means some other run re-explores that state.  No occupancy
     accounting — the probe bound alone caps the work. *)
module Filter = struct
  type stripe = {
    slots : int array;  (* 0 = empty, otherwise key + 1 *)
    mutable occupied : int;  (* [add]-only *)
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

  (* Multi-writer, no occupancy bookkeeping.  A racing store can bury a
     concurrent one; both keys were genuinely visited, so any later hit
     on either remains sound and the buried key at worst costs a
     duplicate exploration. *)
  let add_racy t key =
    let h = mix key in
    let st = stripe_of t h in
    let v = key + 1 in
    let rec go i tries =
      let s = Array.unsafe_get st.slots i in
      if s = v then ()
      else if s = 0 then Array.unsafe_set st.slots i v
      else if tries < probe_bound then go ((i + 1) land t.mask) (tries + 1)
    in
    go (h land t.mask) 0
end

(* ---- work units and trajectories ------------------------------------ *)

(* A subtree job expands a bounded local BFS from [root]; a batch job
   runs a contiguous range of sampled-run indices. *)
type work =
  | Subtree of { root : int list; quota : int }
  | Batch of { start : int; count : int }

(* A recorded trajectory.  [sp_hooks] holds one (digest key, choices
   consumed, steps executed) triple per round hook that fired past the
   prefix; [sp_cut] marks a speculative early cut on a filter or
   local-seen hit, which the coordinator must justify against its exact
   seen-set.  The shared filter stores per-pattern *salted* keys; the
   coordinator's seen-set and [sp_hooks] carry the raw keys sequential
   pruning uses. *)
type spec = {
  sp_choices : int list;
  sp_arities : int array;
  sp_hooks : (int * int * int) array;
  sp_cut : bool;
  sp_violation : string option;
  sp_steps : int;
  sp_aborted : bool;  (* ended early by cancellation: not a full run *)
}

(* What workers stream back to the coordinator. *)
type result_msg =
  | R_run of int * int list * spec  (* pattern, prefix, trajectory *)
  | R_sampled of int * int * spec  (* pattern, run index, trajectory *)
  | R_job_done of int * work

let salt ~pat key = Hashtbl.hash (pat, key)
let take_prefix choices i = Array.to_list (Array.sub choices 0 i)

(* Worker-side local BFS mirrors the coordinator's expansion rule: every
   non-root sibling of every choice point up to the cut. *)
let subtree_quota = 64
let sample_batch = 16

(* ---- ordered search -------------------------------------------------- *)

let clamp_domains requested =
  max 1 (min (min requested 64) (Domain.recommended_domain_count ()))

let mk_cex ~(o : Harness.opts) ~fp target ~n reason choices =
  let c =
    {
      Harness.target = target.Harness.name;
      n;
      seed = o.seed;
      schedule = Schedule.of_fp fp choices;
      reason;
      shrunk = false;
    }
  in
  if not o.shrink then c
  else
    let violates s = Harness.violates ~seed:o.seed target ~n s in
    let schedule, _ = Shrink.minimize ~violates c.Harness.schedule in
    { c with Harness.schedule; shrunk = true }

let search_ordered ~(o : Harness.opts) ~fps target ~n =
  let d = Option.value o.d ~default:3 in
  (* The requested domain count is a cap, the hardware is the other:
     spawning more worker domains than cores makes speculation strictly
     slower (condvar churn, context switches, staler filter reads).  The
     report is domain-count independent either way. *)
  let n_domains = clamp_domains o.domains in
  let prune_mod_time = target.Harness.time_invariant_fd in
  let filter = Filter.create ~stripes:8 17 in
  let cancelled = Atomic.make false in
  let mutex = Mutex.create () in
  (* Split wakeups: workers sleep on [work_cond] (signalled by job
     submission), the coordinator sleeps on [done_cond] (signalled per
     streamed result). *)
  let work_cond = Condition.create () in
  let done_cond = Condition.create () in
  let jobs : (int * work) Queue.t = Queue.create () in
  let results : result_msg Queue.t = Queue.create () in
  let active : (int * work) list ref = ref [] in
  let shutdown = ref false in

  (* -- speculative execution (runs on any domain) -- *)
  (* [local_seen] is a worker's per-job seen-set: within its subtree the
     worker prunes exactly like a sequential search would, so its
     speculative frontier tracks the coordinator's.  Either cut source
     ends up as [sp_cut]; the coordinator re-derives the true cut from
     its exact seen-set and re-executes filter-free if no hook key
     justifies the speculation. *)
  let exec_prefix ~use_filter ~local_seen ~pat prefix =
    let fp = fps.(pat) in
    let depth = List.length prefix in
    let arities = ref [] in
    let consumed = ref 0 in
    let base = Sim.Scheduler.replay prefix ~rest:Sim.Scheduler.first in
    let sched =
      {
        Sim.Scheduler.choose =
          (fun c ->
            arities := Sim.Scheduler.arity c :: !arities;
            incr consumed;
            base.Sim.Scheduler.choose c);
      }
    in
    let hooks = ref [] in
    let cut = ref false in
    let aborted = ref false in
    let hook ~now ~digest ~steps =
      if Atomic.get cancelled then begin
        aborted := true;
        false
      end
      else if !consumed < depth then true
      else begin
        let key =
          if prune_mod_time then digest ()
          else Hashtbl.hash (digest (), now)
        in
        hooks := (key, !consumed, steps) :: !hooks;
        let seen_here =
          (match local_seen with
          | Some t -> Hashtbl.mem t key
          | None -> false)
          || (use_filter && Filter.mem filter (salt ~pat key))
        in
        if seen_here then begin
          cut := true;
          false
        end
        else begin
          (match local_seen with
          | Some t -> Hashtbl.add t key ()
          | None -> ());
          true
        end
      end
    in
    let r = Harness.run ~seed:o.seed target ~fp ~round_hook:hook sched in
    {
      sp_choices = r.Harness.choices;
      sp_arities = Array.of_list (List.rev !arities);
      sp_hooks = Array.of_list (List.rev !hooks);
      sp_cut = !cut;
      sp_violation = r.Harness.violation;
      sp_steps = r.Harness.steps;
      sp_aborted = !aborted;
    }
  in
  let exec_sampled ~pat idx =
    let fp = fps.(pat) in
    (* per-run stream derived from the root seed, independent of which
       domain executes the run *)
    let rng = Sim.Rng.make (Hashtbl.hash (o.seed, pat, idx, "mc.parallel")) in
    let sched =
      match o.explorer with
      | `Pct ->
        Pct.scheduler ~d ~horizon:(max 1 target.Harness.max_steps) rng ~n
      | `Random | `Exhaustive | `Dpor -> Sim.Scheduler.random rng
    in
    let r = Harness.run ~seed:o.seed target ~fp sched in
    {
      sp_choices = r.Harness.choices;
      sp_arities = [||];
      sp_hooks = [||];
      sp_cut = false;
      sp_violation = r.Harness.violation;
      sp_steps = r.Harness.steps;
      sp_aborted = false;
    }
  in

  let publish msg =
    Mutex.lock mutex;
    Queue.push msg results;
    Condition.signal done_cond;
    Mutex.unlock mutex
  in

  (* Children of an adjudicated-or-speculated run, in the coordinator's
     FIFO order. *)
  let children_of spec ~depth ~upto =
    let seq = Array.of_list spec.sp_choices in
    let acc = ref [] in
    for i = depth to upto - 1 do
      for alt = 1 to spec.sp_arities.(i) - 1 do
        acc := (take_prefix seq i @ [ alt ]) :: !acc
      done
    done;
    List.rev !acc
  in

  (* -- worker side -- *)
  let run_subtree ~pat root quota =
    let local_seen = Hashtbl.create 256 in
    let frontier : int list Queue.t = Queue.create () in
    Queue.push root frontier;
    let produced = ref 0 in
    while
      !produced < quota
      && (not (Queue.is_empty frontier))
      && not (Atomic.get cancelled)
    do
      let p = Queue.pop frontier in
      let spec =
        exec_prefix ~use_filter:true ~local_seen:(Some local_seen) ~pat p
      in
      incr produced;
      publish (R_run (pat, p, spec));
      if spec.sp_violation = None && not spec.sp_aborted then begin
        let depth = List.length p in
        let upto =
          if spec.sp_cut then
            match spec.sp_hooks with
            | [||] -> depth
            | hs ->
              let _, consumed, _ = hs.(Array.length hs - 1) in
              consumed
          else Array.length spec.sp_arities
        in
        List.iter (fun c -> Queue.push c frontier) (children_of spec ~depth ~upto)
      end
    done
  in
  let run_batch ~pat start count =
    let i = ref start in
    while !i < start + count && not (Atomic.get cancelled) do
      let spec = exec_sampled ~pat !i in
      publish (R_sampled (pat, !i, spec));
      incr i
    done
  in
  let worker () =
    let rec loop () =
      Mutex.lock mutex;
      let rec claim () =
        if !shutdown then None
        else if Queue.is_empty jobs then begin
          Condition.wait work_cond mutex;
          claim ()
        end
        else Some (Queue.pop jobs)
      in
      match claim () with
      | None -> Mutex.unlock mutex
      | Some (pat, w) ->
        Mutex.unlock mutex;
        (match w with
        | Subtree { root; quota } ->
          if not (Atomic.get cancelled) then run_subtree ~pat root quota
        | Batch { start; count } ->
          if not (Atomic.get cancelled) then run_batch ~pat start count);
        publish (R_job_done (pat, w));
        loop ()
    in
    loop ()
  in
  let workers = Array.init (n_domains - 1) (fun _ -> Domain.spawn worker) in
  let submit pat w =
    if n_domains > 1 then begin
      Mutex.lock mutex;
      Queue.push (pat, w) jobs;
      active := (pat, w) :: !active;
      Condition.signal work_cond;
      Mutex.unlock mutex
    end
  in

  (* -- coordinator side -- *)
  let prefix_cache : (int * int list, spec) Hashtbl.t = Hashtbl.create 4096 in
  let sampled_cache : (int * int, spec) Hashtbl.t = Hashtbl.create 256 in
  let drain_results_locked () =
    while not (Queue.is_empty results) do
      match Queue.pop results with
      | R_run (pat, p, spec) -> Hashtbl.replace prefix_cache (pat, p) spec
      | R_sampled (pat, i, spec) -> Hashtbl.replace sampled_cache (pat, i) spec
      | R_job_done (pat, w) -> active := List.filter (( <> ) (pat, w)) !active
    done
  in
  let rec is_prefix r p =
    match (r, p) with
    | [], _ -> true
    | x :: r', y :: p' -> x = y && is_prefix r' p'
    | _ :: _, [] -> false
  in
  let covered_prefix pat p =
    List.exists
      (function
        | pat', Subtree { root; _ } -> pat' = pat && is_prefix root p
        | _ -> false)
      !active
  in
  let covered_index pat i =
    List.exists
      (function
        | pat', Batch { start; count } ->
          pat' = pat && i >= start && i < start + count
        | _ -> false)
      !active
  in
  (* Wait for a speculative result while some in-flight job can still
     produce it; fall back to [None] (inline execution) once no job
     covers it.  With domains = 1 nothing is ever in flight and every
     run executes inline — the fully sequential path. *)
  let await ~cache ~key ~covered =
    if n_domains = 1 then None
    else begin
      Mutex.lock mutex;
      let rec go () =
        drain_results_locked ();
        match Hashtbl.find_opt cache key with
        | Some spec ->
          Hashtbl.remove cache key;
          Mutex.unlock mutex;
          Some spec
        | None ->
          if not (covered ()) then begin
            Mutex.unlock mutex;
            None
          end
          else begin
            Condition.wait done_cond mutex;
            go ()
          end
      in
      go ()
    end
  in

  (* -- canonical adjudication -- *)
  let patterns_tried = ref 0 in
  let total_schedules = ref 0 in
  let total_steps = ref 0 in
  let found = ref None in
  let complete = ref true in
  let remaining () = o.budget - !total_schedules in

  (* Roots of every pattern's subtree are known upfront: submit them all
     so workers pipeline across patterns. *)
  if o.explorer = `Exhaustive then
    Array.iteri
      (fun pat _ -> submit pat (Subtree { root = []; quota = subtree_quota }))
      fps;

  let adjudicate_exhaustive ~pat ~budget =
    let fp = fps.(pat) in
    let seen = Hashtbl.create 4096 in
    let frontier : int list Queue.t = Queue.create () in
    Queue.push [] frontier;
    let schedules = ref 0 in
    let out_of_budget = ref false in
    while
      !found = None && (not (Queue.is_empty frontier)) && not !out_of_budget
    do
      let p = Queue.pop frontier in
      if !schedules >= budget then out_of_budget := true
      else begin
        incr schedules;
        let depth = List.length p in
        let spec =
          match
            await
              ~cache:prefix_cache
              ~key:(pat, p)
              ~covered:(fun () -> covered_prefix pat p)
          with
          | Some spec when not spec.sp_aborted -> spec
          | _ -> exec_prefix ~use_filter:true ~local_seen:None ~pat p
        in
        (* Justify a speculative cut against the exact seen-set: on a
           (rare) salted-hash false hit or a local-seen divergence,
           re-run without the filter. *)
        let spec =
          if
            spec.sp_cut
            && not
                 (Array.exists
                    (fun (key, _, _) -> Hashtbl.mem seen key)
                    spec.sp_hooks)
          then exec_prefix ~use_filter:false ~local_seen:None ~pat p
          else spec
        in
        let cut = ref None in
        (try
           Array.iter
             (fun (key, consumed, steps) ->
               if Hashtbl.mem seen key then begin
                 cut := Some (consumed, steps);
                 raise Exit
               end
               else begin
                 Hashtbl.add seen key ();
                 Filter.add filter (salt ~pat key)
               end)
             spec.sp_hooks
         with Exit -> ());
        let enqueue spec ~upto =
          List.iter
            (fun c ->
              Queue.push c frontier;
              (* the parent's subtree job may have expanded past its
                 quota boundary; submit a fresh job only for children no
                 producer has touched or claimed *)
              Mutex.lock mutex;
              drain_results_locked ();
              let have =
                Hashtbl.mem prefix_cache (pat, c) || covered_prefix pat c
              in
              Mutex.unlock mutex;
              if not have then
                submit pat (Subtree { root = c; quota = subtree_quota }))
            (children_of spec ~depth ~upto)
        in
        match !cut with
        | Some (consumed, steps) ->
          total_steps := !total_steps + steps;
          enqueue spec ~upto:consumed
        | None -> (
          total_steps := !total_steps + spec.sp_steps;
          match spec.sp_violation with
          | Some reason ->
            found := Some (mk_cex ~o ~fp target ~n reason spec.sp_choices)
          | None -> enqueue spec ~upto:(Array.length spec.sp_arities))
      end
    done;
    total_schedules := !total_schedules + !schedules;
    if !out_of_budget || not (Queue.is_empty frontier) then complete := false
  in

  let adjudicate_sampled ~pat ~budget =
    let fp = fps.(pat) in
    let rec submit_batches start =
      if start < budget then begin
        let count = min sample_batch (budget - start) in
        submit pat (Batch { start; count });
        submit_batches (start + count)
      end
    in
    submit_batches 0;
    let i = ref 0 in
    while !found = None && !i < budget do
      let spec =
        match
          await
            ~cache:sampled_cache
            ~key:(pat, !i)
            ~covered:(fun () -> covered_index pat !i)
        with
        | Some spec -> spec
        | None -> exec_sampled ~pat !i
      in
      incr total_schedules;
      total_steps := !total_steps + spec.sp_steps;
      (match spec.sp_violation with
      | Some reason ->
        found := Some (mk_cex ~o ~fp target ~n reason spec.sp_choices)
      | None -> ());
      incr i
    done;
    complete := false
  in

  let adjudicate_dpor ~pat ~budget =
    (* DPOR's backtrack sets are computed along one sequential
       exploration; it runs on the coordinator, patterns in order.  Its
       report is already exact. *)
    let fp = fps.(pat) in
    let r =
      Dpor.search ~budget ~shrink:o.shrink ~seed:o.seed target ~fp
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
        let b = min o.inner_budget (remaining ()) in
        match o.explorer with
        | `Exhaustive -> adjudicate_exhaustive ~pat ~budget:b
        | `Dpor -> adjudicate_dpor ~pat ~budget:b
        | `Pct | `Random -> adjudicate_sampled ~pat ~budget:b
      end
      else if !found = None then complete := false)
    fps;

  (* first-counterexample cancellation: junk pending work, drain what is
     in flight, join the pool *)
  Atomic.set cancelled true;
  Mutex.lock mutex;
  Queue.clear jobs;
  shutdown := true;
  Condition.broadcast work_cond;
  Mutex.unlock mutex;
  Array.iter Domain.join workers;
  {
    Crash_adversary.counterexample = !found;
    patterns = !patterns_tried;
    schedules = !total_schedules;
    steps = !total_steps;
    complete = !complete && !found = None;
  }

(* ---- unordered search ------------------------------------------------ *)

(* Pure bug-hunting: one shared frontier over (pattern, work) pairs, no
   adjudication.  Workers prune against the racy shared filter directly,
   insert-then-explore: a key insert claims the state's continuation,
   and the inserting run explores every successor branch up to its own
   cut points, so a complete drain still covers every reachable state
   modulo digests — the standard shared-visited-set parallel
   exploration.  The verdict of a complete drain (violation found / none
   exists) is deterministic; schedule and step totals can vary a little
   with timing (a lost racy insert means a duplicated subtree), and
   *which* counterexample is found first is a race.  Counters never
   include aborted (cancelled mid-run) executions: a clean sampled drain
   counts exactly its budget at every domain count. *)

type u_work = U_prefix of int * int list | U_sampled of int * int

let search_unordered ~(o : Harness.opts) ~fps target ~n =
  let d = Option.value o.d ~default:3 in
  let n_domains = clamp_domains o.domains in
  let prune_mod_time = target.Harness.time_invariant_fd in
  let filter = Filter.create ~stripes:8 17 in
  let cancelled = Atomic.make false in
  let schedules = Atomic.make 0 in
  let steps = Atomic.make 0 in
  let pattern_runs = Array.map (fun _ -> Atomic.make 0) fps in
  let budget_hit = Atomic.make false in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let frontier : u_work Queue.t = Queue.create () in
  let active = ref 0 in
  let found = ref None (* under [mutex] *) in
  let drained = ref true in
  (* Per-pattern budget allocation, computed exactly as the ordered
     search would for a clean run: fewest-crashes-first, min of the
     per-pattern cap and what is left of the total. *)
  let alloc =
    let remaining = ref o.budget in
    Array.map
      (fun _ ->
        let b = min o.inner_budget !remaining in
        remaining := !remaining - b;
        b)
      fps
  in
  Array.iteri
    (fun pat _ ->
      if alloc.(pat) > 0 then
        match o.explorer with
        | `Exhaustive -> Queue.push (U_prefix (pat, [])) frontier
        | `Pct | `Random ->
          for i = 0 to alloc.(pat) - 1 do
            Queue.push (U_sampled (pat, i)) frontier
          done
        | `Dpor -> assert false (* rejected by validate_opts *))
    fps;

  let exec_prefix ~pat prefix =
    let fp = fps.(pat) in
    let depth = List.length prefix in
    let arities = ref [] in
    let consumed = ref 0 in
    let base = Sim.Scheduler.replay prefix ~rest:Sim.Scheduler.first in
    let sched =
      {
        Sim.Scheduler.choose =
          (fun c ->
            arities := Sim.Scheduler.arity c :: !arities;
            incr consumed;
            base.Sim.Scheduler.choose c);
      }
    in
    let cut_at = ref None in
    let aborted = ref false in
    let hook ~now ~digest ~steps:_ =
      if Atomic.get cancelled then begin
        aborted := true;
        false
      end
      else if !consumed < depth then true
      else begin
        let key =
          salt ~pat
            (if prune_mod_time then digest () else Hashtbl.hash (digest (), now))
        in
        if Filter.mem filter key then begin
          cut_at := Some !consumed;
          false
        end
        else begin
          Filter.add_racy filter key;
          true
        end
      end
    in
    let r = Harness.run ~seed:o.seed target ~fp ~round_hook:hook sched in
    (r, Array.of_list (List.rev !arities), !cut_at, !aborted)
  in
  let exec_sampled ~pat idx =
    let fp = fps.(pat) in
    let rng = Sim.Rng.make (Hashtbl.hash (o.seed, pat, idx, "mc.parallel")) in
    let sched =
      match o.explorer with
      | `Pct ->
        Pct.scheduler ~d ~horizon:(max 1 target.Harness.max_steps) rng ~n
      | `Random | `Exhaustive | `Dpor -> Sim.Scheduler.random rng
    in
    Harness.run ~seed:o.seed target ~fp sched
  in
  let record_violation ~pat reason choices =
    Mutex.lock mutex;
    if !found = None then begin
      found := Some (pat, reason, choices);
      Atomic.set cancelled true;
      Condition.broadcast cond
    end;
    Mutex.unlock mutex
  in
  let worker () =
    let continue = ref true in
    while !continue do
      Mutex.lock mutex;
      while
        Queue.is_empty frontier && !active > 0 && not (Atomic.get cancelled)
      do
        Condition.wait cond mutex
      done;
      if Queue.is_empty frontier || Atomic.get cancelled then begin
        continue := false;
        Mutex.unlock mutex
      end
      else begin
        let w = Queue.pop frontier in
        incr active;
        Mutex.unlock mutex;
        (match w with
        | U_prefix (pat, p) ->
          if Atomic.get schedules >= o.budget then begin
            Atomic.set budget_hit true;
            Mutex.lock mutex;
            drained := false;
            Mutex.unlock mutex
          end
          else begin
            let r, arities, cut_at, aborted = exec_prefix ~pat p in
            if not aborted then begin
              Atomic.incr schedules;
              Atomic.incr pattern_runs.(pat);
              ignore (Atomic.fetch_and_add steps r.Harness.steps);
              match r.Harness.violation with
              | Some reason -> record_violation ~pat reason r.Harness.choices
              | None ->
                if Atomic.get pattern_runs.(pat) < alloc.(pat) then begin
                  let seq = Array.of_list r.Harness.choices in
                  let depth = List.length p in
                  let upto =
                    match cut_at with
                    | Some c -> c
                    | None -> Array.length arities
                  in
                  let batch = ref [] in
                  for i = depth to upto - 1 do
                    for alt = 1 to arities.(i) - 1 do
                      batch :=
                        U_prefix (pat, take_prefix seq i @ [ alt ]) :: !batch
                    done
                  done;
                  if !batch <> [] then begin
                    Mutex.lock mutex;
                    List.iter (fun w -> Queue.push w frontier) (List.rev !batch);
                    Condition.broadcast cond;
                    Mutex.unlock mutex
                  end
                end
                else begin
                  Mutex.lock mutex;
                  drained := false;
                  Mutex.unlock mutex
                end
            end
          end
        | U_sampled (pat, i) ->
          let r = exec_sampled ~pat i in
          if not (Atomic.get cancelled) then begin
            Atomic.incr schedules;
            ignore (Atomic.fetch_and_add steps r.Harness.steps);
            match r.Harness.violation with
            | Some reason -> record_violation ~pat reason r.Harness.choices
            | None -> ()
          end);
        Mutex.lock mutex;
        decr active;
        if Queue.is_empty frontier && !active = 0 then Condition.broadcast cond;
        Mutex.unlock mutex
      end
    done
  in
  let domains = Array.init (n_domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains;
  let counterexample =
    match !found with
    | None -> None
    | Some (pat, reason, choices) ->
      Some (mk_cex ~o ~fp:fps.(pat) target ~n reason choices)
  in
  let sampled = o.explorer <> `Exhaustive in
  {
    Crash_adversary.counterexample;
    patterns = Array.length fps;
    schedules = Atomic.get schedules;
    steps = Atomic.get steps;
    complete =
      (not sampled) && !drained && counterexample = None
      && not (Atomic.get budget_hit);
  }

(* ---- entry point ----------------------------------------------------- *)

let search ~(opts : Harness.opts) ?fps target ~n =
  let o = opts in
  let fps =
    match fps with
    | Some l -> Array.of_list l
    | None ->
      Array.of_list
        (Crash_adversary.patterns ~n ~max_crashes:o.max_crashes
           ~horizon:o.horizon ~stride:o.stride)
  in
  if o.ordered then search_ordered ~o ~fps target ~n
  else search_unordered ~o ~fps target ~n
