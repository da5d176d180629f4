(* Dynamic partial-order reduction over the round scheduler's choice
   points.

   Every {!Harness.run} delivers under [Fifo], so the only choice points
   a run makes are [Round_order] picks: each engine round asks "who steps
   next?" k - 1 times for k alive processes.  Exhaustive search branches on every
   pick; most of those branches only permute steps that cannot observe
   each other.  This analysis, instead of opening every sibling of every
   choice taken, records what each step actually *did* (message
   destinations, the message it delivered, outputs) and requests an
   alternative order only where two steps of the same round race — the
   Flanagan–Godefroid backtrack-set construction, specialised to the
   round-barrier structure of the engine.  {!Parallel.search} explores
   the requested alternatives as its children rule.

   Two steps [a] before [b] of the same round are independent (their
   adjacent swap is behaviour-preserving) when all of:

   - not both emitted an [Output].  Swapping an output step with a
     non-output neighbour shifts the output's slot time by one, but the
     neighbour contributes no events, so the pairwise time order (and
     ties) among *all* outputs of the run is unchanged — and that is
     all the invariants read: linearizability derives both invocation
     and response times from output events, consensus/NBAC ignore
     times, and QC's comparison of a Quit time against the first crash
     is covered by the unsafe-round crash guard below.  Two output
     steps of one round do swap their relative event order, so they
     conflict;
   - their destination sets are disjoint (a common destination orders
     the two sends by the global sequence number in the receiver's
     queue, and a swap flips it);
   - if [a] sends to [pid b], process [b] did not consume that very
     message at its own slot and did not deliver [None]: a Fifo queue
     pops the oldest ready message, so a send landing *behind* an older
     message the receiver pops this round is invisible to it — but into
     an empty queue it is exactly what the receiver would have seen
     (the Fifo delay-1 boundary: a's send is ready at b's slot);
   - if [b] sends to [pid a], process [a] delivered something: moved
     before [a], b's send becomes ready at a's slot and an empty queue
     would now hand it over, while any message [a] did deliver has a
     smaller sequence number than b's fresh send in either order.

   The delivery-sensitive conditions need to know which message each
   slot consumed, so the analysis replays the run's sends and
   deliveries through a per-destination Fifo queue model (global
   sequence = chronological send order, ready one slot after sending —
   the engine's own Fifo discipline).  If the model ever disagrees with
   an observed delivery the run is analysed with the coarse relation
   (sends to a process conflict with its step unconditionally) instead.

   Rounds where the independence argument does not apply fall back to
   full sibling expansion (exactly what exhaustive search does for every
   round): a scheduled process did not step (crash or step budget
   truncated the round), any process's crash time or an external-input
   time falls inside the round's slot window (reordering moves events
   across it, and QC-style invariants compare output times against
   crash times).  A target whose failure detector is time-varying
   ([time_invariant_fd = false]: a reorder changes the [now] each
   process queries at) falls back everywhere, so {!Parallel.search}
   gives it the exhaustive children rule outright.  Sends to a process
   already crashed at the round's start are invisible forever (a crash
   is permanent and the round is crash-free) and are dropped from
   destination sets before the race check.

   Backtrack points follow Flanagan–Godefroid: for each slot [b], one
   request at the *last* earlier slot it races with (recursion on the
   new branches completes the set).  Digest pruning composes: digests
   are taken at round boundaries and races never cross a round, so
   cutting a run at a previously-seen boundary state is unaffected by
   the reduction.  The per-node set of already-explored alternatives
   acts as the node's sleep set: prefixes are canonical (trailing
   default-0 picks stripped), so an interleaving a previous branch
   already covers collapses onto the explored path and is never
   re-entered.

   A run resumed from a round snapshot ({!Parallel}) analyses only the
   rounds it executes.  The rounds before the snapshot are the rounds of
   the run that took it, whose requests — and those of its own resumed
   ancestors — are already in the explored-prefix table, so they would
   yield nothing new.  The queue model resumes from the [state] kept
   with the snapshot, and choice indices keep counting from time 0. *)

(* ---- the per-run log ------------------------------------------------ *)

(* What a slot's delivery resolved to under the queue model. *)
type del_info =
  | D_none  (* polled an empty (ready) queue *)
  | D_msg of Sim.Pid.t * int  (* src, sent_at *)
  | D_unknown  (* model disagreed with the run: be conservative *)

type slot = {
  sl_now : int;
  sl_pid : Sim.Pid.t;
  sl_dests : Sim.Pid.t list;
  sl_output : bool;
  sl_delivered : Sim.Pid.t option;  (* src of the consumed message *)
  mutable sl_del : del_info;
}

(* One engine round, reassembled: the [Round_order] picks made by
   [Scheduler.order], then the slots that actually executed. *)
type seg = {
  sg_choices : (int * Sim.Pid.t list * int * int) list;
      (* g, candidates, picked, arity *)
  sg_slots : slot list;
}

(* The engine's Fifo discipline as the analysis replays it: per-destination
   queues of (seq, src, sent_at), oldest (smallest seq) first, the global
   sequence = send order, a message ready one slot after sending.  [ok]
   turns false for good at the first delivery the model disagrees with;
   [g] counts the choices made so far.  Kept at every round boundary with
   the engine's snapshot, so a resumed run's analysis starts where the
   run that took it stood. *)
type state = {
  queues : (int * Sim.Pid.t * int) list array;
  seq : int;
  ok : bool;
  g : int;
}

(* Resolve each slot's [sl_del] against the queue model, advancing it.  On
   any disagreement with the observed delivery, leave every remaining
   slot [D_unknown]. *)
let resolve_deliveries queues ~seq ~ok sg =
  List.iter
    (fun s ->
      if !ok then begin
        (match s.sl_delivered with
        | None ->
          (* the engine found nothing ready: check the model agrees *)
          if
            List.exists
              (fun (_, _, sent_at) -> sent_at + 1 <= s.sl_now)
              queues.(s.sl_pid)
          then ok := false
          else s.sl_del <- D_none
        | Some src -> (
          let ready =
            List.filter
              (fun (_, _, sent_at) -> sent_at + 1 <= s.sl_now)
              queues.(s.sl_pid)
          in
          match ready with
          | (q, src', sent_at) :: _ when Sim.Pid.equal src src' ->
            s.sl_del <- D_msg (src', sent_at);
            queues.(s.sl_pid) <-
              List.filter (fun (q', _, _) -> q' <> q) queues.(s.sl_pid)
          | _ -> ok := false));
        List.iter
          (fun d ->
            queues.(d) <- queues.(d) @ [ (!seq, s.sl_pid, s.sl_now) ];
            incr seq)
          s.sl_dests
      end)
    sg.sg_slots

(* ---- one round's backtrack requests -------------------------------- *)

let mem p l = List.exists (Sim.Pid.equal p) l

let races ~round_start a b =
  (a.sl_output && b.sl_output)
  || List.exists (fun d -> mem d b.sl_dests) a.sl_dests
  || (mem b.sl_pid a.sl_dests
     &&
     match b.sl_del with
     | D_none | D_unknown -> true
     | D_msg (src, sent_at) ->
       Sim.Pid.equal src a.sl_pid && sent_at >= round_start)
  || (mem a.sl_pid b.sl_dests
     && match a.sl_del with D_none | D_unknown -> true | D_msg _ -> false)

(* Reconstruct the scheduled order from the round's picks.  [None] means
   the choice stream is not the plain [Scheduler.order] shape. *)
let scheduled_of seg =
  let rec go acc remaining = function
    | [] -> (
      match remaining with
      | [ last ] -> Some (List.rev (last :: acc))
      | [] -> (
        (* no choices at all: a 0- or 1-process round *)
        match (acc, seg.sg_slots) with
        | [], [] -> Some []
        | [], [ s ] -> Some [ s.sl_pid ]
        | _ -> None)
      | _ -> None)
    | (_, cand, picked, _) :: tl ->
      if remaining <> [] && cand <> remaining then None
      else if picked < 0 || picked >= List.length cand then None
      else
        let p = List.nth cand picked in
        go (p :: acc) (List.filteri (fun j _ -> j <> picked) cand) tl
  in
  match seg.sg_choices with
  | [] -> go [] [] []
  | (_, cand0, _, _) :: _ -> go [] cand0 seg.sg_choices

(* Backtrack requests of one segment: [(g, alt)] pairs naming an
   alternative pick at an earlier choice node.  Falls back to full
   sibling expansion when the round is not reduction-safe. *)
let seg_requests ~fp ~n ~input_times seg =
  let full () =
    List.concat_map
      (fun (g, _, picked, ar) ->
        List.filter_map
          (fun alt -> if alt <> picked then Some (g, alt) else None)
          (List.init ar Fun.id))
      seg.sg_choices
  in
  match scheduled_of seg with
  | None -> full ()
  | Some scheduled ->
    let slots = Array.of_list seg.sg_slots in
    let k = List.length scheduled in
    let stepped_match =
      Array.length slots = k
      && List.for_all2
           (fun p s -> Sim.Pid.equal p s.sl_pid)
           scheduled (Array.to_list slots)
    in
    if not stepped_match then full ()
    else if k <= 1 then []
    else begin
      let round_start = slots.(0).sl_now in
      let window_end = round_start + k - 1 in
      (* unsafe if ANY process's crash time lands in the slot window:
         a scheduled one would vanish mid-reorder, and QC compares
         output times against crash times *)
      let crash_unsafe =
        List.exists
          (fun p ->
            Sim.Failure_pattern.crashed_at fp ~time:window_end p
            && (round_start = 0
               || not
                    (Sim.Failure_pattern.crashed_at fp
                       ~time:(round_start - 1) p)))
          (Sim.Pid.all n)
      in
      let input_unsafe =
        List.exists
          (fun (tau, p) ->
            tau > round_start && tau <= window_end && mem p scheduled)
          input_times
      in
      if crash_unsafe || input_unsafe then full ()
      else begin
        (* drop sends to processes crashed since before this round:
           permanently crashed, those messages are never delivered *)
        let slots =
          Array.map
            (fun s ->
              {
                s with
                sl_dests =
                  List.filter
                    (fun d ->
                      not
                        (Sim.Failure_pattern.crashed_at fp ~time:round_start
                           d))
                    s.sl_dests;
              })
            slots
        in
        let choices = Array.of_list seg.sg_choices in
        let reqs = ref [] in
        for b = 1 to k - 1 do
          (* Flanagan–Godefroid: one request, at the last race *)
          let a = ref (min (b - 1) (k - 2)) in
          let hit = ref false in
          while (not !hit) && !a >= 0 do
            if races ~round_start slots.(!a) slots.(b) then hit := true
            else decr a
          done;
          if !hit then begin
            let g, cand, _, _ = choices.(!a) in
            let pb = slots.(b).sl_pid in
            let alt = ref (-1) in
            List.iteri
              (fun j p -> if Sim.Pid.equal p pb then alt := j)
              cand;
            if !alt >= 0 then reqs := (g, !alt) :: !reqs
          end
        done;
        List.rev !reqs
      end
    end


(* ---- runs and their requests ----------------------------------------- *)

let run ~seed ~round_hook ?resume ?save target ~fp sched =
  let n = Sim.Failure_pattern.n fp in
  let input_times =
    List.map (fun (t, p, _) -> (t, p)) (target.Harness.make_inputs fp)
  in
  let st =
    match resume with
    | Some (_, st) -> st
    | None -> { queues = Array.make n []; seq = 0; ok = true; g = 0 }
  in
  let queues = Array.copy st.queues in
  let seq = ref st.seq and ok = ref st.ok and g = ref st.g in
  let choices = ref [] and slots = ref [] and reqs = ref [] in
  (* Close the current round: resolve its deliveries and take its
     requests.  Nothing sent at a slot is deliverable at that slot, so
     the order of sends within one slot does not matter to the model. *)
  let flush () =
    if !choices <> [] || !slots <> [] then begin
      let sg = { sg_choices = List.rev !choices; sg_slots = List.rev !slots } in
      resolve_deliveries queues ~seq ~ok sg;
      reqs := seg_requests ~fp ~n ~input_times sg :: !reqs;
      choices := [];
      slots := []
    end
  in
  (* instrumented protocol: record each slot's pid, destination set,
     consumed message and output flag; the engine calls on_input and
     then on_step at one [now], and both land in that slot *)
  let record ctx recv acts =
    let dests =
      List.concat_map
        (function
          | Sim.Protocol.Send (d, _) -> if Sim.Pid.valid ~n d then [ d ] else []
          | Sim.Protocol.Broadcast _ -> Sim.Pid.all n
          | Sim.Protocol.Output _ -> [])
        acts
    in
    let output =
      List.exists (function Sim.Protocol.Output _ -> true | _ -> false) acts
    in
    let now = ctx.Sim.Protocol.now and pid = ctx.Sim.Protocol.self in
    let delivered = Option.map fst recv in
    match !slots with
    | s :: tl when s.sl_now = now ->
      assert (Sim.Pid.equal pid s.sl_pid);
      slots :=
        {
          s with
          sl_dests = s.sl_dests @ dests;
          sl_output = s.sl_output || output;
          sl_delivered =
            (match s.sl_delivered with Some _ as d -> d | None -> delivered);
        }
        :: tl
    | _ ->
      slots :=
        {
          sl_now = now;
          sl_pid = pid;
          sl_dests = dests;
          sl_output = output;
          sl_delivered = delivered;
          sl_del = D_unknown;
        }
        :: !slots
  in
  let proto = target.Harness.protocol in
  let instrumented =
    {
      proto with
      Sim.Protocol.on_step =
        (fun ctx st recv ->
          let st, acts = proto.Sim.Protocol.on_step ctx st recv in
          record ctx recv acts;
          (st, acts));
      on_input =
        (fun ctx st inp ->
          let st, acts = proto.Sim.Protocol.on_input ctx st inp in
          record ctx None acts;
          (st, acts));
    }
  in
  let sched =
    {
      Sim.Scheduler.choose =
        (fun c ->
          let i = sched.Sim.Scheduler.choose c in
          (match c with
          | Sim.Scheduler.Round_order cand ->
            choices := (!g, cand, i, List.length cand) :: !choices
          | Send_delay _ | Deliver_pick _ | Deliver_skip _ ->
            invalid_arg "Dpor: a delivery choice under Fifo");
          incr g;
          i);
    }
  in
  let round_hook ~now ~digest ~steps =
    flush ();
    round_hook ~now ~digest ~steps
  in
  let save =
    Option.map
      (fun save snap ->
        save
          (snap, { queues = Array.copy queues; seq = !seq; ok = !ok; g = !g }))
      save
  in
  let r =
    Harness.run ~seed ~round_hook
      ?resume:(Option.map fst resume)
      ?save
      { target with Harness.protocol = instrumented }
      ~fp sched
  in
  flush ();
  (r, List.sort_uniq compare (List.concat !reqs))

(* ---- the explored-prefix table -------------------------------------- *)

(* Canonical prefixes: a run extends its prefix with default (index 0)
   picks, so the path [p @ zeros] is the path of prefix [p] — strip
   trailing zeros before using a prefix as a tree-node identity.  The
   table over canonical prefixes is both the work list's dedup and the
   per-node sleep set. *)
let canonical prefix =
  let rec strip = function 0 :: tl -> strip tl | l -> l in
  List.rev (strip (List.rev prefix))

(* The polymorphic [Hashtbl.hash] reads only the first 10 elements of a
   list; prefixes are long and share their heads, so they would pile
   into a few buckets.  Hash the whole prefix. *)
module Prefixes = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = Hashtbl.hash (List.fold_left (fun h x -> (h * 31) + x) 0 l)
end)

type explored = unit Prefixes.t

let explored () =
  let t = Prefixes.create 4096 in
  Prefixes.add t [] ();
  t

let openings explored ~choices ~upto reqs =
  List.filter_map
    (fun (g, alt) ->
      if g >= upto then None
      else
        let p = canonical (Array.to_list (Array.sub choices 0 g) @ [ alt ]) in
        if Prefixes.mem explored p then None
        else begin
          Prefixes.add explored p ();
          Some p
        end)
    reqs
