(* PCT-style randomized priority scheduling (Burckhardt et al., ASPLOS'10),
   adapted to the round-based engine: processes carry random priorities and
   every "who steps next" / "whose message is received" choice picks the
   highest-priority process.  [d - 1] priority change points are placed
   uniformly over the scheduling decisions of a run; when one is hit, the
   process just scheduled drops below every other priority.  A bug of depth
   [d] is found with probability >= 1 / (n * k^(d-1)) per run. *)

let scheduler ?(d = 3) ~horizon rng ~n =
  let prio = Array.init n (fun i -> i) in
  let shuffled = Sim.Rng.shuffle rng (Array.to_list prio) in
  List.iteri (fun rank pid -> prio.(pid) <- n + rank) shuffled;
  let next_low = ref 0 in
  (* d-1 change points over the expected number of scheduling decisions *)
  let change =
    List.init (max 0 (d - 1)) (fun _ -> 1 + Sim.Rng.int rng (max 1 horizon))
    |> List.sort_uniq compare
  in
  let change = ref change in
  let decisions = ref 0 in
  let best candidates =
    let rec go i bi bp = function
      | [] -> bi
      | (p : Sim.Pid.t) :: tl ->
        if prio.(p) > bp then go (i + 1) i prio.(p) tl else go (i + 1) bi bp tl
    in
    go 0 0 min_int candidates
  in
  let scheduled (pid : Sim.Pid.t) =
    incr decisions;
    match !change with
    | cp :: tl when !decisions >= cp ->
      change := tl;
      (* demote the just-scheduled process below everything else *)
      decr next_low;
      prio.(pid) <- !next_low
    | _ -> ()
  in
  {
    Sim.Scheduler.choose =
      (fun c ->
        match c with
        | Sim.Scheduler.Round_order candidates ->
          let i = best candidates in
          scheduled (List.nth candidates i);
          i
        | Sim.Scheduler.Deliver_pick { candidates; _ } -> best candidates
        | Sim.Scheduler.Send_delay _ -> 0
        | Sim.Scheduler.Deliver_skip _ -> 0);
  }
