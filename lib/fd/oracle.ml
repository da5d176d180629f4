type 'a history = Sim.Pid.t -> int -> 'a

type 'a t = {
  name : string;
  generate : Sim.Failure_pattern.t -> Sim.Rng.t -> 'a history;
}

let name t = t.name
let make ~name generate = { name; generate }
let history t fp ~seed = t.generate fp (Sim.Rng.make seed)

let const ~name v = { name; generate = (fun _ _ -> fun _ _ -> v) }

let product a b =
  {
    name = Printf.sprintf "(%s,%s)" a.name b.name;
    generate =
      (fun fp rng ->
        let ha = a.generate fp (Sim.Rng.split rng 11) in
        let hb = b.generate fp (Sim.Rng.split rng 12) in
        fun p t -> (ha p t, hb p t));
  }

let map ~name f t =
  {
    name;
    generate =
      (fun fp rng ->
        let h = t.generate fp rng in
        fun p time -> f (h p time));
  }

let default_stabilization fp rng =
  let base =
    match Sim.Failure_pattern.first_crash fp with
    | None -> 0
    | Some _ ->
      (* After the *last* crash, every "eventually" clause may fire. *)
      List.fold_left
        (fun acc p ->
          match Sim.Failure_pattern.crash_time fp p with
          | None -> acc
          | Some t -> max acc t)
        0
        (Sim.Pid.all (Sim.Failure_pattern.n fp))
  in
  base + 1 + Sim.Rng.int rng 50

let of_outputs ~init events =
  let n =
    List.fold_left (fun m (e : _ Sim.Trace.event) -> max m (e.pid + 1)) 0 events
  in
  (* per process, by time: the stable sort keeps the later of two at one
     time last *)
  let mine = Array.make n [] in
  List.iter
    (fun (e : _ Sim.Trace.event) -> mine.(e.pid) <- e :: mine.(e.pid))
    (List.rev
       (List.stable_sort
          (fun (a : _ Sim.Trace.event) b -> Int.compare a.time b.time)
          events));
  let streams = Array.map Array.of_list mine in
  fun p t ->
    let es = if p >= 0 && p < n then streams.(p) else [||] in
    (* the number of [p]'s outputs at or before [t] *)
    let rec upto lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if es.(mid).Sim.Trace.time <= t then upto (mid + 1) hi else upto lo mid
    in
    match upto 0 (Array.length es) with 0 -> init | k -> es.(k - 1).value

let per_query rng p t = Sim.Rng.derive rng ((p * 1_000_003) + t)
