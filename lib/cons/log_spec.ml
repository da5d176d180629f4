type ('e, 'k) run = {
  logs : (Sim.Pid.t * 'e list) list;
  correct : Sim.Pid.t list;
  submitted : (Sim.Pid.t * 'k) list;
  key : 'e -> 'k option;
}

type 'k violation =
  | Duplicated of Sim.Pid.t * 'k
  | Unsubmitted of Sim.Pid.t * 'k
  | Forked of Sim.Pid.t * Sim.Pid.t
  | Differ of Sim.Pid.t * Sim.Pid.t
  | Lost of Sim.Pid.t * 'k
  | Missing of Sim.Pid.t * 'k

let log_of run p = Option.value (List.assoc_opt p run.logs) ~default:[]
let keys run log = List.filter_map run.key log

let key_set keys =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keys;
  t

(* [keys] without repeats, in first-seen order *)
let distinct keys =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun k -> (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    keys

let integrity run =
  let submitted = key_set (List.map snd run.submitted) in
  List.find_map
    (fun (p, log) ->
      let seen = Hashtbl.create 64 in
      List.find_map
        (fun k ->
          if Hashtbl.mem seen k then Some (Duplicated (p, k))
          else if not (Hashtbl.mem submitted k) then Some (Unsubmitted (p, k))
          else (Hashtbl.add seen k (); None))
        (keys run log))
    run.logs

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a, y :: b -> x = y && is_prefix a b

(* Logs are pairwise prefix-compatible iff each is a prefix of a longest
   one: one pass instead of one per pair. *)
let total_order run =
  match run.logs with
  | [] -> None
  | first :: rest ->
    let q, longest =
      List.fold_left
        (fun (q, lq) (p, lp) ->
          if List.compare_lengths lp lq > 0 then (p, lp) else (q, lq))
        first rest
    in
    List.find_map
      (fun (p, lp) ->
        if is_prefix lp longest then None else Some (Forked (min p q, max p q)))
      run.logs

let agreement run =
  match run.correct with
  | [] -> None
  | p :: rest ->
    let lp = log_of run p in
    List.find_map
      (fun q -> if log_of run q = lp then None else Some (Differ (p, q)))
      rest

(* The keys uniform agreement owes (every applied one) and those validity
   owes (every one a correct process submitted), each paired with the
   first correct process that lacks it. *)
let lacking run =
  let held =
    List.map (fun p -> (p, key_set (keys run (log_of run p)))) run.correct
  in
  let lack ks =
    List.filter_map
      (fun k ->
        List.find_map
          (fun (p, h) -> if Hashtbl.mem h k then None else Some (p, k))
          held)
      (distinct ks)
  in
  ( lack (List.concat_map (fun (_, log) -> keys run log) run.logs),
    lack
      (List.filter_map
         (fun (o, k) -> if List.mem o run.correct then Some k else None)
         run.submitted) )

let safety run =
  Option.to_list (integrity run) @ Option.to_list (total_order run)

let check ~live run =
  let first f = function (p, k) :: _ -> [ f (p, k) ] | [] -> [] in
  let liveness =
    if not live then []
    else
      let uniform, validity = lacking run in
      first (fun (p, k) -> Lost (p, k)) uniform
      @ first (fun (p, k) -> Missing (p, k)) validity
  in
  safety run @ Option.to_list (agreement run) @ liveness

let missing run =
  let uniform, validity = lacking run in
  distinct (List.map snd (uniform @ validity))

let pp_violation pp_key ppf v =
  let say fmt = Format.fprintf ppf fmt and pid = Sim.Pid.pp in
  match v with
  | Duplicated (p, k) ->
    say "integrity violated: %a applied %a twice" pid p pp_key k
  | Unsubmitted (p, k) ->
    say "integrity violated: %a applied %a, which nobody submitted" pid p
      pp_key k
  | Forked (p, q) ->
    say "total order violated: logs of %a and %a are not prefix-compatible"
      pid p pid q
  | Differ (p, q) ->
    say "agreement violated: correct %a and %a hold different logs" pid p pid
      q
  | Lost (p, k) ->
    say
      "uniform agreement violated: correct %a lacks %a, which a process \
       applied"
      pid p pp_key k
  | Missing (p, k) ->
    say
      "validity violated: correct %a lacks %a, which a correct process \
       submitted"
      pid p pp_key k
