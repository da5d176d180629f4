(* One shard's replica group: Replica.protocol over its own loopback hub
   (Net.Local generic core), on the replica's binary codec. *)

type t = {
  id : int;
  universe : int;
  cl :
    (Replica.state, Replica.msg, Replica.payload, Replica.entry)
    Net.Local.cluster;
}

let create ?(period = 16) ?detector ?snap_every ?lag_gap ?sink ?wrap ~id
    ~universe ~members () =
  if universe < Sim.Pidset.cardinal members then
    invalid_arg "Group.create: members exceed universe";
  let proto =
    Replica.protocol ?snap_every ?lag_gap ?detector ~period ~members ()
  in
  {
    id;
    universe;
    cl = Net.Local.make ?sink ?wrap ~codec:Replica.codec ~n:universe proto;
  }

let id t = t.id
let universe t = t.universe
let step t = Net.Local.cluster_step t.cl
let step_one t p = Net.Local.cluster_step_one t.cl p
let run t ~rounds = Net.Local.cluster_run t.cl ~rounds
let submit t p c = Net.Local.cluster_submit t.cl p c
let crash t p = Net.Local.cluster_crash t.cl p
let crashed t p = Net.Loopback.crashed (Net.Local.cluster_hub t.cl) p
let applied_log t p = Net.Local.cluster_outputs t.cl p
let state t p = Net.Local.cluster_state t.cl p
let now t p = Net.Local.cluster_now t.cl p

(* -- helpers used by the router -- *)

let live t = List.filter (fun p -> not (crashed t p)) (Sim.Pid.all t.universe)

(* The group's configuration as the router sees it: the highest epoch
   any live replica has installed (replicas mid-catch-up may lag). *)
let config t =
  match
    live t
    |> List.map (fun p -> Replica.config (state t p))
    |> List.sort (fun a b -> compare b.Epoch.epoch a.Epoch.epoch)
  with
  | cfg :: _ -> cfg
  | [] -> Replica.config (state t 0)

let sample t p ~key =
  if crashed t p then None else Some (Router.view_of (state t p) ~key)

(* Submit at the lowest live member of the current configuration (any
   member disseminates to the leader).  False if no member is live. *)
let submit_any t c =
  let cfg = config t in
  match List.filter (fun p -> Epoch.is_member cfg p) (live t) with
  | p :: _ ->
    submit t p c;
    true
  | [] -> false

let applied_min t =
  match List.map (fun p -> Replica.applied (state t p)) (live t) with
  | [] -> 0
  | xs -> List.fold_left min max_int xs

let applied_max t =
  List.fold_left
    (fun acc p -> max acc (Replica.applied (state t p)))
    0 (live t)
