(* The whole sharded service in one process: S independent replica
   groups (one Net.Local cluster, and so one loopback hub, each), the
   ring, and a router over group callbacks. *)

type group =
  (Replica.state, Replica.msg, Replica.payload, Replica.entry) Net.Local.cluster

type t = { groups : group array; ring : Ring.t }

let create ?(period = 16) ?detector ?sink ?wrap ~shards ~replicas
    ?(spares = 1) () =
  if shards <= 0 then invalid_arg "Cluster.create: shards must be positive";
  if replicas <= 0 then invalid_arg "Cluster.create: replicas must be positive";
  if spares < 0 then invalid_arg "Cluster.create: spares must be non-negative";
  let members = Sim.Pidset.of_list (List.init replicas Fun.id) in
  let groups =
    Array.init shards (fun id ->
        Net.Local.make
          ?sink:(Option.map (fun f -> f ~shard:id) sink)
          ?wrap:(Option.map (fun f -> f ~shard:id) wrap)
          ~codec:Replica.codec ~n:(replicas + spares)
          (Replica.protocol ?detector ~period ~members ()))
  in
  { groups; ring = Ring.create (List.init shards Fun.id) }

let group t s = t.groups.(s)
let ring t = t.ring

let step t = Array.iter Net.Local.cluster_step t.groups

let run t ~rounds =
  for _ = 1 to rounds do
    step t
  done

(* The group's configuration as the router sees it: the highest epoch
   any live replica has installed (replicas mid-catch-up may lag). *)
let config g =
  match
    Net.Local.cluster_live g
    |> List.map (fun p -> Replica.config (Net.Local.cluster_state g p))
    |> List.sort (fun a b -> compare b.Epoch.epoch a.Epoch.epoch)
  with
  | cfg :: _ -> cfg
  | [] -> Replica.config (Net.Local.cluster_state g 0)

(* Submit at the lowest live member of the current configuration (any
   member disseminates to the leader).  False if no member is live. *)
let submit_any g c =
  let cfg = config g in
  match List.filter (Epoch.is_member cfg) (Net.Local.cluster_live g) with
  | p :: _ ->
    Net.Local.cluster_submit g p c;
    true
  | [] -> false

let applied_max g =
  List.fold_left
    (fun acc p -> max acc (Replica.applied (Net.Local.cluster_state g p)))
    0 (Net.Local.cluster_live g)

let ops t s =
  let g = t.groups.(s) in
  {
    Router.config = (fun () -> config g);
    sample =
      (fun p ~key ->
        if Net.Local.cluster_crashed g p then None
        else Some (Router.view_of (Net.Local.cluster_state g p) ~key));
    submit = submit_any g;
  }

let router t = Router.create ~ring:t.ring ~ops:(ops t) ~step:(fun () -> step t)

let reconfig t ~shard (next : Epoch.config) =
  submit_any t.groups.(shard)
    (Replica.Reconfig
       { epoch = next.epoch; members = Sim.Pidset.elements next.members })

let applied_total t =
  Array.fold_left (fun acc g -> acc + applied_max g) 0 t.groups
