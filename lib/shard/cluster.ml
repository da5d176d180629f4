(* The whole sharded service in one process: S independent replica
   groups (one loopback hub each), the ring, and a router over group
   callbacks. *)

type t = {
  groups : Group.t array;
  ring : Ring.t;
  replicas : int;
  spares : int;
}

let create ?(period = 16) ?detector ?snap_every ?lag_gap ?points ?sink ?wrap
    ~shards ~replicas ?(spares = 1) () =
  if shards <= 0 then invalid_arg "Cluster.create: shards must be positive";
  if replicas <= 0 then invalid_arg "Cluster.create: replicas must be positive";
  let universe = replicas + spares in
  let members = Sim.Pidset.of_list (List.init replicas Fun.id) in
  let groups =
    Array.init shards (fun id ->
        Group.create ~period ?detector ?snap_every ?lag_gap
          ?sink:(Option.map (fun f -> f ~shard:id) sink)
          ?wrap:(Option.map (fun f -> f ~shard:id) wrap)
          ~id ~universe ~members ())
  in
  { groups; ring = Ring.create ?points (List.init shards Fun.id); replicas;
    spares }

let shards t = Array.length t.groups
let replicas t = t.replicas
let spares t = t.spares
let group t s = t.groups.(s)
let ring t = t.ring

let step t = Array.iter Group.step t.groups

let run t ~rounds =
  for _ = 1 to rounds do
    step t
  done

let ops t s =
  let g = t.groups.(s) in
  {
    Router.universe = Group.universe g;
    config = (fun () -> Group.config g);
    sample =
      (fun p ~key ->
        Group.sample g p ~key
        |> Option.map (fun (v_epoch, v_applied, v_value) ->
               { Router.v_epoch; v_applied; v_value }));
    submit = (fun c -> Group.submit_any g c);
  }

let router t = Router.create ~ring:t.ring ~ops:(ops t) ~step:(fun () -> step t)

(* Submit the next-epoch Reconfig through the shard's own log. *)
let reconfig t ~shard ~members =
  let g = t.groups.(shard) in
  let cfg = Group.config g in
  Group.submit_any g
    (Replica.Reconfig { epoch = cfg.Epoch.epoch + 1; members })

(* The canonical membership rotation used by the chaos harness and the
   demo: drop the lowest member, install the lowest non-member spare. *)
let rotated_members t ~shard =
  let g = t.groups.(shard) in
  let cfg = Group.config g in
  let members = Sim.Pidset.elements cfg.Epoch.members in
  let outside =
    List.filter
      (fun p -> not (Epoch.is_member cfg p))
      (Sim.Pid.all (Group.universe g))
  in
  match (members, outside) with
  | _ :: keep, fresh :: _ -> Some (keep @ [ fresh ])
  | _ -> None

let applied_total t =
  Array.fold_left (fun acc g -> acc + Group.applied_max g) 0 t.groups
