(* Any protocol, one loopback hub, round-robin driving.  [create] below
   instantiates it with Smr_node.protocol; Shard.Cluster instantiates it
   with the reconfigurable shard replica, one cluster per shard. *)

type ('st, 'msg, 'inp, 'out) cluster = {
  hub : Loopback.hub;
  nodes : ('st, 'msg, 'inp, 'out) Node.t array;
  logs : 'out list ref array;  (* newest first *)
}

let make ?(sink = fun _ -> None) ?(wrap = fun _ t -> t) ~codec ?metrics
    ?classify ~n proto =
  let hub = Loopback.create ~n () in
  {
    hub;
    nodes =
      Array.init n (fun p ->
          Node.create ?sink:(sink p) ~codec ?metrics ?classify
            ~transport:(wrap p (Loopback.endpoint hub p))
            proto);
    logs = Array.init n (fun _ -> ref []);
  }

let cluster_hub t = t.hub
let cluster_crashed t p = Loopback.crashed t.hub p

let cluster_live t =
  List.filter
    (fun p -> not (cluster_crashed t p))
    (Sim.Pid.all (Array.length t.nodes))

let cluster_step_one t p =
  if not (cluster_crashed t p) then begin
    let node = t.nodes.(p) in
    ignore (Node.step node);
    match Node.drain_outputs node with
    | [] -> ()
    | outs -> t.logs.(p) := List.rev_append outs !(t.logs.(p))
  end

let cluster_step t = Array.iteri (fun p _ -> cluster_step_one t p) t.nodes

let cluster_run t ~rounds =
  for _ = 1 to rounds do
    cluster_step t
  done

let cluster_submit t p c = Node.inject t.nodes.(p) c
let cluster_crash t p = Loopback.crash t.hub p
let cluster_outputs t p = List.rev !(t.logs.(p))
let cluster_state t p = Node.state t.nodes.(p)
let cluster_now t p = Node.now t.nodes.(p)

(* ------------------------------------------------- the SMR instance *)

type 'c t =
  ('c Smr_node.pstate, 'c Smr_node.pmsg, 'c, int * 'c Cons.Smr.cmd) cluster

(* The string SMR cluster runs the same binary codec tower as the
   deployed node: the hub carries encoded frames, so loopback benches
   measure the real encode/decode cost. *)
let create ?(period = 16) ?window ?batch_max ?detector ?sink ?wrap ?metrics
    ~n () =
  make ?sink ?wrap
    ~codec:(Codecs.pmsg Wire.string_c)
    ?metrics ~classify:Smr_node.classify ~n
    (Smr_node.protocol ?window ?batch_max ?detector ~period ())
