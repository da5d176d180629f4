(* One shard replica: quorum-Paxos SMR plus snapshot catch-up, under the
   detector pair (Ω, epoch-aware Σ), composed through Sim.Layered.  The
   main layer talks back to the detector layer through [feedback]:
   applying a Reconfig entry from the decided log installs the next
   configuration into Sigma_epoch (set_config).

   Why the epoch handoff is safe here: the replica runs Cons.Smr at
   window = 1 (the default protocol), under which a process proposes
   instance j only once instances 0..j-1 are applied, so every process
   proposing instance j has applied the same command prefix and hence
   agrees on the configuration in force at instance j.  Two replicas in
   different epochs necessarily differ in applied prefix and therefore
   never participate in the same instance with different member sets.
   (Batching within an instance is fine — a Reconfig decided mid-batch
   still takes effect before any later instance is proposed — but
   pipelining, window > 1, would break this argument: keep the replica
   on the default protocol.) *)

module Omega = Fd.Emulated.Omega
module Sigma = Fd.Emulated.Sigma_epoch
module Smap = Map.Make (String)

type payload =
  | App of { key : string; value : string }
  | Reconfig of { epoch : int; members : Sim.Pid.t list }

type cmd = payload Cons.Smr.cmd
type entry = int * cmd

type main_msg =
  | Smr of payload Cons.Smr.msg
  | Snap_req of { since : int }  (* since = applied *instance* count *)
  | Snap of (int * cmd list) list  (* decided batches, instance-granular *)

type msg =
  ((Omega.msg, Sigma.msg) Sim.Layered.wire, main_msg) Sim.Layered.wire

type main = {
  smr : payload Cons.Smr.state;
  cfg : Epoch.config;
  kv : (int * string) Smap.t;  (* key -> (slot of last write, value) *)
  max_slot_seen : int;  (* highest consensus instance seen on the wire *)
  snaps_served : int;
  snaps_installed : int;  (* entries that became applicable via snapshots *)
}

type state = (Omega.state * Sigma.state) * main

let pp_payload ppf = function
  | App { key; value } -> Format.fprintf ppf "app %s=%s" key value
  | Reconfig { epoch; members } ->
    Format.fprintf ppf "reconfig e%d [%s]" epoch
      (String.concat "," (List.map string_of_int members))

let payload_to_string p = Format.asprintf "%a" pp_payload p

(* views *)
let smr_state ((_, m) : state) = m.smr
let sigma_state (((_, si), _) : state) = si
let config ((_, m) : state) = m.cfg
let epoch ((_, m) : state) = m.cfg.Epoch.epoch
let applied ((_, m) : state) = Cons.Smr.applied m.smr
let kv_find ((_, m) : state) key = Smap.find_opt key m.kv
let snaps_served ((_, m) : state) = m.snaps_served
let snaps_installed ((_, m) : state) = m.snaps_installed

(* The configuration a decided entry installs, if any.  A Reconfig that
   is not the immediate next epoch is a deterministic no-op: every
   replica applies the same log prefix, so every replica rejects it
   identically.  The main layer's [cfg] and Σ (through [feedback]) both
   follow this one rule, so the two never diverge. *)
let transition ~n (cfg : Epoch.config) (cmd : cmd) =
  match cmd.Cons.Smr.payload with
  | App _ -> None
  | Reconfig { epoch; members } ->
    let members =
      Sim.Pidset.of_list (List.filter (Sim.Pid.valid ~n) members)
    in
    if Epoch.valid_transition cfg ~epoch ~members then
      Some { Epoch.epoch; members }
    else None

(* Ω restricted to the current configuration: the leader is the lowest
   unsuspected *member*, or the lowest member if Ω suspects them all.
   Non-members keep heartbeating (they may be installed later) but are
   never elected.  Read on every step, so it scans the member range
   through Ω's suspicion predicate and builds no set. *)
let rec lowest_live om members ~hi q =
  if q > hi then Sim.Pidset.min_elt members
  else if Sim.Pidset.mem q members && not (Omega.suspected om q) then q
  else lowest_live om members ~hi (q + 1)

let detectors ~kind ~period ~members =
  let pair =
    Sim.Layered.pair (Omega.detector ~kind ~period) (Sigma.detector ~members)
  in
  let current (om, si) =
    let members = Sigma.members si in
    let leader =
      if Sim.Pidset.is_empty members then 0
      else
        lowest_live om members ~hi:(Sim.Pidset.max_elt members)
          (Sim.Pidset.min_elt members)
    in
    (leader, Sigma.current si)
  in
  { pair with Sim.Layered.current }

let feedback (ctx : unit Sim.Protocol.ctx) (om, si) ((_, cmd) : entry) =
  let cfg = { Epoch.epoch = Sigma.epoch si; members = Sigma.members si } in
  match transition ~n:ctx.n cfg cmd with
  | Some { Epoch.epoch; members } -> (om, Sigma.set_config si ~epoch ~members)
  | None -> (om, si)

(* Apply one decided entry to the derived state. *)
let apply ~n st ((slot, cmd) : entry) =
  match (cmd.Cons.Smr.payload, transition ~n st.cfg cmd) with
  | App { key; value }, _ -> { st with kv = Smap.add key (slot, value) st.kv }
  | Reconfig _, Some cfg -> { st with cfg }
  | Reconfig _, None -> st

(* Apply the SMR layer's outputs, in order, keeping them as protocol
   outputs for the host. *)
let absorb ~n st acts =
  let apply_out st = function
    | Sim.Protocol.Output e -> apply ~n st e
    | Sim.Protocol.Send _ | Sim.Protocol.Broadcast _ -> st
  in
  ( List.fold_left apply_out st acts,
    Sim.Protocol.map_actions ~msg:(fun m -> Smr m) ~out:Option.some acts )

(* The main layer: Cons.Smr, snapshot catch-up and the kv view. *)
let main ~snap_every ~lag_gap ~members =
  let smr = Cons.Smr.protocol in
  let init ~n self =
    {
      smr = smr.Sim.Protocol.init ~n self;
      cfg = Epoch.initial ~members;
      kv = Smap.empty;
      max_slot_seen = 0;
      snaps_served = 0;
      snaps_installed = 0;
    }
  in
  let on_step (ctx : _ Sim.Protocol.ctx) st recv =
    let n = ctx.n in
    let smr_recv, ctl =
      match recv with
      | Some (q, Smr m) -> (Some (q, m), None)
      | Some (_, (Snap_req _ | Snap _)) -> (None, recv)
      | None -> (None, None)
    in
    (* lag detection: peers are deciding slots we have not applied *)
    let st =
      match smr_recv with
      | Some (_, m) -> (
        match Cons.Smr.slot_of_msg m with
        | Some k when k > st.max_slot_seen -> { st with max_slot_seen = k }
        | _ -> st)
      | None -> st
    in
    let smr_st, smr_acts = smr.Sim.Protocol.on_step ctx st.smr smr_recv in
    let st, smr_acts = absorb ~n { st with smr = smr_st } smr_acts in
    let st, ctl_acts =
      match ctl with
      | Some (q, Snap_req { since }) -> (
        match Cons.Smr.decided_from st.smr ~from:since with
        | [] -> (st, [])
        | entries ->
          ( { st with snaps_served = st.snaps_served + 1 },
            [ Sim.Protocol.Send (q, Snap entries) ] ))
      | Some (_, Snap entries) ->
        let smr_st, newly = Cons.Smr.install st.smr entries in
        let st =
          {
            st with
            smr = smr_st;
            snaps_installed = st.snaps_installed + List.length newly;
          }
        in
        let st = List.fold_left (fun st e -> apply ~n st e) st newly in
        (st, List.map (fun e -> Sim.Protocol.Output e) newly)
      | _ -> (st, [])
    in
    (* catch-up: well behind the instances peers work on -> ask for a
       snapshot (throttled; anyone holding the prefix answers) *)
    let snap_acts =
      if
        Cons.Smr.applied_instances st.smr + lag_gap <= st.max_slot_seen
        && ctx.now mod snap_every = 0
      then
        [
          Sim.Protocol.Broadcast
            (Snap_req { since = Cons.Smr.applied_instances st.smr });
        ]
      else []
    in
    (st, smr_acts @ ctl_acts @ snap_acts)
  in
  let on_input (ctx : _ Sim.Protocol.ctx) st c =
    let smr_st, acts = smr.Sim.Protocol.on_input ctx st.smr c in
    absorb ~n:ctx.n { st with smr = smr_st } acts
  in
  { Sim.Protocol.init; on_step; on_input }

let protocol ?(snap_every = 8) ?(lag_gap = 24) ?(detector = Omega.Heartbeat)
    ~period ~members () =
  Sim.Layered.with_detector ~feedback
    (detectors ~kind:detector ~period ~members)
    (main ~snap_every ~lag_gap ~members)

(* ---- the binary peer codec (layouts in docs/NET.md) ---- *)

module W = Net.Wire.W
module R = Net.Wire.R

let bad_tag what t =
  raise (Net.Wire.Decode_error (Printf.sprintf "%s tag %d" what t))

let write_payload buf = function
  | App { key; value } ->
    W.u8 buf 0;
    W.string buf key;
    W.string buf value
  | Reconfig { epoch; members } ->
    W.u8 buf 1;
    W.varint buf epoch;
    W.list W.varint buf members

let read_payload tag r =
  match tag with
  | 0 ->
    let key = R.string r in
    App { key; value = R.string r }
  | 1 ->
    let epoch = R.varint r in
    Reconfig { epoch; members = R.list R.varint r }
  | t -> bad_tag "shard payload" t

let payload_c =
  Net.Wire.codec ~write:write_payload ~read:(fun r -> read_payload (R.u8 r) r)

let smr_c = Net.Codecs.smr_msg payload_c
let cmd_c = Net.Codecs.cmd payload_c

let write_msg buf (m : msg) =
  let open Sim.Layered in
  match m with
  | Detector (Detector om) ->
    W.u8 buf 0;
    Net.Wire.write_nested Net.Codecs.omega_msg buf om
  | Detector (Main (Sigma.Join { epoch; round })) ->
    W.u8 buf 1;
    W.varint buf epoch;
    W.varint buf round
  | Detector (Main (Sigma.Ack { epoch; round })) ->
    W.u8 buf 2;
    W.varint buf epoch;
    W.varint buf round
  | Main (Smr m) ->
    W.u8 buf 3;
    Net.Wire.write_nested smr_c buf m
  | Main (Snap_req { since }) ->
    W.u8 buf 4;
    W.varint buf since
  | Main (Snap entries) ->
    W.u8 buf 5;
    let cmd = Net.Wire.write_nested_via (Buffer.create 64) cmd_c in
    W.list (W.pair W.varint (W.list cmd)) buf entries

let read_msg r : msg =
  let open Sim.Layered in
  match R.u8 r with
  | 0 -> Detector (Detector (Net.Wire.read_nested Net.Codecs.omega_msg r))
  | (1 | 2) as t ->
    let epoch = R.varint r in
    let round = R.varint r in
    Detector
      (Main
         (if t = 1 then Sigma.Join { epoch; round }
          else Sigma.Ack { epoch; round }))
  | 3 -> Main (Smr (Net.Wire.read_nested smr_c r))
  | 4 -> Main (Snap_req { since = R.varint r })
  | 5 ->
    let batch = R.list (Net.Wire.read_nested cmd_c) in
    Main (Snap (R.list (R.pair R.varint batch) r))
  | t -> bad_tag "shard replica" t

let codec = Net.Wire.codec ~write:write_msg ~read:read_msg
