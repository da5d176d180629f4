(* The client-facing front-end: route every command to its shard through
   the ring, and serve linearizable per-key reads without running them
   through the consensus log — the ABD read adapted to log-structured
   replicas, from Σ-majority quorums of the shard's *current epoch*.

   Read algorithm (per key, shard s = shard_of key):

   Phase 1 (query):  collect (epoch, applied, kv[key]) samples from a
   majority of s's members, all reporting the configuration's epoch —
   samples from other epochs are refused, which is the router-side half
   of the "no quorum from epoch e after e+1 activates" contract.  Take
   the max write slot t* among samples (-1 if the key is unseen).

   Phase 2 (write-back): a written value is "committed" here when a
   majority has *applied* the log prefix containing it, so confirm a
   majority with applied >= t*+1 before returning.  Any later read's
   phase-1 majority intersects that one, hence samples a tag >= t*:
   reads never travel backwards — the ABD argument, with "applied
   prefix length" standing in for the register's write-back. *)

type view = {
  v_epoch : int;
  v_applied : int;
  v_value : (int * string) option;
}

let view_of st ~key =
  {
    v_epoch = Replica.epoch st;
    v_applied = Replica.applied st;
    v_value = Replica.kv_find st key;
  }

type ops = {
  config : unit -> Epoch.config;
  sample : Sim.Pid.t -> key:string -> view option;
  submit : Replica.payload -> bool;
}

type t = {
  ring : Ring.t;
  ops : int -> ops;
  step : unit -> unit;  (* advance the world while a read waits *)
}

let create ~ring ~ops ~step = { ring; ops; step }
let ring t = t.ring
let shard_of t key = Ring.shard_of t.ring key

let write t ~key ~value =
  let s = shard_of t key in
  if (t.ops s).submit (App { key; value }) then Some s else None

let read ?(max_rounds = 20_000) t ~key =
  let s = shard_of t key in
  let o = t.ops s in
  let members cfg = Sim.Pidset.elements cfg.Epoch.members in
  let rec phase1 budget =
    if budget <= 0 then
      Error "read: no epoch-consistent quorum within round budget"
    else
      let cfg = o.config () in
      let samples =
        List.filter_map
          (fun p ->
            match o.sample p ~key with
            | Some v when v.v_epoch = cfg.Epoch.epoch -> Some (p, v)
            | _ -> None)
          (members cfg)
      in
      if List.length samples < Epoch.majority cfg then begin
        t.step ();
        phase1 (budget - 1)
      end
      else
        let q = Sim.Pidset.of_list (List.map fst samples) in
        match Epoch.check_quorum cfg ~epoch:cfg.Epoch.epoch q with
        | Error _ as e -> e
        | Ok () ->
          let tag, value =
            List.fold_left
              (fun (tag, value) (_, v) ->
                match v.v_value with
                | Some (slot, x) when slot > tag -> (slot, Some x)
                | _ -> (tag, value))
              (-1, None) samples
          in
          phase2 budget tag value
  and phase2 budget tag value =
    if budget <= 0 then Error "read: write-back quorum within round budget"
    else
      let cfg = o.config () in
      let confirmed =
        List.filter
          (fun p ->
            match o.sample p ~key with
            | Some v -> v.v_applied >= tag + 1
            | None -> false)
          (members cfg)
      in
      if List.length confirmed >= Epoch.majority cfg then Ok value
      else begin
        t.step ();
        phase2 (budget - 1) tag value
      end
  in
  phase1 max_rounds
