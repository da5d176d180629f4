(* An n=3 [Net.Local] cluster seen through the few operations the
   loopback workloads use, so the same loop runs both the production stack
   ([Net.Local.create]) and the traced re-composition of it. *)

let n = 3
let period = 16
let window = 16
let batch_max = 1024

type t = {
  step : unit -> unit;  (** one round: every live node steps once *)
  submit : Sim.Pid.t -> string -> unit;
  applied : Sim.Pid.t -> int;  (** commands applied *)
  batches : Sim.Pid.t -> int;  (** consensus instances applied *)
  log : Sim.Pid.t -> (int * string Cons.Smr.cmd) list;
  crash : Sim.Pid.t -> unit;
  leader : Sim.Pid.t -> Sim.Pid.t;  (** the node's Ω estimate *)
  hub : Net.Loopback.hub;
}

let of_cluster ~smr ~omega ~tick c =
  let st p = Net.Local.cluster_state c p in
  {
    step =
      (fun () ->
        tick ();
        Net.Local.cluster_step c);
    submit = Net.Local.cluster_submit c;
    applied = (fun p -> Cons.Smr.applied (smr (st p)));
    batches = (fun p -> Cons.Smr.applied_instances (smr (st p)));
    log = Net.Local.cluster_outputs c;
    crash = Net.Local.cluster_crash c;
    leader = (fun p -> Fd.Emulated.Omega.current (omega (st p)));
    hub = Net.Local.cluster_hub c;
  }

(* The production values, unchanged. *)
let production ?wrap ?(tick = ignore) () =
  of_cluster ~smr:Net.Smr_node.smr_state ~omega:Net.Smr_node.omega_state ~tick
    (Net.Local.create ~n ~period ~window ~batch_max ?wrap ())

(* The same stack rebuilt from its public pieces with every layer timed. *)
let traced (s : Probe.stack) ?wrap ?(tick = ignore) () =
  of_cluster ~smr:snd ~omega:(fun ((om, _), _) -> om) ~tick
    (Net.Local.make ~n ?wrap ~codec:(Probe.pmsg_codec s)
       (Probe.protocol s ~window ~batch_max ~period))

(* Log checks shared by the loopback workloads: [origin]'s log holds each
   of its commands [0 .. total-1] exactly once, with its seeded payload
   (in submission order too when [fifo]), and every other listed replica
   holds the same log (or, for a crashed one, a prefix of it). *)
let check_logs (c : Common.checks) v ~origin ~payloads ~total ~fifo ~same ~prefix =
  let ref_log = v.log origin in
  let seen = Array.make total false in
  let bad = ref 0 and i = ref 0 in
  List.iter
    (fun (idx, (cmd : string Cons.Smr.cmd)) ->
      let s = cmd.seq in
      if
        idx <> !i || cmd.origin <> origin || s < 0 || s >= total || seen.(s)
        || (fifo && s <> !i)
        || cmd.payload <> payloads.(s land (Common.pool_size - 1))
      then incr bad
      else seen.(s) <- true;
      incr i)
    ref_log;
  if !bad > 0 then
    Common.fail c ~count:!bad
      (Printf.sprintf "node %d applied %d commands out of order or altered"
         origin !bad);
  if !i <> total then
    Common.fail c ~count:(abs (total - !i))
      (Printf.sprintf "node %d applied %d of %d commands" origin !i total);
  List.iter
    (fun p ->
      if v.log p <> ref_log then
        Common.fail c (Printf.sprintf "node %d log differs from node %d" p origin))
    same;
  List.iter
    (fun p ->
      let rec is_prefix a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && is_prefix a' b'
        | _ :: _, [] -> false
      in
      if not (is_prefix (v.log p) ref_log) then
        Common.fail c
          (Printf.sprintf "node %d log is not a prefix of node %d" p origin))
    prefix
