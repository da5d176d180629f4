(* Binary wire codecs for the deployed SMR stack's message tower
   (docs/NET.md "Batching, pipelining, and the wire format" has the
   layout tables).  Built from Wire's primitives; the command payload
   travels as a length-prefixed nested value, so any payload codec
   composes. *)

module Omega = Fd.Emulated.Omega
module Sigma = Fd.Emulated.Sigma_majority
module W = Wire.W
module R = Wire.R

let bad_tag what t = raise (Wire.Decode_error (Printf.sprintf "%s tag %d" what t))

(* cmd: varint origin, varint seq, nested payload (written through the
   scratch [tmp]) *)
let write_cmd tmp pc buf (c : _ Cons.Smr.cmd) =
  W.varint buf c.Cons.Smr.origin;
  W.varint buf c.Cons.Smr.seq;
  Wire.write_nested_via tmp pc buf c.Cons.Smr.payload

let read_cmd pc r =
  let origin = R.varint r in
  let seq = R.varint r in
  let payload = Wire.read_nested pc r in
  { Cons.Smr.origin; seq; payload }

let cmd pc =
  Wire.codec
    ~write:(fun buf c -> write_cmd (Buffer.create 64) pc buf c)
    ~read:(read_cmd pc)

(* One payload scratch per batch, not one per command. *)
let write_batch pc buf b = W.list (write_cmd (Buffer.create 64) pc) buf b
let read_batch pc r = R.list (read_cmd pc) r

(* Quorum-Paxos over command batches:
   u8 tag — 0 Prepare, 1 Promise, 2 Propose, 3 Accept, 4 Nack, 5 Decide *)
let write_qp pc buf (m : _ Cons.Quorum_paxos.msg) =
  match m with
  | Cons.Quorum_paxos.Prepare b ->
    W.u8 buf 0;
    W.varint buf b
  | Cons.Quorum_paxos.Promise (b, acc) ->
    W.u8 buf 1;
    W.varint buf b;
    W.option (W.pair W.varint (write_batch pc)) buf acc
  | Cons.Quorum_paxos.Propose (b, v) ->
    W.u8 buf 2;
    W.varint buf b;
    write_batch pc buf v
  | Cons.Quorum_paxos.Accept b ->
    W.u8 buf 3;
    W.varint buf b
  | Cons.Quorum_paxos.Nack b ->
    W.u8 buf 4;
    W.varint buf b
  | Cons.Quorum_paxos.Decide v ->
    W.u8 buf 5;
    write_batch pc buf v

let read_qp pc r =
  match R.u8 r with
  | 0 -> Cons.Quorum_paxos.Prepare (R.varint r)
  | 1 ->
    let b = R.varint r in
    let acc = R.option (R.pair R.varint (read_batch pc)) r in
    Cons.Quorum_paxos.Promise (b, acc)
  | 2 ->
    let b = R.varint r in
    Cons.Quorum_paxos.Propose (b, read_batch pc r)
  | 3 -> Cons.Quorum_paxos.Accept (R.varint r)
  | 4 -> Cons.Quorum_paxos.Nack (R.varint r)
  | 5 -> Cons.Quorum_paxos.Decide (read_batch pc r)
  | t -> bad_tag "quorum-paxos" t

(* SMR: u8 tag — 0 Submit batch, 1 Inner (varint instance, qp msg) *)
let write_smr pc buf (m : _ Cons.Smr.msg) =
  match m with
  | Cons.Smr.Submit cs ->
    W.u8 buf 0;
    write_batch pc buf cs
  | Cons.Smr.Inner (k, qm) ->
    W.u8 buf 1;
    W.varint buf k;
    write_qp pc buf qm

let read_smr pc r =
  match R.u8 r with
  | 0 -> Cons.Smr.Submit (read_batch pc r)
  | 1 ->
    let k = R.varint r in
    Cons.Smr.Inner (k, read_qp pc r)
  | t -> bad_tag "smr" t

let smr_msg pc = Wire.codec ~write:(write_smr pc) ~read:(read_smr pc)

(* Ω selector message alone (detector-only clusters, benches):
   u8 — 0 Alive, 3 ring Hb, 4 ring Suspect (varint pid), 5 ring Refute
   (varint pid).  Tags 1/2 are reserved for Σ in the flattened detector
   wire below; keeping one tag space for both keeps heartbeat-mode frames
   byte-identical to the pre-ring format. *)
let write_omega buf (m : Omega.msg) =
  match m with
  | Omega.H Fd.Emulated.Omega_heartbeat.Alive -> W.u8 buf 0
  | Omega.R Fd.Emulated.Omega_ring.Hb -> W.u8 buf 3
  | Omega.R (Fd.Emulated.Omega_ring.Suspect p) ->
    W.u8 buf 4;
    W.varint buf p
  | Omega.R (Fd.Emulated.Omega_ring.Refute p) ->
    W.u8 buf 5;
    W.varint buf p

let read_omega r =
  match R.u8 r with
  | 0 -> Omega.H Fd.Emulated.Omega_heartbeat.Alive
  | 3 -> Omega.R Fd.Emulated.Omega_ring.Hb
  | 4 -> Omega.R (Fd.Emulated.Omega_ring.Suspect (R.varint r))
  | 5 -> Omega.R (Fd.Emulated.Omega_ring.Refute (R.varint r))
  | t -> bad_tag "omega" t

let omega_msg = Wire.codec ~write:write_omega ~read:read_omega

(* Detector pair (Ω selector, Σ majority), flattened to one tag:
   u8 — 0 Alive, 1 Join (varint round), 2 Ack (varint round),
   3/4/5 the ring messages as above *)
let write_det buf (m : (Omega.msg, Sigma.msg) Sim.Layered.wire) =
  match m with
  | Sim.Layered.Detector om -> write_omega buf om
  | Sim.Layered.Main (Sigma.Join k) ->
    W.u8 buf 1;
    W.varint buf k
  | Sim.Layered.Main (Sigma.Ack k) ->
    W.u8 buf 2;
    W.varint buf k

let read_det r =
  match R.u8 r with
  | 0 -> Sim.Layered.Detector (Omega.H Fd.Emulated.Omega_heartbeat.Alive)
  | 1 -> Sim.Layered.Main (Sigma.Join (R.varint r))
  | 2 -> Sim.Layered.Main (Sigma.Ack (R.varint r))
  | 3 -> Sim.Layered.Detector (Omega.R Fd.Emulated.Omega_ring.Hb)
  | 4 ->
    Sim.Layered.Detector (Omega.R (Fd.Emulated.Omega_ring.Suspect (R.varint r)))
  | 5 ->
    Sim.Layered.Detector (Omega.R (Fd.Emulated.Omega_ring.Refute (R.varint r)))
  | t -> bad_tag "detector" t

(* Full node message: u8 — 0 detector traffic, 1 main (SMR) traffic *)
let pmsg pc =
  Wire.codec
    ~write:(fun buf m ->
      match m with
      | Sim.Layered.Detector d ->
        W.u8 buf 0;
        write_det buf d
      | Sim.Layered.Main m ->
        W.u8 buf 1;
        write_smr pc buf m)
    ~read:(fun r ->
      match R.u8 r with
      | 0 -> Sim.Layered.Detector (read_det r)
      | 1 -> Sim.Layered.Main (read_smr pc r)
      | t -> bad_tag "layered" t)
