(* Binary wire codecs for the EC stack: entries, anti-entropy traffic,
   the detector-layered replica message, and the mixed-consistency node
   message (SMR tower + EC tower under one tag).  Same conventions as
   Net.Codecs: u8 tags, varints, length-prefixed nested values. *)

module Omega_ec = Fd.Emulated.Omega_ec
module W = Net.Wire.W
module R = Net.Wire.R

let bad_tag what t =
  raise (Net.Wire.Decode_error (Printf.sprintf "%s tag %d" what t))

(* entry: nested value, varint lamport, varint origin, varint-list vc *)
let write_entry buf (e : Entry.t) =
  W.string buf e.Entry.value;
  W.varint buf e.Entry.lamport;
  W.varint buf e.Entry.origin;
  W.list W.varint buf (Sim.Vclock.to_list e.Entry.vc)

let read_entry r =
  let value = R.string r in
  let lamport = R.varint r in
  let origin = R.varint r in
  let vc = Sim.Vclock.of_list (R.list R.varint r) in
  Entry.make ~value ~lamport ~origin ~vc

let entry = Net.Wire.codec ~write:write_entry ~read:read_entry

let write_keyed buf (key, e) =
  W.string buf key;
  write_entry buf e

let read_keyed r =
  let key = R.string r in
  (key, read_entry r)

let write_stamp buf (l, o) =
  W.varint buf l;
  W.varint buf o

let read_stamp r =
  let l = R.varint r in
  let o = R.varint r in
  (l, o)

(* anti-entropy: u8 tag — 0 Digest, 1 Delta, 2 Push *)
let write_msg buf (m : Replica.msg) =
  match m with
  | Replica.Digest { rev; summary } ->
    W.u8 buf 0;
    W.varint buf rev;
    W.list (W.pair W.string write_stamp) buf summary
  | Replica.Delta { entries; pull; rev_echo } ->
    W.u8 buf 1;
    W.list write_keyed buf entries;
    W.list W.string buf pull;
    W.varint buf rev_echo
  | Replica.Push { entries } ->
    W.u8 buf 2;
    W.list write_keyed buf entries

let read_msg r =
  match R.u8 r with
  | 0 ->
    let rev = R.varint r in
    let summary = R.list (R.pair R.string read_stamp) r in
    Replica.Digest { rev; summary }
  | 1 ->
    let entries = R.list read_keyed r in
    let pull = R.list R.string r in
    let rev_echo = R.varint r in
    Replica.Delta { entries; pull; rev_echo }
  | 2 -> Replica.Push { entries = R.list read_keyed r }
  | t -> bad_tag "ec" t

let msg = Net.Wire.codec ~write:write_msg ~read:read_msg

(* detector-layered replica: u8 — 0 Ω-EC Alive, 1 anti-entropy *)
let write_ec_msg buf (m : (Omega_ec.msg, Replica.msg) Sim.Layered.wire) =
  match m with
  | Sim.Layered.Detector Omega_ec.Alive -> W.u8 buf 0
  | Sim.Layered.Main em ->
    W.u8 buf 1;
    write_msg buf em

let read_ec_msg r =
  match R.u8 r with
  | 0 -> Sim.Layered.Detector Omega_ec.Alive
  | 1 -> Sim.Layered.Main (read_msg r)
  | t -> bad_tag "ec-layered" t

(* mixed node message: u8 — 0 SMR tower (nested, reusing Net.Codecs.pmsg),
   1 EC tower *)
let mixed pc =
  let smr = Net.Codecs.pmsg pc in
  Net.Wire.codec
    ~write:(fun buf m ->
      match m with
      | Sim.Layered.Detector sm ->
        W.u8 buf 0;
        Net.Wire.write_nested smr buf sm
      | Sim.Layered.Main em ->
        W.u8 buf 1;
        write_ec_msg buf em)
    ~read:(fun r ->
      match R.u8 r with
      | 0 -> Sim.Layered.Detector (Net.Wire.read_nested smr r)
      | 1 -> Sim.Layered.Main (read_ec_msg r)
      | t -> bad_tag "mixed" t)
