module M = Map.Make (String)

type t = {
  self : Sim.Pid.t;
  n : int;
  entries : Entry.t M.t;
  rev : int;  (* bumps on every state change: put or state-changing merge *)
}

let create ~n self = { self; n; entries = M.empty; rev = 0 }

let rev t = t.rev

let get t key = M.find_opt key t.entries

(* A local write strictly dominates whatever this replica holds for the
   key, both causally (tick self on the old vc) and in LWW order (lamport
   = old + 1 at worst ties the old lamport's successor; origin breaks
   same-lamport races between replicas).  This is the invariant that
   makes LWW respect causality: strict vc dominance between store-produced
   entries implies a strictly higher stamp. *)
let put t ~key ~value =
  let lamport, vc =
    match M.find_opt key t.entries with
    | None -> (1, Sim.Vclock.zero t.n)
    | Some e -> (e.Entry.lamport + 1, e.Entry.vc)
  in
  let e =
    Entry.make ~value ~lamport ~origin:t.self ~vc:(Sim.Vclock.tick vc t.self)
  in
  (e, { t with entries = M.add key e t.entries; rev = t.rev + 1 })

(* Merge one remote entry in; returns [changed = true] iff the held
   abstract state for [key] changed (joins that only fold vc components
   in do count as a change of the stored record but not of the abstract
   state — we bump [rev] only on abstract change, so anti-entropy
   quiesces instead of echoing vc-only refinements forever). *)
let merge_entry t ~key e =
  match M.find_opt key t.entries with
  | None ->
    (true, { t with entries = M.add key e t.entries; rev = t.rev + 1 })
  | Some held ->
    let j = Entry.join held e in
    if Entry.equal j held then (false, { t with entries = M.add key j t.entries })
    else (true, { t with entries = M.add key j t.entries; rev = t.rev + 1 })

let merge_entries t kes =
  List.fold_left
    (fun (changed, t) (key, e) ->
      let c, t = merge_entry t ~key e in
      (changed || c, t))
    (false, t) kes

(* Per-key stamps — the anti-entropy digest. *)
let summary t =
  M.fold (fun key e acc -> (key, Entry.stamp e) :: acc) t.entries []
  |> List.rev

(* Entries we hold strictly newer than the peer's summary, plus keys we
   hold that the peer lacks. *)
let newer_than t peer_summary =
  M.fold
    (fun key e acc ->
      match List.assoc_opt key peer_summary with
      | None -> (key, e) :: acc
      | Some stamp -> if Entry.newer_than e ~stamp then (key, e) :: acc else acc)
    t.entries []
  |> List.rev

let stamp_gt (l1, o1) (l2, o2) =
  match compare l1 l2 with 0 -> Sim.Pid.compare o1 o2 > 0 | c -> c > 0

(* Keys from the peer's summary whose entry is strictly newer than ours
   (or that we lack entirely) — the pull list. *)
let missing_from t peer_summary =
  List.filter_map
    (fun (key, stamp) ->
      match M.find_opt key t.entries with
      | None -> Some key
      | Some held ->
        if stamp_gt stamp (Entry.stamp held) then Some key else None)
    peer_summary

let entries_for t keys =
  List.filter_map
    (fun key -> Option.map (fun e -> (key, e)) (M.find_opt key t.entries))
    keys

(* Canonical digest of the abstract state — deliberately excludes vector
   clocks (see [Entry.equal]).  Equal fingerprints = converged. *)
let fingerprint t =
  let b = Buffer.create 128 in
  M.iter
    (fun key e ->
      Buffer.add_string b
        (Printf.sprintf "%s=%s@%d.%d;" key e.Entry.value e.Entry.lamport
           e.Entry.origin))
    t.entries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let keys t = M.fold (fun k _ acc -> k :: acc) t.entries [] |> List.rev

let pp ppf t =
  Format.fprintf ppf "@[<v>store p%d rev=%d" t.self t.rev;
  M.iter (fun k e -> Format.fprintf ppf "@,  %s -> %a" k Entry.pp e) t.entries;
  Format.fprintf ppf "@]"
