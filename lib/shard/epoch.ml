type config = { epoch : int; members : Sim.Pidset.t }

let initial ~members =
  if Sim.Pidset.is_empty members then invalid_arg "Epoch.initial: no members";
  { epoch = 0; members }

let majority c = (Sim.Pidset.cardinal c.members / 2) + 1
let is_member c p = Sim.Pidset.mem p c.members

let check_quorum c ~epoch q =
  if epoch <> c.epoch then
    Error
      (Printf.sprintf "quorum from epoch %d refused: epoch %d is active"
         epoch c.epoch)
  else if not (Sim.Pidset.subset q c.members) then
    Error "quorum contains non-members of its epoch"
  else if Sim.Pidset.cardinal q < majority c then
    Error
      (Printf.sprintf "sub-majority quorum (%d of %d members)"
         (Sim.Pidset.cardinal q)
         (Sim.Pidset.cardinal c.members))
  else Ok ()

let valid_transition c ~epoch ~members =
  epoch = c.epoch + 1 && not (Sim.Pidset.is_empty members)

let rotate c ~universe =
  match List.filter (fun p -> not (is_member c p)) (Sim.Pid.all universe) with
  | [] -> None
  | fresh :: _ ->
    let members = Sim.Pidset.remove (Sim.Pidset.min_elt c.members) c.members in
    Some { epoch = c.epoch + 1; members = Sim.Pidset.add fresh members }

let pp ppf c =
  Format.fprintf ppf "epoch %d %a" c.epoch Sim.Pidset.pp c.members
