module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* seqs [0, floor) present, plus [above]; no element of [above] lies in
   [0, floor]. *)
type run = { floor : int; above : Int_set.t }
type t = run Int_map.t

let empty = Int_map.empty
let no_run = { floor = 0; above = Int_set.empty }

let run_mem r seq = (seq >= 0 && seq < r.floor) || Int_set.mem seq r.above

let mem t origin seq =
  match Int_map.find_opt origin t with
  | None -> false
  | Some r -> run_mem r seq

(* Raise [floor] over every [above] entry it now touches. *)
let rec absorb floor above =
  if floor < max_int && Int_set.mem floor above then
    absorb (floor + 1) (Int_set.remove floor above)
  else { floor; above }

let add t origin seq =
  let r = Option.value (Int_map.find_opt origin t) ~default:no_run in
  if seq = r.floor && seq < max_int then
    Int_map.add origin (absorb (seq + 1) r.above) t
  else if run_mem r seq then t
  else Int_map.add origin { r with above = Int_set.add seq r.above } t

let watermarks t =
  Int_map.fold
    (fun origin r acc -> (origin, r.floor, Int_set.elements r.above) :: acc)
    t []
  |> List.rev
