module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* seqs [base, floor) present, plus the stragglers [above]; no element of
   [above] lies in [base - 1, floor] (no wrapping), save [max_int] when
   [floor = max_int]. *)
type run = { base : int; floor : int; above : Int_set.t }
type t = run Int_map.t

let empty = Int_map.empty

let run_mem r seq =
  (seq >= r.base && seq < r.floor) || Int_set.mem seq r.above

let mem t origin seq =
  match Int_map.find_opt origin t with
  | None -> false
  | Some r -> run_mem r seq

(* Raise [floor] over every straggler it now touches. *)
let rec absorb_up r =
  if r.floor < max_int && Int_set.mem r.floor r.above then
    absorb_up
      { r with floor = r.floor + 1; above = Int_set.remove r.floor r.above }
  else r

(* Lower [base] over every straggler just below it. *)
let rec absorb_down r =
  if r.base > min_int && Int_set.mem (r.base - 1) r.above then
    absorb_down
      { r with base = r.base - 1; above = Int_set.remove (r.base - 1) r.above }
  else r

let add t origin seq =
  (* an origin's first key lands on an empty run at that key *)
  let r =
    match Int_map.find_opt origin t with
    | Some r -> r
    | None -> { base = seq; floor = seq; above = Int_set.empty }
  in
  if seq = r.floor && seq < max_int then
    Int_map.add origin (absorb_up { r with floor = seq + 1 }) t
  else if r.base > min_int && seq = r.base - 1 then
    Int_map.add origin (absorb_down { r with base = seq }) t
  else if run_mem r seq then t
  else Int_map.add origin { r with above = Int_set.add seq r.above } t

let watermarks t =
  Int_map.fold
    (fun origin r acc ->
      (origin, r.base, r.floor, Int_set.elements r.above) :: acc)
    t []
  |> List.rev
