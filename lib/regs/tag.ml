type t = { seq : int; writer : Sim.Pid.t }

let initial = { seq = 0; writer = -1 }

let compare a b =
  match Int.compare a.seq b.seq with
  | 0 -> Sim.Pid.compare a.writer b.writer
  | c -> c

let equal a b = compare a b = 0
let next t writer = { seq = t.seq + 1; writer }
let max a b = if compare a b >= 0 then a else b
