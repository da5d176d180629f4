type t = int

let compare = Int.compare
let equal = Int.equal
let pp fmt p = Format.fprintf fmt "p%d" p
let all n = List.init n (fun i -> i)
let valid ~n p = 0 <= p && p < n
