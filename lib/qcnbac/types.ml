type vote = Yes | No
type outcome = Commit | Abort
type 'v qc_decision = Value of 'v | Quit

let equal_vote a b =
  match (a, b) with Yes, Yes | No, No -> true | Yes, No | No, Yes -> false

let pp_outcome fmt = function
  | Commit -> Format.pp_print_string fmt "Commit"
  | Abort -> Format.pp_print_string fmt "Abort"

let pp_qc_decision pp_v fmt = function
  | Value v -> pp_v fmt v
  | Quit -> Format.pp_print_string fmt "Q"
