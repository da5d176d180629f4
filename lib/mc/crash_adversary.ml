(* The crash-injection adversary quantifies over failure patterns: every
   subset of at most [max_crashes] processes, crashing at every combination
   of times on the grid [0, stride, 2*stride, ... <= horizon].  For each
   pattern [Parallel.search] runs a schedule explorer.  Patterns are
   visited fewest-crashes-first (starting with the failure-free pattern),
   so a reported counterexample uses the fewest failures the bug needs —
   crashes can also *mask* bugs that live in specific processes. *)

type report = {
  counterexample : Harness.counterexample option;
  patterns : int;
  schedules : int;
  steps : int;
  complete : bool;
}

(* All sublists of [xs] of size <= k, smaller subsets first. *)
let subsets_le k xs =
  let rec go = function
    | [] -> [ [] ]
    | x :: tl ->
      let rest = go tl in
      List.map (fun s -> x :: s) rest @ rest
  in
  go xs
  |> List.filter (fun s -> List.length s <= k)
  |> List.stable_sort (fun a b -> compare (List.length a) (List.length b))

(* All assignments of a grid time to each pid of [pids]. *)
let time_assignments grid pids =
  List.fold_left
    (fun acc pid ->
      List.concat_map (fun asn -> List.map (fun t -> (pid, t) :: asn) grid) acc)
    [ [] ] pids
  |> List.map List.rev

let patterns ~n ~max_crashes ~horizon ~stride =
  let stride = max 1 stride in
  let rec grid t = if t > horizon then [] else t :: grid (t + stride) in
  let grid = match grid 0 with [] -> [ 0 ] | g -> g in
  (* never crash everyone: the model requires a correct process *)
  let subsets = subsets_le (min max_crashes (n - 1)) (Sim.Pid.all n) in
  List.concat_map
    (fun pids ->
      List.map (fun crashes -> Sim.Failure_pattern.make ~n crashes)
        (time_assignments grid pids))
    subsets
