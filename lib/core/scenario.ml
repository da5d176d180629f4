type t = {
  name : string;
  n : int;
  fp : Sim.Failure_pattern.t;
}

let failure_free ~n =
  { name = "failure-free"; n; fp = Sim.Failure_pattern.failure_free n }

let one_crash ~n ~at =
  {
    name = Printf.sprintf "one-crash@%d" at;
    n;
    fp = Sim.Failure_pattern.make ~n [ (0, at) ];
  }

let minority_correct ~n =
  (* Leave only floor(n/2) processes alive — one short of a majority. *)
  let crashed = min (n - (n / 2)) (n - 1) in
  let crashes = List.init crashed (fun i -> (i, 100 + (i * 80))) in
  {
    name = "minority-correct";
    n;
    fp = Sim.Failure_pattern.make ~n crashes;
  }

let lone_survivor ~n =
  let crashes = List.init (n - 1) (fun i -> (i, 50 + (i * 60))) in
  {
    name = "lone-survivor";
    n;
    fp = Sim.Failure_pattern.make ~n crashes;
  }

let half_down ~n ~at =
  let crashes = List.init (n / 2) (fun i -> (i, at)) in
  {
    name = Printf.sprintf "half-down@%d" at;
    n;
    fp = Sim.Failure_pattern.make ~n crashes;
  }

let random env ~n ~seed =
  let fp = Sim.Environment.sample env ~n ~horizon:200 (Sim.Rng.make seed) in
  {
    name = Printf.sprintf "random(%s,seed=%d)" (Sim.Environment.name env) seed;
    n;
    fp;
  }

let gallery ~n =
  [
    failure_free ~n;
    one_crash ~n ~at:50;
    half_down ~n ~at:60;
    minority_correct ~n;
    lone_survivor ~n;
  ]
