type t = {
  policy : Sim.Network.policy;
  max_steps : int option;
  seed : int;
  trace : string option;
}

let make ?(policy = Sim.Network.Fifo) ?max_steps ?trace ~seed () =
  { policy; max_steps; seed; trace }

let steps t ~default = match t.max_steps with Some s -> s | None -> default
