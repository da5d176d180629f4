type ('msg, 'out) action =
  | Send of Pid.t * 'msg
  | Broadcast of 'msg
  | Output of 'out

type 'fd ctx = { self : Pid.t; n : int; now : int; fd : 'fd }

type ('st, 'msg, 'fd, 'inp, 'out) t = {
  init : n:int -> Pid.t -> 'st;
  on_step :
    'fd ctx -> 'st -> (Pid.t * 'msg) option -> 'st * ('msg, 'out) action list;
  on_input : 'fd ctx -> 'st -> 'inp -> 'st * ('msg, 'out) action list;
}

let no_input _ctx st _inp = (st, [])

let[@tail_mod_cons] rec map_actions ~msg ~out = function
  | [] -> []
  | Send (p, m) :: acts ->
    let m' = msg m in
    Send (p, m') :: fan_out ~msg ~out m m' acts
  | Broadcast m :: acts -> Broadcast (msg m) :: map_actions ~msg ~out acts
  | Output o :: acts -> (
    match out o with
    | Some o -> Output o :: map_actions ~msg ~out acts
    | None -> map_actions ~msg ~out acts)

(* The [Send]s right after a [Send] of [m] that carry [m] itself (one
   fan-out) share its re-tagged [m'], so the fan-out still carries one
   physical message, which a host encodes once. *)
and[@tail_mod_cons] fan_out ~msg ~out m m' = function
  | Send (p, m2) :: acts when m2 == m ->
    Send (p, m') :: fan_out ~msg ~out m m' acts
  | acts -> map_actions ~msg ~out acts

type ('msg, 'inp) event = Step of (Pid.t * 'msg) option | Input of 'inp

let[@tail_mod_cons] rec outputs = function
  | [] -> []
  | Output o :: acts -> o :: outputs acts
  | (Send _ | Broadcast _) :: acts -> outputs acts

let drop _ = None

let apply t ctx st ev ~msg =
  let st, acts =
    match ev with
    | Step recv -> t.on_step ctx st recv
    | Input inp -> t.on_input ctx st inp
  in
  (st, map_actions ~msg ~out:drop acts, outputs acts)

let const_fd fd t =
  {
    init = t.init;
    on_step = (fun ctx st recv -> t.on_step { ctx with fd } st recv);
    on_input = (fun ctx st inp -> t.on_input { ctx with fd } st inp);
  }
