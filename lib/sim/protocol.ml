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
  | Send (p, m) :: acts -> Send (p, msg m) :: map_actions ~msg ~out acts
  | Broadcast m :: acts -> Broadcast (msg m) :: map_actions ~msg ~out acts
  | Output o :: acts -> (
    match out o with
    | Some o -> Output o :: map_actions ~msg ~out acts
    | None -> map_actions ~msg ~out acts)

let map_msg ~into ~from t =
  {
    init = t.init;
    on_step =
      (fun ctx st recv ->
        let recv =
          match recv with
          | None -> None
          | Some (p, m2) -> (
            match from m2 with None -> None | Some m -> Some (p, m))
        in
        let st, acts = t.on_step ctx st recv in
        (st, map_actions ~msg:into ~out:Option.some acts));
    on_input =
      (fun ctx st inp ->
        let st, acts = t.on_input ctx st inp in
        (st, map_actions ~msg:into ~out:Option.some acts));
  }

let const_fd fd t =
  {
    init = t.init;
    on_step = (fun ctx st recv -> t.on_step { ctx with fd } st recv);
    on_input = (fun ctx st inp -> t.on_input { ctx with fd } st inp);
  }
