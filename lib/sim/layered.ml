type ('dst, 'dmsg, 'fd) emulated = {
  proto : ('dst, 'dmsg, unit, unit, unit) Protocol.t;
  current : 'dst -> 'fd;
}

type ('dmsg, 'msg) wire = Detector of 'dmsg | Main of 'msg

let detector m = Detector m
let main m = Main m
let drop () = None

(* Route a received message to the side its tag names. *)
let split = function
  | None -> (None, None)
  | Some (p, Detector m) -> (Some (p, m), None)
  | Some (p, Main m) -> (None, Some (p, m))

let pair a b =
  let open Protocol in
  {
    proto =
      {
        init = (fun ~n p -> (a.proto.init ~n p, b.proto.init ~n p));
        on_step =
          (fun ctx (sa, sb) recv ->
            let recv_a, recv_b = split recv in
            let sa, acts_a = a.proto.on_step ctx sa recv_a in
            let sb, acts_b = b.proto.on_step ctx sb recv_b in
            ( (sa, sb),
              map_actions ~msg:detector ~out:drop acts_a
              @ map_actions ~msg:main ~out:drop acts_b ));
        on_input = Protocol.no_input;
      };
    current = (fun (sa, sb) -> (a.current sa, b.current sb));
  }

(* [product] composes two complete protocols (each with its own fd, input
   and output types) into one: messages, inputs and outputs are tagged with
   the side they belong to, and both sides step on every scheduled step.
   Unlike [pair] (which composes detector layers), the components here are
   full protocols — this is how [Ec.Mixed] runs the linearizable SMR path
   and the eventually-consistent store side by side on one node. *)
let product a b =
  let open Protocol in
  let ctx_a (ctx : ('fa * 'fb) ctx) = { ctx with fd = fst ctx.fd } in
  let ctx_b (ctx : ('fa * 'fb) ctx) = { ctx with fd = snd ctx.fd } in
  let fst_acts = map_actions ~msg:detector ~out:(fun o -> Some (Detector o)) in
  let snd_acts = map_actions ~msg:main ~out:(fun o -> Some (Main o)) in
  {
    init = (fun ~n p -> (a.init ~n p, b.init ~n p));
    on_step =
      (fun ctx (sa, sb) recv ->
        let recv_a, recv_b = split recv in
        let sa, acts_a = a.on_step (ctx_a ctx) sa recv_a in
        let sb, acts_b = b.on_step (ctx_b ctx) sb recv_b in
        ((sa, sb), fst_acts acts_a @ snd_acts acts_b));
    on_input =
      (fun ctx (sa, sb) inp ->
        match inp with
        | Detector i ->
          let sa, acts = a.on_input (ctx_a ctx) sa i in
          ((sa, sb), fst_acts acts)
        | Main i ->
          let sb, acts = b.on_input (ctx_b ctx) sb i in
          ((sa, sb), snd_acts acts));
  }

let with_detector ?feedback det main_p =
  let open Protocol in
  (* The main layer talking back: each of its outputs, in order, may
     update the detector's state (a decided reconfiguration installing the
     next member set, say). *)
  let talk_back ctx dst acts =
    match feedback with
    | None -> dst
    | Some f ->
      List.fold_left
        (fun dst -> function Output o -> f ctx dst o | Send _ | Broadcast _ -> dst)
        dst acts
  in
  {
    init = (fun ~n p -> (det.proto.init ~n p, main_p.init ~n p));
    on_step =
      (fun ctx (dst, mst) recv ->
        let det_recv, main_recv = split recv in
        (* Both layers step: the detector layer keeps refreshing its output
           even while the main layer is busy, and vice versa. *)
        let dst, det_acts = det.proto.on_step ctx dst det_recv in
        let main_ctx = { ctx with fd = det.current dst } in
        let mst, main_acts = main_p.on_step main_ctx mst main_recv in
        ( (talk_back ctx dst main_acts, mst),
          map_actions ~msg:detector ~out:drop det_acts
          @ map_actions ~msg:main ~out:Option.some main_acts ));
    on_input =
      (fun ctx (dst, mst) inp ->
        let main_ctx = { ctx with fd = det.current dst } in
        let mst, acts = main_p.on_input main_ctx mst inp in
        ( (talk_back ctx dst acts, mst),
          map_actions ~msg:main ~out:Option.some acts ));
  }
