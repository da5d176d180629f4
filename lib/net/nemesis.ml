type link = { src : Sim.Pid.t option; dst : Sim.Pid.t option }

type cmd =
  | Partition of Sim.Pidset.t list
  | Isolate of Sim.Pid.t
  | Deisolate of Sim.Pid.t
  | Cut of link
  | Heal
  | Drop of link * float
  | Duplicate of link * float
  | Delay of link * int * int
  | Flap of link * int * int
  | Skew of Sim.Pid.t * int
  | Kill of Sim.Pid.t
  | Clear

type schedule = (int * cmd) list

(* ------------------------------------------------------------ parsing *)

let pp_link ppf l =
  let pat ppf = function
    | None -> Format.pp_print_string ppf "*"
    | Some p -> Format.pp_print_int ppf p
  in
  Format.fprintf ppf "%a->%a" pat l.src pat l.dst

let pp_cmd ppf = function
  | Partition groups ->
    Format.fprintf ppf "partition %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
         Sim.Pidset.pp)
      groups
  | Isolate p -> Format.fprintf ppf "isolate %d" p
  | Deisolate p -> Format.fprintf ppf "deisolate %d" p
  | Cut l -> Format.fprintf ppf "cut %a" pp_link l
  | Heal -> Format.pp_print_string ppf "heal"
  | Drop (l, p) -> Format.fprintf ppf "drop %a %g" pp_link l p
  | Duplicate (l, p) -> Format.fprintf ppf "dup %a %g" pp_link l p
  | Delay (l, d, j) -> Format.fprintf ppf "delay %a %d jitter %d" pp_link l d j
  | Flap (l, period, down) ->
    Format.fprintf ppf "flap %a period %d down %d" pp_link l period down
  | Skew (p, k) -> Format.fprintf ppf "skew %d %d" p k
  | Kill p -> Format.fprintf ppf "kill %d" p
  | Clear -> Format.pp_print_string ppf "clear"

let cmd_tag = function
  | Partition _ -> "partition"
  | Isolate _ -> "isolate"
  | Deisolate _ -> "deisolate"
  | Cut _ -> "cut"
  | Heal -> "heal"
  | Drop _ -> "drop"
  | Duplicate _ -> "duplicate"
  | Delay _ -> "delay"
  | Flap _ -> "flap"
  | Skew _ -> "skew"
  | Kill _ -> "kill"
  | Clear -> "clear"

let parse_pat = function
  | "*" -> Ok None
  | s -> (
    match int_of_string_opt s with
    | Some p when p >= 0 -> Ok (Some p)
    | Some _ | None -> Error (Printf.sprintf "bad process %S" s))

(* "a->b" directed, "a-b" both directions (two links), "*" all links;
   either side of -> may be "*". *)
let parse_link s =
  let ( let* ) = Result.bind in
  match s with
  | "*" -> Ok [ { src = None; dst = None } ]
  | _ -> (
    match String.index_opt s '>' with
    | Some i when i > 0 && s.[i - 1] = '-' ->
      let* src = parse_pat (String.sub s 0 (i - 1)) in
      let* dst = parse_pat (String.sub s (i + 1) (String.length s - i - 1)) in
      Ok [ { src; dst } ]
    | Some _ | None -> (
      match String.index_opt s '-' with
      | Some i ->
        let* a = parse_pat (String.sub s 0 i) in
        let* b = parse_pat (String.sub s (i + 1) (String.length s - i - 1)) in
        Ok [ { src = a; dst = b }; { src = b; dst = a } ]
      | None -> Error (Printf.sprintf "bad link %S" s)))

let parse_float s =
  match float_of_string_opt s with
  | Some f when f >= 0. && f <= 1. -> Ok f
  | Some _ | None -> Error (Printf.sprintf "bad probability %S" s)

let parse_int ?(min = 0) s =
  match int_of_string_opt s with
  | Some i when i >= min -> Ok i
  | Some _ | None -> Error (Printf.sprintf "bad integer %S" s)

let parse_pid s =
  match parse_int s with
  | Ok p -> Ok p
  | Error _ -> Error (Printf.sprintf "bad process %S" s)

let parse_groups toks =
  let ( let* ) = Result.bind in
  let rec go cur groups = function
    | [] ->
      let groups = if cur = [] then groups else List.rev cur :: groups in
      let groups = List.rev_map Sim.Pidset.of_list groups in
      if List.length groups < 2 then Error "partition needs at least 2 groups"
      else Ok (List.rev groups)
    | "|" :: rest ->
      if cur = [] then Error "empty partition group"
      else go [] (List.rev cur :: groups) rest
    | t :: rest ->
      let* p = parse_pid t in
      go (p :: cur) groups rest
  in
  go [] [] toks

let parse_cmd toks =
  let ( let* ) = Result.bind in
  match toks with
  | [ "heal" ] -> Ok [ Heal ]
  | [ "clear" ] -> Ok [ Clear ]
  | "partition" :: groups ->
    let* gs = parse_groups groups in
    Ok [ Partition gs ]
  | [ "isolate"; p ] ->
    let* p = parse_pid p in
    Ok [ Isolate p ]
  | [ "deisolate"; p ] ->
    let* p = parse_pid p in
    Ok [ Deisolate p ]
  | [ "cut"; l ] ->
    let* ls = parse_link l in
    Ok (List.map (fun l -> Cut l) ls)
  | [ "drop"; l; p ] ->
    let* ls = parse_link l in
    let* p = parse_float p in
    Ok (List.map (fun l -> Drop (l, p)) ls)
  | [ ("dup" | "duplicate"); l; p ] ->
    let* ls = parse_link l in
    let* p = parse_float p in
    Ok (List.map (fun l -> Duplicate (l, p)) ls)
  | [ "delay"; l; d ] | [ "delay"; l; d; "jitter"; "0" ] ->
    let* ls = parse_link l in
    let* d = parse_int d in
    Ok (List.map (fun l -> Delay (l, d, 0)) ls)
  | [ "delay"; l; d; "jitter"; j ] ->
    let* ls = parse_link l in
    let* d = parse_int d in
    let* j = parse_int j in
    Ok (List.map (fun l -> Delay (l, d, j)) ls)
  | [ "flap"; l; "period"; period; "down"; down ] ->
    let* ls = parse_link l in
    let* period = parse_int ~min:1 period in
    let* down = parse_int down in
    if down > period then Error "flap: down exceeds period"
    else Ok (List.map (fun l -> Flap (l, period, down)) ls)
  | [ "kill"; p ] ->
    let* p = parse_pid p in
    Ok [ Kill p ]
  | [ "skew"; p; k ] ->
    let* p = parse_pid p in
    let* k = parse_int ~min:1 k in
    Ok [ Skew (p, k) ]
  | [] -> Error "missing command"
  | verb :: _ -> Error (Printf.sprintf "bad command %S" verb)

let parse_schedule text =
  let lines = String.split_on_char '\n' text in
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match
      String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
      |> List.filter (fun t -> t <> "")
    with
    | [] -> Ok []
    | "at" :: tick :: toks -> (
      match parse_int tick with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok tick -> (
        match parse_cmd toks with
        | Ok cmds -> Ok (List.map (fun c -> (tick, c)) cmds)
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)))
    | t :: _ ->
      Error (Printf.sprintf "line %d: expected \"at TICK ...\", got %S" lineno t)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev acc))
    | line :: rest -> (
      match parse_line lineno line with
      | Ok cmds -> go (lineno + 1) (List.rev_append cmds acc) rest
      | Error _ as e -> e)
  in
  go 1 [] lines

let load_schedule path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    parse_schedule text

(* the processes a command names; wildcards name none *)
let pids_of = function
  | Partition groups -> List.concat_map Sim.Pidset.elements groups
  | Isolate p | Deisolate p | Skew (p, _) | Kill p -> [ p ]
  | Cut l | Drop (l, _) | Duplicate (l, _) | Delay (l, _, _) | Flap (l, _, _) ->
    List.filter_map Fun.id [ l.src; l.dst ]
  | Heal | Clear -> []

let check ~n schedule =
  match
    List.find_opt
      (fun (_, c) -> not (List.for_all (Sim.Pid.valid ~n) (pids_of c)))
      schedule
  with
  | None -> Ok ()
  | Some (t, c) ->
    Error
      (Format.asprintf "at %d %a: names a process outside 0..%d" t pp_cmd c
         (n - 1))

(* --------------------------------------------------------- controller *)

type pending = {
  rel : int;  (* release tick *)
  ord : int;  (* tie-break: assignment order *)
  p_dst : Sim.Pid.t;
  frame : bytes;
}

type ctrl = {
  n : int;
  rng : Random.State.t;
  sink : Sim.Event.sink option;
  metrics : Obs.Metrics.t option;
  mutable sched : schedule;  (* commands not yet applied, ascending *)
  mutable time : int;
  (* per directed pair, indexed [src].(dst) *)
  cut : bool array array;
  drop_p : float array array;
  dup_p : float array array;
  delay_base : int array array;
  delay_jitter : int array array;
  flap : (int * int) option array array;  (* period, down *)
  skew : int array;
  dead : bool array;
  (* held frames and release bookkeeping, per sending endpoint *)
  held : pending list ref array;  (* sorted by (rel, ord) *)
  last_rel : int array array;  (* last release tick assigned per pair *)
  mutable ord : int;
  mutable n_dropped : int;
  mutable n_duplicated : int;
  mutable n_reordered : int;
  mutable n_delayed : int;
}

type stats = {
  n_dropped : int;
  n_duplicated : int;
  n_reordered : int;
  n_delayed : int;
}

let stats (c : ctrl) : stats =
  {
    n_dropped = c.n_dropped;
    n_duplicated = c.n_duplicated;
    n_reordered = c.n_reordered;
    n_delayed = c.n_delayed;
  }

let bump c name =
  match c.metrics with None -> () | Some m -> Obs.Metrics.incr m name

let emit_cmd c cmd =
  match c.sink with
  | None -> ()
  | Some s ->
    s.Sim.Event.emit
      {
        Sim.Event.time = c.time;
        round = c.time;
        vc = None;
        kind = Sim.Event.Metric { name = "nemesis." ^ cmd_tag cmd; value = c.time };
      }

let each_pair c link f =
  let match_pat pat x = match pat with None -> true | Some y -> x = y in
  for s = 0 to c.n - 1 do
    for d = 0 to c.n - 1 do
      if s <> d && match_pat link.src s && match_pat link.dst d then f s d
    done
  done

let clear_cuts c =
  Array.iter (fun row -> Array.fill row 0 c.n false) c.cut;
  Array.iter (fun row -> Array.fill row 0 c.n None) c.flap

let apply c cmd =
  emit_cmd c cmd;
  match cmd with
  | Heal -> clear_cuts c
  | Clear ->
    clear_cuts c;
    Array.iter (fun row -> Array.fill row 0 c.n 0.) c.drop_p;
    Array.iter (fun row -> Array.fill row 0 c.n 0.) c.dup_p;
    Array.iter (fun row -> Array.fill row 0 c.n 0) c.delay_base;
    Array.iter (fun row -> Array.fill row 0 c.n 0) c.delay_jitter;
    Array.fill c.skew 0 c.n 1
  | Partition groups ->
    (* groups replace the whole cut matrix; an unlisted pid p is the
       singleton group -1 - p *)
    let gid = Array.init c.n (fun p -> -1 - p) in
    List.iteri (fun i g -> Sim.Pidset.iter (fun p -> gid.(p) <- i) g) groups;
    for s = 0 to c.n - 1 do
      for d = 0 to c.n - 1 do
        c.cut.(s).(d) <- s <> d && gid.(s) <> gid.(d)
      done
    done
  | Isolate p ->
    each_pair c { src = Some p; dst = None } (fun s d -> c.cut.(s).(d) <- true);
    each_pair c { src = None; dst = Some p } (fun s d -> c.cut.(s).(d) <- true)
  | Deisolate p ->
    (* the inverse of Isolate: reopen every link touching p, including
       flaps, without disturbing cuts between other processes *)
    let reopen s d =
      c.cut.(s).(d) <- false;
      c.flap.(s).(d) <- None
    in
    each_pair c { src = Some p; dst = None } reopen;
    each_pair c { src = None; dst = Some p } reopen
  | Cut l -> each_pair c l (fun s d -> c.cut.(s).(d) <- true)
  | Drop (l, p) -> each_pair c l (fun s d -> c.drop_p.(s).(d) <- p)
  | Duplicate (l, p) -> each_pair c l (fun s d -> c.dup_p.(s).(d) <- p)
  | Delay (l, base, jitter) ->
    each_pair c l (fun s d ->
        c.delay_base.(s).(d) <- base;
        c.delay_jitter.(s).(d) <- jitter)
  | Flap (l, period, down) ->
    each_pair c l (fun s d -> c.flap.(s).(d) <- Some (period, down))
  | Skew (p, k) -> c.skew.(p) <- k
  | Kill p -> c.dead.(p) <- true

let run_due c =
  let rec go () =
    match c.sched with
    | (t, cmd) :: rest when t <= c.time ->
      c.sched <- rest;
      apply c cmd;
      go ()
    | _ -> ()
  in
  go ()

let create ?(seed = 0) ?sink ?metrics ~n schedule =
  Result.iter_error (fun e -> invalid_arg ("Nemesis.create: " ^ e))
    (check ~n schedule);
  let mk v = Array.init n (fun _ -> Array.make n v) in
  let c =
    {
      n;
      rng = Random.State.make [| 0x6e656d65; seed; n |];
      sink;
      metrics;
      sched = List.stable_sort (fun (a, _) (b, _) -> compare a b) schedule;
      time = 0;
      cut = mk false;
      drop_p = mk 0.;
      dup_p = mk 0.;
      delay_base = mk 0;
      delay_jitter = mk 0;
      flap = mk None;
      skew = Array.make n 1;
      dead = Array.make n false;
      held = Array.init n (fun _ -> ref []);
      last_rel = mk 0;
      ord = 0;
      n_dropped = 0;
      n_duplicated = 0;
      n_reordered = 0;
      n_delayed = 0;
    }
  in
  run_due c;
  c

let tick c =
  c.time <- c.time + 1;
  run_due c

let skew_of c p = if p >= 0 && p < c.n then c.skew.(p) else 1
let killed c p = p >= 0 && p < c.n && c.dead.(p)

let flap_cut c s d =
  match c.flap.(s).(d) with
  | None -> false
  | Some (period, down) -> c.time mod period < down

let is_cut c s d = c.cut.(s).(d) || flap_cut c s d

(* Per-round queries over the directed pairs (never per frame). *)
let exists_pair c f =
  let all = Sim.Pid.all c.n in
  List.exists (fun s -> List.exists (fun d -> s <> d && f s d) all) all

let cut_active c = exists_pair c (is_cut c)

let healthy c =
  not
    (exists_pair c (fun s d ->
         is_cut c s d || c.flap.(s).(d) <> None || c.drop_p.(s).(d) > 0.))

let majority_component c =
  let all = Sim.Pid.all c.n in
  let linked p q = p = q || not (is_cut c p q || is_cut c q p) in
  List.exists
    (fun p -> 2 * List.length (List.filter (linked p) all) > c.n)
    all

(* ------------------------------------------------------------ wrapper *)

(* Insert keeping (rel, ord) order. *)
let rec insert_pending e = function
  | [] -> [ e ]
  | x :: rest as l ->
    if (e.rel, e.ord) < (x.rel, x.ord) then e :: l
    else x :: insert_pending e rest

let release c (inner : Transport.t) self =
  let held = c.held.(self) in
  let rec go () =
    match !held with
    | e :: rest when e.rel <= c.time ->
      held := rest;
      inner.Transport.send e.p_dst e.frame;
      go ()
    | _ -> ()
  in
  go ()

let forward c (inner : Transport.t) self dst frame =
  let base = c.delay_base.(self).(dst) and jitter = c.delay_jitter.(self).(dst) in
  let d =
    base + (if jitter > 0 then Random.State.int c.rng (jitter + 1) else 0)
  in
  if d <= 0 && !(c.held.(self)) = [] then inner.Transport.send dst frame
  else begin
    let rel = c.time + d in
    if rel < c.last_rel.(self).(dst) then begin
      c.n_reordered <- c.n_reordered + 1;
      bump c "net.reordered"
    end;
    c.last_rel.(self).(dst) <- max c.last_rel.(self).(dst) rel;
    if d > 0 then c.n_delayed <- c.n_delayed + 1;
    let e = { rel; ord = c.ord; p_dst = dst; frame } in
    c.ord <- c.ord + 1;
    c.held.(self) := insert_pending e !(c.held.(self))
  end

let wrap c (inner : Transport.t) =
  let self = inner.Transport.self in
  let send dst frame =
    if dst = self then inner.Transport.send dst frame
    else begin
      release c inner self;
      if is_cut c self dst then begin
        c.n_dropped <- c.n_dropped + 1;
        bump c "net.dropped"
      end
      else begin
        let dp = c.drop_p.(self).(dst) in
        if dp > 0. && Random.State.float c.rng 1.0 < dp then begin
          c.n_dropped <- c.n_dropped + 1;
          bump c "net.dropped"
        end
        else begin
          let up = c.dup_p.(self).(dst) in
          let copies =
            if up > 0. && Random.State.float c.rng 1.0 < up then begin
              c.n_duplicated <- c.n_duplicated + 1;
              bump c "net.duplicated";
              2
            end
            else 1
          in
          for _ = 1 to copies do
            forward c inner self dst frame
          done
        end
      end
    end
  in
  let poll ~timeout_ms =
    release c inner self;
    inner.Transport.poll ~timeout_ms
  in
  {
    Transport.self;
    n = inner.Transport.n;
    send;
    poll;
    stats = inner.Transport.stats;
    close = inner.Transport.close;
  }
