type span = {
  mutable s_count : int;
  mutable s_total_ns : int64;
  mutable s_open : int64 list;  (* start stack, for reentrant spans *)
}

type t = { clock : unit -> int64; spans : (string, span) Hashtbl.t }

let monotonic_ns () = Monotonic_clock.now ()

let create ?(clock = monotonic_ns) () = { clock; spans = Hashtbl.create 16 }

let span_of t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { s_count = 0; s_total_ns = 0L; s_open = [] } in
    Hashtbl.add t.spans name s;
    s

let enter t name =
  let s = span_of t name in
  s.s_open <- t.clock () :: s.s_open

let exit t name =
  let s = span_of t name in
  match s.s_open with
  | [] -> ()  (* unmatched exit: ignore rather than poison the run *)
  | start :: rest ->
    s.s_open <- rest;
    s.s_count <- s.s_count + 1;
    s.s_total_ns <- Int64.add s.s_total_ns (Int64.sub (t.clock ()) start)

let time t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> exit t name) f

type row = { count : int; total_ns : int64 }

let snapshot t =
  Hashtbl.fold
    (fun name s acc -> (name, { count = s.s_count; total_ns = s.s_total_ns }) :: acc)
    t.spans []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
