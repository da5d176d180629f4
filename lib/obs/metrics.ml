type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;  (* log2 buckets: buckets.(i) counts values in [2^(i-1), 2^i) *)
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

type labels = (string * string) list

(* One flat namespace: a labeled series is stored under its rendered name
   [name{k=v,...}] with the label keys sorted, so equal label sets always
   collide onto the same series and [snapshot] needs no second table.  The
   unlabeled API is the zero-label alias: [[]] renders as the bare name. *)
let series name labels =
  match labels with
  | [] -> name
  | _ ->
    let labels =
      List.sort (fun (a, _) (b, _) -> String.compare a b) labels
    in
    let b = Buffer.create (String.length name + 16) in
    Buffer.add_string b name;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b v)
      labels;
    Buffer.add_char b '}';
    Buffer.contents b

let create () =
  {
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let incr_l ?(by = 1) t name ~labels =
  let name = series name labels in
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let incr ?by t name = incr_l ?by t name ~labels:[]

let counter_l t name ~labels =
  match Hashtbl.find_opt t.counters (series name labels) with
  | Some r -> !r
  | None -> 0

let counter t name = counter_l t name ~labels:[]

(* Gauges: last value wins.  Same flat namespace and snapshot rendering
   as counters — a gauge row is indistinguishable from a counter row in
   JSONL output, which is the point (replication lag and divergent-key
   counts travel through the existing metrics pipeline unchanged). *)
let set_l t name ~labels v =
  let name = series name labels in
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges name (ref v)

let set t name v = set_l t name ~labels:[] v

let gauge_l t name ~labels =
  match Hashtbl.find_opt t.gauges (series name labels) with
  | Some r -> !r
  | None -> 0

let gauge t name = gauge_l t name ~labels:[]

let bucket_of v =
  (* 0 -> bucket 0; v >= 1 -> 1 + floor(log2 v), capped *)
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
  if v <= 0 then 0 else min 62 (1 + log2 0 v)

let observe_l t name ~labels v =
  let name = series name labels in
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
      let h =
        { h_count = 0; h_sum = 0; h_min = max_int; h_max = min_int;
          buckets = Array.make 63 0 }
      in
      Hashtbl.add t.histograms name h;
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let observe t name v = observe_l t name ~labels:[] v

let histogram_l t name ~labels = Hashtbl.find_opt t.histograms (series name labels)
let histogram t name = histogram_l t name ~labels:[]

(* Flatten counters and histogram summaries into one sorted row list, so a
   single [(string * int) list] can travel in [Runner.summary]. *)
let snapshot t =
  let rows = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters [] in
  let rows = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges rows in
  let rows =
    Hashtbl.fold
      (fun k h acc ->
        (k ^ ".count", h.h_count)
        :: (k ^ ".sum", h.h_sum)
        :: (k ^ ".min", h.h_min)
        :: (k ^ ".max", h.h_max)
        :: acc)
      t.histograms rows
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms
