(* Clock, order statistics, /proc readers and the result record every
   workload returns. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Median of a small sample (mean of the two middle values when even). *)
let median l =
  let a = sorted_of_list l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latency samples collected in ns, sorted, in ms. *)
let latency_ms samples =
  let a = Array.map (fun ns -> float_of_int ns *. 1e-6) samples in
  Array.sort Float.compare a;
  a

(* One measured unit of a run: a cluster epoch, a failover phase, a
   search. *)
type unit_stats = {
  ops : int;  (** commands applied, or schedules explored *)
  measured_s : float;
  lat_ns : int array;  (** per-operation latencies *)
}

let throughput u = float_of_int u.ops /. u.measured_s
let best_throughput units = List.fold_left (fun m u -> Float.max m (throughput u)) 0. units

(* The end-to-end metrics of a run, from its bare units.  A shared host
   can run a process ~1.7x slower for seconds to minutes at a time (seen
   on a 2-vCPU VM, on either vCPU), and interference only ever slows a
   unit down, so throughput and latency come from the run's best unit:
   the highest throughput and, per percentile, the lowest unit
   percentile.  Set-up time is the median over units. *)
let end_to_end ~setups ~peak_mem_mb units =
  let sorted = List.map (fun u -> latency_ms u.lat_ns) units in
  let best q = List.fold_left (fun m a -> Float.min m (percentile a q)) infinity sorted in
  [
    ("setup_s", median setups);
    ("throughput_ops_s", best_throughput units);
    ("latency_p50_ms", best 0.50);
    ("latency_p90_ms", best 0.90);
    ("peak_mem_mb", peak_mem_mb);
  ]

(* Instrumented over bare throughput, best unit against best unit. *)
let overhead ~plain ~timed = (best_throughput plain /. best_throughput timed) -. 1.

(* The fixed seeded payloads of the SMR workloads: 32 printable bytes
   each, drawn from the workload seed.  Command [i] carries payload
   [i mod pool_size]. *)
let payload_size = 32
let pool_size = 4096

let payloads ~seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  Array.init pool_size (fun _ ->
      String.init payload_size (fun _ ->
          Char.chr (33 + Random.State.int rng 94)))

(* ---- /proc: peak memory ---------------------------------------------- *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* Integer value of a "Key: value" line of /proc/self/status. *)
let field text key =
  let prefix = key ^ ":" in
  let lines = String.split_on_char '\n' text in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> 0
  | Some line ->
    let v = String.sub line (String.length prefix)
        (String.length line - String.length prefix) in
    let v = String.trim v in
    let v = match String.index_opt v ' ' with Some i -> String.sub v 0 i | None -> v in
    int_of_string v

(* Peak resident set (VmHWM) of this process in MB. *)
let peak_mem_mb () = float_of_int (field (read_file "/proc/self/status") "VmHWM") /. 1024.

(* ---- named running sums: per-layer totals across the units of a run -- *)

type sums = (string, float) Hashtbl.t

let sums () : sums = Hashtbl.create 32
let get (s : sums) k = Option.value ~default:0. (Hashtbl.find_opt s k)
let add (s : sums) k v = Hashtbl.replace s k (get s k +. v)

(* ---- what a workload run returns ------------------------------------ *)

type result = {
  attempted : int;
  failed : int;
  errors : string list;  (** failed correctness checks, first few *)
  metrics : (string * float) list;
      (** end-to-end metrics, plus the per-layer ones on a traced run *)
}

(* Accumulates failed checks for one run. *)
type checks = { mutable failed : int; mutable errors : string list }

let checks () = { failed = 0; errors = [] }

let fail c ?(count = 1) msg =
  c.failed <- c.failed + count;
  if List.length c.errors < 8 then c.errors <- msg :: c.errors

(* A run lasts [--seconds] of wall time from here, set-up included. *)
let started = now_ns ()

(* [repeat ~seconds ~min_units f] runs [f i] for i = 0, 1, ... as long as
   one more unit, as long as the longest so far, still ends within
   [seconds] of the start, and at least [min_units] times.  Returns how
   many ran. *)
let repeat ~seconds ~min_units f =
  let i = ref 0 and longest = ref 0. in
  while !i < min_units || secs_since started +. !longest <= seconds do
    let t0 = now_ns () in
    f !i;
    longest := Float.max !longest (secs_since t0);
    incr i
  done;
  !i
