(* Tests for the observability layer: the ring buffer, the metrics table,
   the span profiler (with an injected fake clock), the collector wired
   into a real engine run — including the zero-interference contract that
   an instrumented run is byte-identical to an uninstrumented one — the
   JSONL serialization, and the [--trace] plumbing of [Core.Runner] for
   both plain runs and model-checking searches. *)

(* --- ring ------------------------------------------------------------- *)

let test_ring_basic () =
  let r = Obs.Ring.create ~capacity:5 in
  Alcotest.(check int) "capacity" 5 (Obs.Ring.capacity r);
  List.iter (Obs.Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "pushed" 3 (Obs.Ring.pushed r);
  Alcotest.(check int) "dropped" 0 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (Obs.Ring.to_list r)

let test_ring_overflow () =
  let r = Obs.Ring.create ~capacity:5 in
  for i = 1 to 8 do
    Obs.Ring.push r i
  done;
  Alcotest.(check int) "length capped" 5 (Obs.Ring.length r);
  Alcotest.(check int) "pushed counts all" 8 (Obs.Ring.pushed r);
  Alcotest.(check int) "dropped" 3 (Obs.Ring.dropped r);
  Alcotest.(check (list int))
    "oldest retained first" [ 4; 5; 6; 7; 8 ] (Obs.Ring.to_list r)

let test_ring_clamp_and_clear () =
  let r = Obs.Ring.create ~capacity:0 in
  Alcotest.(check int) "capacity clamped to 1" 1 (Obs.Ring.capacity r);
  Obs.Ring.push r 7;
  Obs.Ring.push r 8;
  Alcotest.(check (list int)) "only last retained" [ 8 ] (Obs.Ring.to_list r);
  Obs.Ring.clear r;
  Alcotest.(check int) "cleared length" 0 (Obs.Ring.length r);
  Alcotest.(check int) "cleared pushed" 0 (Obs.Ring.pushed r);
  Alcotest.(check (list int)) "cleared list" [] (Obs.Ring.to_list r)

(* --- metrics ----------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  Alcotest.(check int) "unknown counter is 0" 0 (Obs.Metrics.counter m "x");
  Obs.Metrics.incr m "x";
  Obs.Metrics.incr m "x" ~by:4;
  Obs.Metrics.incr m "y";
  Alcotest.(check int) "x" 5 (Obs.Metrics.counter m "x");
  Alcotest.(check int) "y" 1 (Obs.Metrics.counter m "y")

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "lat") [ 3; 1; 4 ];
  match Obs.Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 3 h.Obs.Metrics.h_count;
    Alcotest.(check int) "sum" 8 h.Obs.Metrics.h_sum;
    Alcotest.(check int) "min" 1 h.Obs.Metrics.h_min;
    Alcotest.(check int) "max" 4 h.Obs.Metrics.h_max;
    (* log2 buckets: 1 -> bucket 1, 3 -> bucket 2, 4 -> bucket 3 *)
    Alcotest.(check int) "bucket [1,2)" 1 h.Obs.Metrics.buckets.(1);
    Alcotest.(check int) "bucket [2,4)" 1 h.Obs.Metrics.buckets.(2);
    Alcotest.(check int) "bucket [4,8)" 1 h.Obs.Metrics.buckets.(3)

let test_metrics_snapshot () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "z.count_like";
  Obs.Metrics.observe m "a.hist" 2;
  let rows = Obs.Metrics.snapshot m in
  Alcotest.(check (list (pair string int)))
    "flattened and name-sorted"
    [
      ("a.hist.count", 1); ("a.hist.max", 2); ("a.hist.min", 2);
      ("a.hist.sum", 2); ("z.count_like", 1);
    ]
    rows;
  Obs.Metrics.clear m;
  Alcotest.(check (list (pair string int))) "cleared" []
    (Obs.Metrics.snapshot m)

(* Labeled series: [("shard","3")] turns [smr.applied] into the
   independent series [smr.applied{shard=3}].  The contracts under test:
   labels are a real dimension (distinct label sets never collapse),
   label order is irrelevant (keys are sorted), and the unlabeled API is
   exactly the zero-label alias. *)
let test_metrics_labels () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "smr.applied";
  Obs.Metrics.incr_l m "smr.applied" ~labels:[ ("shard", "3") ] ~by:4;
  Obs.Metrics.incr_l m "smr.applied" ~labels:[ ("shard", "5") ];
  Alcotest.(check int) "bare series untouched by labeled bumps" 1
    (Obs.Metrics.counter m "smr.applied");
  Alcotest.(check int) "shard=3" 4
    (Obs.Metrics.counter_l m "smr.applied" ~labels:[ ("shard", "3") ]);
  Alcotest.(check int) "shard=5" 1
    (Obs.Metrics.counter_l m "smr.applied" ~labels:[ ("shard", "5") ]);
  (* order-independence: same bindings, any order, same series *)
  Obs.Metrics.incr_l m "link.sent" ~labels:[ ("src", "0"); ("dst", "1") ];
  Obs.Metrics.incr_l m "link.sent" ~labels:[ ("dst", "1"); ("src", "0") ];
  Alcotest.(check int) "label order is irrelevant" 2
    (Obs.Metrics.counter_l m "link.sent" ~labels:[ ("src", "0"); ("dst", "1") ]);
  Alcotest.(check string) "rendered name sorts keys" "link.sent{dst=1,src=0}"
    (Obs.Metrics.series "link.sent" [ ("src", "0"); ("dst", "1") ]);
  Alcotest.(check string) "zero labels render as the bare name" "x"
    (Obs.Metrics.series "x" []);
  (* the unlabeled API is the zero-label alias, one shared series *)
  Obs.Metrics.incr_l m "alias" ~labels:[];
  Obs.Metrics.incr m "alias";
  Alcotest.(check int) "incr and incr_l ~labels:[] share a series" 2
    (Obs.Metrics.counter_l m "alias" ~labels:[]);
  (* snapshot rows are keyed by the rendered series name *)
  let rows = Obs.Metrics.snapshot m in
  Alcotest.(check int) "snapshot row for smr.applied{shard=3}" 4
    (List.assoc "smr.applied{shard=3}" rows);
  Alcotest.(check int) "snapshot row for the bare series" 1
    (List.assoc "smr.applied" rows)

let test_metrics_gauges () =
  let m = Obs.Metrics.create () in
  Alcotest.(check int) "unknown gauge is 0" 0 (Obs.Metrics.gauge m "depth");
  Obs.Metrics.set m "depth" 7;
  Obs.Metrics.set m "depth" 3;
  Alcotest.(check int) "last value wins" 3 (Obs.Metrics.gauge m "depth");
  (* gauges and counters of the same name are distinct families *)
  Obs.Metrics.incr m "depth" ~by:10;
  Alcotest.(check int) "counter untouched by set" 10
    (Obs.Metrics.counter m "depth");
  Alcotest.(check int) "gauge untouched by incr" 3
    (Obs.Metrics.gauge m "depth");
  (* labeled series are independent, order-insensitive *)
  Obs.Metrics.set_l m "lag" ~labels:[ ("node", "1") ] 42;
  Obs.Metrics.set_l m "lag" ~labels:[ ("node", "2") ] 5;
  Obs.Metrics.set_l m "lag" ~labels:[ ("node", "1") ] 6;
  Alcotest.(check int) "node=1 last value" 6
    (Obs.Metrics.gauge_l m "lag" ~labels:[ ("node", "1") ]);
  Alcotest.(check int) "node=2 independent" 5
    (Obs.Metrics.gauge_l m "lag" ~labels:[ ("node", "2") ]);
  Alcotest.(check int) "bare series independent of labeled" 0
    (Obs.Metrics.gauge m "lag");
  (* snapshot renders gauges like counters, keyed by series name *)
  Obs.Metrics.set m "watermark" 3;
  let rows = Obs.Metrics.snapshot m in
  Alcotest.(check int) "snapshot row for lag{node=1}" 6
    (List.assoc "lag{node=1}" rows);
  Alcotest.(check int) "snapshot row for the bare gauge" 3
    (List.assoc "watermark" rows);
  Obs.Metrics.clear m;
  Alcotest.(check int) "clear resets gauges" 0 (Obs.Metrics.gauge m "depth")

let test_metrics_labeled_histogram () =
  let m = Obs.Metrics.create () in
  List.iter (Obs.Metrics.observe m "lat") [ 1; 2 ];
  List.iter (Obs.Metrics.observe_l m "lat" ~labels:[ ("shard", "0") ]) [ 7 ];
  (match Obs.Metrics.histogram m "lat" with
  | None -> Alcotest.fail "bare histogram missing"
  | Some h ->
    Alcotest.(check int) "bare count unaffected" 2 h.Obs.Metrics.h_count);
  (match Obs.Metrics.histogram_l m "lat" ~labels:[ ("shard", "0") ] with
  | None -> Alcotest.fail "labeled histogram missing"
  | Some h ->
    Alcotest.(check int) "labeled count" 1 h.Obs.Metrics.h_count;
    Alcotest.(check int) "labeled sum" 7 h.Obs.Metrics.h_sum);
  (match Obs.Metrics.histogram_l m "lat" ~labels:[ ("shard", "9") ] with
  | None -> ()
  | Some _ -> Alcotest.fail "unobserved labeled histogram exists");
  let rows = Obs.Metrics.snapshot m in
  Alcotest.(check int) "labeled summary row" 1
    (List.assoc "lat{shard=0}.count" rows)

(* --- profile (fake clock: each reading advances 5 ns) ------------------- *)

let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 5L;
    !t

let test_profile_spans () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  Obs.Profile.enter p "a";
  Obs.Profile.exit p "a";
  Alcotest.(check (list (pair string bool)))
    "one span of 5ns"
    [ ("a", true) ]
    (List.map
       (fun (n, (r : Obs.Profile.row)) ->
         (n, r.count = 1 && r.total_ns = 5L))
       (Obs.Profile.snapshot p))

let test_profile_reentrant () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  (* enter@5 enter@10 exit@15 (inner: 5ns) exit@20 (outer: 15ns) *)
  Obs.Profile.enter p "a";
  Obs.Profile.enter p "a";
  Obs.Profile.exit p "a";
  Obs.Profile.exit p "a";
  match Obs.Profile.snapshot p with
  | [ ("a", r) ] ->
    Alcotest.(check int) "count" 2 r.Obs.Profile.count;
    Alcotest.(check int64) "nested total" 20L r.Obs.Profile.total_ns
  | rows -> Alcotest.failf "unexpected snapshot (%d rows)" (List.length rows)

let test_profile_time_and_unmatched_exit () =
  let p = Obs.Profile.create ~clock:(fake_clock ()) () in
  Alcotest.(check int) "time returns the result" 42
    (Obs.Profile.time p "f" (fun () -> 42));
  (* a raise still closes the span *)
  (try Obs.Profile.time p "f" (fun () -> failwith "boom") with _ -> ());
  Obs.Profile.exit p "ghost" (* unmatched: ignored, never counted *);
  let rows = Obs.Profile.snapshot p in
  let row name = List.assoc name rows in
  Alcotest.(check int) "f closed twice" 2 (row "f").Obs.Profile.count;
  Alcotest.(check int) "ghost never counted" 0 (row "ghost").Obs.Profile.count;
  Alcotest.(check int64) "ghost no time" 0L (row "ghost").Obs.Profile.total_ns

(* --- collector wired into a real engine run ----------------------------- *)

(* The flood protocol of test_sim: process 0 broadcasts a token, everyone
   outputs on first receipt and re-broadcasts. *)
module Flood = struct
  type state = { seen : bool; started : bool }
  type msg = Token

  let proto : (state, msg, unit, unit, int) Sim.Protocol.t =
    {
      init = (fun ~n:_ _ -> { seen = false; started = false });
      on_step =
        (fun ctx st recv ->
          let st, acts =
            match recv with
            | Some (_, Token) when not st.seen ->
              ( { st with seen = true },
                [ Sim.Protocol.Output ctx.now; Sim.Protocol.Broadcast Token ] )
            | Some (_, Token) | None -> (st, [])
          in
          if Sim.Pid.equal ctx.self 0 && not st.started then
            ({ st with started = true }, Sim.Protocol.Broadcast Token :: acts)
          else (st, acts));
      on_input = Sim.Protocol.no_input;
    }
end

let run_flood ?sink ?(seed = 1) fp =
  let cfg =
    Sim.Engine.config ~seed ?sink
      ~render_out:(fun v -> string_of_int v)
      ~stop:(Sim.Engine.stop_when_all_correct_output fp)
      ~fd:(fun _ _ -> ())
      fp
  in
  Sim.Engine.run cfg Flood.proto

let count_kind pred events =
  List.length (List.filter (fun (e : Sim.Event.t) -> pred e.kind) events)

let test_collector_engine_counts () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 3) ] in
  let c = Obs.Collector.create () in
  let trace = run_flood ~sink:c.Obs.Collector.sink fp in
  let events = Obs.Collector.events c in
  Alcotest.(check int) "send events = trace.messages_sent"
    trace.Sim.Trace.messages_sent
    (count_kind (function Sim.Event.Send _ -> true | _ -> false) events);
  Alcotest.(check int) "deliver events = trace.messages_delivered"
    trace.Sim.Trace.messages_delivered
    (count_kind (function Sim.Event.Deliver _ -> true | _ -> false) events);
  Alcotest.(check int) "output events = trace outputs"
    (List.length trace.Sim.Trace.outputs)
    (count_kind (function Sim.Event.Output _ -> true | _ -> false) events);
  Alcotest.(check int) "exactly one crash event" 1
    (count_kind (function Sim.Event.Crash _ -> true | _ -> false) events);
  Alcotest.(check bool) "the crash is p1" true
    (List.exists
       (fun (e : Sim.Event.t) -> e.kind = Sim.Event.Crash 1)
       events);
  (* the derived metrics agree with the event log *)
  Alcotest.(check int) "net.sent counter" trace.Sim.Trace.messages_sent
    (Obs.Metrics.counter c.Obs.Collector.metrics "net.sent");
  Alcotest.(check int) "net.delivered counter"
    trace.Sim.Trace.messages_delivered
    (Obs.Metrics.counter c.Obs.Collector.metrics "net.delivered");
  Alcotest.(check int) "proc.crashes counter" 1
    (Obs.Metrics.counter c.Obs.Collector.metrics "proc.crashes");
  Alcotest.(check bool) "fd was queried" true
    (Obs.Metrics.counter c.Obs.Collector.metrics "fd.queries" > 0);
  (* and with the trace's own scalar stats *)
  Alcotest.(check int) "trace stats net.sent agrees"
    (List.assoc "net.sent" (Sim.Trace.stats trace))
    (Obs.Metrics.counter c.Obs.Collector.metrics "net.sent")

let test_collector_deterministic () =
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 3) ] in
  let c1 = Obs.Collector.create () in
  let c2 = Obs.Collector.create () in
  ignore (run_flood ~sink:c1.Obs.Collector.sink ~seed:42 fp);
  ignore (run_flood ~sink:c2.Obs.Collector.sink ~seed:42 fp);
  Alcotest.(check bool) "identical event logs" true
    (Obs.Collector.events c1 = Obs.Collector.events c2);
  Alcotest.(check (list (pair string int)))
    "identical metric rows"
    (Obs.Collector.metric_rows c1)
    (Obs.Collector.metric_rows c2)

let test_collector_zero_interference () =
  (* The tentpole contract: installing a sink must not change the run.
     Serialized with closures so the comparison covers outputs, final
     states and every counter. *)
  let fp = Sim.Failure_pattern.make ~n:5 [ (1, 3) ] in
  let bytes_of trace = Marshal.to_bytes trace [ Marshal.Closures ] in
  let plain = run_flood ~seed:7 fp in
  let c = Obs.Collector.create () in
  let traced = run_flood ~sink:c.Obs.Collector.sink ~seed:7 fp in
  Alcotest.(check bool) "sink does not perturb the run" true
    (Bytes.equal (bytes_of plain) (bytes_of traced));
  Alcotest.(check bool) "and the sink did observe the run" true
    (Obs.Collector.events c <> [])

let test_collector_ring_overflow () =
  let fp = Sim.Failure_pattern.failure_free 5 in
  let c = Obs.Collector.create ~capacity:8 () in
  ignore (run_flood ~sink:c.Obs.Collector.sink fp);
  Alcotest.(check int) "retained at capacity" 8
    (List.length (Obs.Collector.events c));
  Alcotest.(check bool) "older events dropped" true
    (Obs.Collector.dropped c > 0);
  let rows = Obs.Collector.metric_rows c in
  Alcotest.(check bool) "events.dropped row agrees" true
    (List.assoc "events.dropped" rows = Obs.Collector.dropped c);
  Alcotest.(check bool) "events.recorded counts all" true
    (List.assoc "events.recorded" rows
    = Obs.Collector.dropped c + List.length (Obs.Collector.events c))

let test_vclock_causality_on_deliver () =
  (* Under FIFO, the k-th deliver of a (src,dst) pair matches the k-th
     send: the sender's clock stamped on the envelope must be leq the
     receiver's clock at delivery — message causality, end to end. *)
  let fp = Sim.Failure_pattern.make ~n:4 [ (2, 5) ] in
  let c = Obs.Collector.create () in
  ignore (run_flood ~sink:c.Obs.Collector.sink fp);
  let pending = Hashtbl.create 16 in
  let checked = ref 0 in
  List.iter
    (fun (e : Sim.Event.t) ->
      match e.kind with
      | Sim.Event.Send { src; dst } ->
        let q =
          match Hashtbl.find_opt pending (src, dst) with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add pending (src, dst) q;
            q
        in
        Queue.add e.vc q
      | Sim.Event.Deliver { src; dst; _ } -> (
        let q = Hashtbl.find pending (src, dst) in
        match (Queue.pop q, e.vc) with
        | Some sent_vc, Some recv_vc ->
          incr checked;
          if not (Sim.Vclock.leq sent_vc recv_vc) then
            Alcotest.failf "deliver %d->%d does not dominate its send" src dst
        | _ -> Alcotest.fail "engine-emitted event missing a vector clock")
      | _ -> ())
    (Obs.Collector.events c);
  Alcotest.(check bool) "checked at least one delivery" true (!checked > 0)

(* --- jsonl -------------------------------------------------------------- *)

let test_jsonl_escape () =
  Alcotest.(check string) "quotes/backslash/newline" "a\\\"b\\\\c\\nd"
    (Obs.Jsonl.escape "a\"b\\c\nd");
  Alcotest.(check string) "control char" "\\u0001" (Obs.Jsonl.escape "\x01");
  Alcotest.(check string) "tab" "\\t" (Obs.Jsonl.escape "\t")

let test_jsonl_lines () =
  let vc = Sim.Vclock.tick (Sim.Vclock.zero 2) 1 in
  Alcotest.(check string) "send event line"
    {|{"type":"event","t":3,"round":1,"kind":"send","pid":0,"src":0,"dst":1,"vc":[0,1]}|}
    (Obs.Jsonl.event_line
       {
         Sim.Event.time = 3;
         round = 1;
         vc = Some vc;
         kind = Sim.Event.Send { src = 0; dst = 1 };
       });
  Alcotest.(check string) "metric event line, no vc"
    {|{"type":"event","t":9,"round":2,"kind":"metric","name":"dag","value":17}|}
    (Obs.Jsonl.event_line
       {
         Sim.Event.time = 9;
         round = 2;
         vc = None;
         kind = Sim.Event.Metric { name = "dag"; value = 17 };
       });
  Alcotest.(check string) "meta line escapes values"
    {|{"type":"meta","k":"a\"b"}|}
    (Obs.Jsonl.meta_line [ ("k", "a\"b") ]);
  Alcotest.(check string) "metrics line"
    {|{"type":"metrics","rows":{"net.sent":3}}|}
    (Obs.Jsonl.metrics_line [ ("net.sent", 3) ])

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

let test_jsonl_write_run () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let c = Obs.Collector.create () in
  ignore (run_flood ~sink:c.Obs.Collector.sink fp);
  let path = Filename.temp_file "obs_run" ".jsonl" in
  Obs.Jsonl.write_run ~path ~meta:[ ("kind", "test") ] c;
  let lines = read_lines path in
  Sys.remove path;
  (match lines with
  | meta :: rest ->
    Alcotest.(check bool) "meta first" true
      (contains meta {|"type":"meta"|} && contains meta {|"kind":"test"|});
    let events, tail =
      List.partition (fun l -> contains l {|"type":"event"|}) rest
    in
    Alcotest.(check int) "one line per retained event"
      (List.length (Obs.Collector.events c))
      (List.length events);
    Alcotest.(check int) "metrics + profile tail" 2 (List.length tail)
  | [] -> Alcotest.fail "empty trace file")

(* --- Jsonl reader: the inverse direction ------------------------------ *)

let test_jsonl_read_file_roundtrip () =
  let fp = Sim.Failure_pattern.failure_free 3 in
  let c = Obs.Collector.create () in
  ignore (run_flood ~sink:c.Obs.Collector.sink fp);
  let path = Filename.temp_file "obs_read" ".jsonl" in
  Obs.Jsonl.write_run ~path ~meta:[ ("kind", "test"); ("n", "3") ] c;
  let records = Obs.Jsonl.read_file path in
  Sys.remove path;
  (match records with
  | Obs.Jsonl.Meta kvs :: _ ->
    Alcotest.(check (option string))
      "meta kind survives" (Some "test") (List.assoc_opt "kind" kvs)
  | _ -> Alcotest.fail "first record is not meta");
  Alcotest.(check bool) "every retained event survives, in order" true
    (Obs.Jsonl.events records = Obs.Collector.events c);
  let metrics =
    List.find_map
      (function Obs.Jsonl.Metrics rows -> Some rows | _ -> None)
      records
  in
  Alcotest.(check bool) "metrics rows survive" true
    (metrics = Some (Obs.Collector.metric_rows c));
  Alcotest.(check bool) "profile record present" true
    (List.exists (function Obs.Jsonl.Profile _ -> true | _ -> false) records)

let test_jsonl_reader_rejects_garbage () =
  List.iter
    (fun line ->
      match Obs.Jsonl.record_of_line line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" line)
      | Error _ -> ())
    [
      "";
      "not json";
      "[1,2]";
      {|{"type":"event"}|};
      {|{"type":"event","t":0,"round":0,"kind":"send","src":0}|};
      {|{"type":"wat"}|};
      {|{"t":0}|};
      {|{"type":"event","t":0,"round":0,"kind":"send","src":0,"dst":1}x|};
      {|{"type":"meta","k":"\uZZZZ"}|};
      {|{"type":"meta","k":"\u-123"}|};
    ]

(* The full event vocabulary round-trips through one serialized line —
   the property that makes traces from real cluster runs (bin/cluster
   --trace) loadable and diffable against simulated ones. *)
let prop_jsonl_event_roundtrip =
  let open QCheck in
  let gen =
    let open Gen in
    let pid = 0 -- 5 in
    let text = string_size ~gen:printable (0 -- 20) in
    let kind =
      oneof
        [
          map2 (fun src dst -> Sim.Event.Send { src; dst }) pid pid;
          map3
            (fun src dst sent_at -> Sim.Event.Deliver { src; dst; sent_at })
            pid pid (0 -- 1000);
          map (fun p -> Sim.Event.Crash p) pid;
          map (fun p -> Sim.Event.Fd_query p) pid;
          map (fun p -> Sim.Event.Input p) pid;
          map2 (fun p info -> Sim.Event.Output { pid = p; info }) pid text;
          map2
            (fun name value -> Sim.Event.Metric { name; value })
            text (0 -- 100_000);
        ]
    in
    let vc =
      opt (map Sim.Vclock.of_list (list_size (1 -- 6) (0 -- 50)))
    in
    map2
      (fun (time, round) (vc, kind) -> { Sim.Event.time; round; vc; kind })
      (pair (0 -- 10_000) (0 -- 10_000))
      (pair vc kind)
  in
  QCheck.Test.make ~count:500
    ~name:"jsonl: every event kind round-trips through its line"
    (QCheck.make gen) (fun e ->
      match Obs.Jsonl.record_of_line (Obs.Jsonl.event_line e) with
      | Ok (Obs.Jsonl.Event e') -> e' = e
      | Ok _ | Error _ -> false)

(* Strings with every escape class survive: quotes, backslashes, control
   characters, tabs/newlines, and raw high bytes. *)
let test_jsonl_escape_roundtrip () =
  List.iter
    (fun s ->
      let e =
        { Sim.Event.time = 1; round = 2; vc = None;
          kind = Sim.Event.Output { pid = 0; info = s } }
      in
      match Obs.Jsonl.record_of_line (Obs.Jsonl.event_line e) with
      | Ok (Obs.Jsonl.Event e') ->
        Alcotest.(check bool) (Printf.sprintf "%S survives" s) true (e' = e)
      | Ok _ -> Alcotest.fail "wrong record type"
      | Error msg -> Alcotest.fail msg)
    [
      {|say "hi"|}; "back\\slash"; "tab\there"; "line\nbreak"; "\r";
      "\x01\x02\x1f"; "caf\xc3\xa9"; "\xff\xfe";
    ]

(* --- Runner integration: --trace on plain runs and on mc -------------- *)

let strip_profile lines =
  List.filter (fun l -> not (contains l {|"type":"profile"|})) lines

let test_runner_run_trace () =
  let path = Filename.temp_file "obs_runner" ".jsonl" in
  let scenario = Core.Scenario.one_crash ~n:4 ~at:40 in
  let workload =
    Core.Runner.Consensus { algo = Core.Runner.Quorum_paxos; proposals = None }
  in
  let s = Core.Runner.run ~trace:path ~seed:3 workload scenario in
  Alcotest.(check bool) "spec ok" true (s.Core.Runner.spec_ok = Ok ());
  Alcotest.(check bool) "metric rows returned" true
    (s.Core.Runner.metrics <> []);
  Alcotest.(check int) "net.sent metric = summary messages"
    s.Core.Runner.messages
    (List.assoc "net.sent" s.Core.Runner.metrics);
  Alcotest.(check bool) "sigma quorum sizes observed" true
    (List.mem_assoc "sigma.quorum_size.count" s.Core.Runner.metrics);
  let lines1 = read_lines path in
  Alcotest.(check bool) "meta names the algorithm" true
    (contains (List.hd lines1) {|"algorithm":"quorum-paxos"|});
  (* identical run -> identical trace, modulo the profile record *)
  let s2 = Core.Runner.run ~trace:path ~seed:3 workload scenario in
  let lines2 = read_lines path in
  Sys.remove path;
  Alcotest.(check (list string))
    "re-run reproduces the trace (minus profile)"
    (strip_profile lines1) (strip_profile lines2);
  Alcotest.(check (list (pair string int)))
    "re-run reproduces the metrics" s.Core.Runner.metrics
    s2.Core.Runner.metrics;
  (* the untraced run reports the same outcome, just without metrics *)
  let s3 = Core.Runner.run ~seed:3 workload scenario in
  Alcotest.(check string) "decision unchanged without tracing"
    s.Core.Runner.decision s3.Core.Runner.decision;
  Alcotest.(check int) "messages unchanged without tracing"
    s.Core.Runner.messages s3.Core.Runner.messages;
  Alcotest.(check (list (pair string int)))
    "untraced summary has no metric rows" [] s3.Core.Runner.metrics

let mc_opts = Core.Runner.mc_default_opts

let test_runner_mc_trace () =
  let trace_with domains path =
    match
      Core.Runner.model_check
        ~opts:{ mc_opts with Core.Runner.budget = 10_000; domains }
        ~trace:path "cons.broken_validity" ~n:2
    with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool) "violation found" true
        (s.Core.Runner.counterexample <> None);
      read_lines path
  in
  let p1 = Filename.temp_file "obs_mc1" ".jsonl" in
  let p2 = Filename.temp_file "obs_mc2" ".jsonl" in
  let l1 = trace_with 1 p1 and l2 = trace_with 2 p2 in
  Sys.remove p1;
  Sys.remove p2;
  let meta = List.hd l1 in
  Alcotest.(check bool) "meta carries the search summary" true
    (contains meta {|"kind":"mc"|}
    && contains meta {|"target":"cons.broken_validity"|}
    && contains meta {|"violation":|});
  Alcotest.(check bool) "counterexample replay events present" true
    (List.exists (fun l -> contains l {|"type":"event"|}) l1);
  Alcotest.(check (list string))
    "trace identical across domain counts (minus profile)"
    (strip_profile l1) (strip_profile l2)

let test_runner_mc_trace_clean () =
  (* no counterexample: the trace is just the summary (plus empty
     collector records) — and mc_replay can write a trace of its own *)
  let path = Filename.temp_file "obs_mc_clean" ".jsonl" in
  (match
     Core.Runner.model_check
       ~opts:{ mc_opts with Core.Runner.budget = 50_000 }
       ~trace:path "cons.quorum_paxos" ~n:2
   with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "clean" true (s.Core.Runner.counterexample = None));
  let lines = read_lines path in
  Sys.remove path;
  Alcotest.(check bool) "meta says no violation" true
    (contains (List.hd lines) {|"violation":""|});
  Alcotest.(check bool) "no event lines" true
    (not (List.exists (fun l -> contains l {|"type":"event"|}) lines));
  let rpath = Filename.temp_file "obs_mc_replay" ".jsonl" in
  (match
     Core.Runner.mc_replay ~trace:rpath "cons.broken_validity" ~n:2 ~seed:1
       ~schedule:"crashes=;choices="
   with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "replay reproduces the violation" true
      (r.Core.Runner.re_violation <> None));
  let rlines = read_lines rpath in
  Sys.remove rpath;
  Alcotest.(check bool) "replay trace has meta + events" true
    (contains (List.hd rlines) {|"kind":"mc-replay"|}
    && List.exists (fun l -> contains l {|"type":"event"|}) rlines)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          Alcotest.test_case "overflow" `Quick test_ring_overflow;
          Alcotest.test_case "clamp and clear" `Quick test_ring_clamp_and_clear;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot" `Quick test_metrics_snapshot;
          Alcotest.test_case "labeled series" `Quick test_metrics_labels;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
          Alcotest.test_case "labeled histogram" `Quick
            test_metrics_labeled_histogram;
        ] );
      ( "profile",
        [
          Alcotest.test_case "spans" `Quick test_profile_spans;
          Alcotest.test_case "reentrant" `Quick test_profile_reentrant;
          Alcotest.test_case "time + unmatched exit" `Quick
            test_profile_time_and_unmatched_exit;
        ] );
      ( "collector",
        [
          Alcotest.test_case "engine event counts" `Quick
            test_collector_engine_counts;
          Alcotest.test_case "deterministic" `Quick test_collector_deterministic;
          Alcotest.test_case "zero interference" `Quick
            test_collector_zero_interference;
          Alcotest.test_case "ring overflow" `Quick test_collector_ring_overflow;
          Alcotest.test_case "vclock causality on deliver" `Quick
            test_vclock_causality_on_deliver;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "escape" `Quick test_jsonl_escape;
          Alcotest.test_case "record lines" `Quick test_jsonl_lines;
          Alcotest.test_case "write_run" `Quick test_jsonl_write_run;
        ] );
      ( "jsonl-reader",
        [
          Alcotest.test_case "write_run/read_file round-trip" `Quick
            test_jsonl_read_file_roundtrip;
          Alcotest.test_case "rejects malformed lines" `Quick
            test_jsonl_reader_rejects_garbage;
          Alcotest.test_case "escape classes round-trip" `Quick
            test_jsonl_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonl_event_roundtrip;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run --trace" `Quick test_runner_run_trace;
          Alcotest.test_case "mc --trace, domain-independent" `Quick
            test_runner_mc_trace;
          Alcotest.test_case "mc --trace clean + replay trace" `Quick
            test_runner_mc_trace_clean;
        ] );
    ]
