(* Shared plumbing for bin/cluster.ml's subcommands: the per-cluster
   socket/log namespace, the lifecycle of a forked cluster, client-side
   framing for the binary protocol, latency accounting, schedule loading,
   and the cmdliner specs that demo/node/client/chaos/shard/bench all
   re-use — one definition per flag, so `--nodes 5` means the same thing
   everywhere. *)

open Cmdliner

(* ------------------------------------------- per-cluster namespace *)

let node_addr dir i =
  Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" i))

let client_addr dir i =
  Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "client-%d.sock" i))

let log_path dir i = Filename.concat dir (Printf.sprintf "log-%d.txt" i)
let trace_path dir i = Filename.concat dir (Printf.sprintf "trace-%d.jsonl" i)

let node_config ~dir ~self ~n ~period ~detector ~window ~batch_max ~tick_ms
    ~trace =
  {
    (Net.Smr_node.default_config ~self
       ~addrs:(Array.init n (node_addr dir))
       ~client_addr:(client_addr dir self))
    with
    Net.Smr_node.period;
    detector;
    window;
    batch_max;
    tick_s = float_of_int tick_ms /. 1000.;
    log_path = Some (log_path dir self);
    trace_path = (if trace then Some (trace_path dir self) else None);
  }

(* The string-command SMR replica of [demo], [bench] and [node]. *)
let serve_node ~dir ~n ~period ~detector ~window ~batch_max ~tick_ms ~trace
    self =
  let cfg =
    node_config ~dir ~self ~n ~period ~detector ~window ~batch_max ~tick_ms
      ~trace
  in
  Net.Smr_node.serve (Net.Smr_node.string_impl cfg) cfg

(* ------------------------------------------------- forked clusters *)

(* Server processes forked by one tool, and the one lifecycle every
   socket subcommand drives them through: spawn, SIGKILL one, fail
   (SIGKILL the rest, exit 1) or stop (SIGTERM, reap). *)
type cluster = { tool : string; pids : int array; live : bool array }

(* A server reads its side of the client's pipe ten times a second, on
   a timer signal (the serve loop retries whatever call a signal
   interrupts): EOF means the client is gone, however it ended, and
   stops the server the way the client's [stop] does. *)
let watch_client fd =
  Unix.set_nonblock fd;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         match Unix.read fd (Bytes.create 1) 0 1 with
         | 0 -> Unix.kill (Unix.getpid ()) Sys.sigterm
         | _ | (exception Unix.Unix_error _) -> ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.1; it_value = 0.1 })

let spawn ~tool k serve =
  (* a write to a dead server must raise EPIPE into [guard], not end the
     client by signal with every other server left running *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* only the client holds the write end *)
  let server_end, client_end = Unix.pipe () in
  let pids =
    Array.init k (fun i ->
        match Unix.fork () with
        | 0 ->
          Unix.close client_end;
          watch_client server_end;
          (try serve i
           with e ->
             Printf.eprintf "%s node %d died: %s\n%!" tool i
               (Printexc.to_string e));
          Stdlib.exit 0
        | pid -> pid)
  in
  Unix.close server_end;
  { tool; pids; live = Array.make k true }

let signal_live c signal =
  Array.iteri
    (fun i pid ->
      if c.live.(i) then try Unix.kill pid signal with Unix.Unix_error _ -> ())
    c.pids

let reap c i =
  (try ignore (Unix.waitpid [] c.pids.(i)) with Unix.Unix_error _ -> ());
  c.live.(i) <- false

let kill c i =
  (try Unix.kill c.pids.(i) Sys.sigkill with Unix.Unix_error _ -> ());
  reap c i

let fail c msg =
  Printf.eprintf "%s FAILED: %s\n%!" c.tool msg;
  signal_live c Sys.sigkill;
  Stdlib.exit 1

(* Whether server [i] still runs: one that died on its own, killed from
   outside say, is reaped and marked dead. *)
let running c i =
  c.live.(i)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] c.pids.(i) with
  | 0, _ -> true
  | _ | (exception Unix.Unix_error _) ->
    c.live.(i) <- false;
    false

(* Clean shutdown: servers flush their logs and traces on SIGTERM. *)
let stop c =
  signal_live c Sys.sigterm;
  Array.iteri (fun i live -> if live then reap c i) c.live

(* Run a client body; whatever it raises fails the run. *)
let guard c f =
  try f () with
  | Failure msg -> fail c msg
  | End_of_file -> fail c "server closed the connection"
  | Unix.Unix_error (e, fn, _) ->
    fail c (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | e -> fail c (Printexc.to_string e)

(* Poll [p] every [every] seconds until it holds (true) or [timeout]
   seconds have passed (false). *)
let settle ~every ~timeout p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    p ()
    || Unix.gettimeofday () <= deadline
       && begin
         Unix.sleepf every;
         go ()
       end
  in
  go ()

(* ------------------------------------------------- client plumbing *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect_retry addr ~attempts ~delay_s =
  let rec go k =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
      close_quiet fd;
      if k <= 1 then failwith ("connect: " ^ Unix.error_message e)
      else begin
        Unix.sleepf delay_s;
        go (k - 1)
      end
  in
  go attempts

(* One request frame out, its reply frame back; End_of_file if the
   server closed the connection. *)
let roundtrip fd request =
  Net.Wire.write_frame fd request;
  match Net.Wire.read_frame fd with
  | Some reply -> reply
  | None -> raise End_of_file

(* One command through the binary client protocol: the request frame is
   the raw payload, the decided reply is varint (seq, slot). *)
let submit_blocking fd payload =
  Net.Smr_node.decode_reply (roundtrip fd (Bytes.of_string payload))

(* The [k]-th command of a closed loop. *)
let command ~prefix k = Printf.sprintf "%s-%d" prefix k

(* Closed loop: send one command, wait for its decided (seq, slot),
   repeat.  Returns per-command latencies (seconds), in order. *)
let closed_loop fd ~count ~prefix ~on_progress =
  let lats = ref [] in
  for k = 0 to count - 1 do
    let t0 = Unix.gettimeofday () in
    let _seq, _slot = submit_blocking fd (command ~prefix k) in
    lats := (Unix.gettimeofday () -. t0) :: !lats;
    on_progress k
  done;
  List.rev !lats

(* -------------------------------------------- latency accounting *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let print_latencies lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  let total = Array.fold_left ( +. ) 0. a in
  Printf.printf
    "commands=%d throughput=%.1f/s p50=%.1fms p90=%.1fms p99=%.1fms\n%!"
    (Array.length a)
    (float_of_int (Array.length a) /. total)
    (1000. *. percentile a 0.50)
    (1000. *. percentile a 0.90)
    (1000. *. percentile a 0.99)

(* ------------------------------------------------- file helpers *)

let read_log path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* The log specification's verdict on survivors' applied-log files
   ("slot\torigin\tseq\tpayload" lines, payload escaped), keyed by
   payload over the [submitted] payloads: [None] if it holds, else the
   first violation.  The client that submitted them never crashed, so
   validity owes each one to every survivor: they are attributed to the
   first survivor.  A SIGKILLed node's file may end in a torn line, so
   only survivors are judged. *)
let log_verdict ~submitted logs =
  let payload line =
    match String.split_on_char '\t' line with
    | [ _; _; _; p ] -> Some p
    | _ -> None
  in
  match List.map fst logs with
  | [] -> Some "no survivor"
  | first :: _ as correct -> (
    let submitted = List.map (fun c -> (first, String.escaped c)) submitted in
    match
      Cons.Log_spec.check ~live:true
        { Cons.Log_spec.logs; correct; submitted; key = payload }
    with
    | [] -> None
    | v :: _ ->
      Some
        (Format.asprintf "%a"
           (Cons.Log_spec.pp_violation Format.pp_print_string)
           v))

let rec mkdtemp () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wfd-cluster-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  match Unix.mkdir path 0o700 with
  | () -> path
  | exception Unix.Unix_error (EEXIST, _, _) -> mkdtemp ()

let ensure_dir dir_opt =
  match dir_opt with
  | Some d ->
    (try Unix.mkdir d 0o700 with Unix.Unix_error (EEXIST, _, _) -> ());
    d
  | None -> mkdtemp ()

(* ------------------------------------------------- fault schedules *)

let default_schedule n =
  (* partition a majority {0..⌈n/2⌉-1} away from the rest, then heal *)
  let buf = Buffer.create 64 in
  Buffer.add_string buf "at 300 partition";
  for p = 0 to ((n + 1) / 2) - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" p)
  done;
  Buffer.add_string buf " |";
  for p = (n + 1) / 2 to n - 1 do
    Buffer.add_string buf (Printf.sprintf " %d" p)
  done;
  Buffer.add_string buf "\nat 900 heal\n";
  Buffer.contents buf

(* Load + parse a schedule for an [n]-node universe; [what] prefixes
   diagnostics.  Exits 2 on a missing file, a grammar error or a command
   naming a process outside the universe. *)
let load_schedule ~what ~n file_opt =
  let parsed =
    match file_opt with
    | None -> Net.Nemesis.parse_schedule (default_schedule n)
    | Some f -> Net.Nemesis.load_schedule f
  in
  match
    Result.bind parsed (fun s ->
        Result.map (fun () -> s) (Net.Nemesis.check ~n s))
  with
  | Ok s -> s
  | Error e ->
    Printf.eprintf "%s: bad schedule: %s\n%!" what e;
    Stdlib.exit 2

(* ---------------------------------------------------- arg specs *)

let dir_required =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Directory for sockets and logs.")

let dir_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Working directory (default: fresh temp dir).")

let n_arg =
  Arg.(
    value & opt int 3
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of replicas.")

let period_arg =
  Arg.(
    value & opt int 16
    & info [ "period" ] ~docv:"STEPS" ~doc:"Ω heartbeat period (local steps).")

let detector_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("heartbeat", Fd.Emulated.Omega.Heartbeat);
             ("ring", Fd.Emulated.Omega.Ring);
           ])
        Fd.Emulated.Omega.Heartbeat
    & info [ "detector" ] ~docv:"D"
        ~doc:
          "Ω backend: $(b,heartbeat) (all-to-all, O(n^2) frames per period) \
           or $(b,ring) (chain-ordered suspicions, one successor heartbeat \
           per period; docs/DETECTORS.md).")

let window_arg ~default =
  Arg.(
    value & opt int default
    & info [ "window" ] ~docv:"W"
        ~doc:"Consensus instances pipelined in flight (Cons.Smr window).")

let batch_max_arg =
  Arg.(
    value & opt int 1024
    & info [ "batch-max" ] ~docv:"B"
        ~doc:"Max commands batched into one consensus instance.")

let tick_arg =
  Arg.(
    value & opt int 1
    & info [ "tick" ] ~docv:"MS" ~doc:"Wall-clock milliseconds per idle step.")

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Write per-node JSONL observability traces (on clean shutdown).")

let trace_path_arg ~doc =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let count_arg =
  Arg.(
    value & opt int 40
    & info [ "count" ] ~docv:"K" ~doc:"Number of commands to submit.")

let seed_arg ~doc = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let rounds_arg ~doc =
  Arg.(value & opt int 2500 & info [ "rounds" ] ~docv:"R" ~doc)

let cmds_arg ~default ~doc =
  Arg.(value & opt int default & info [ "cmds" ] ~docv:"K" ~doc)

let cmd_every_arg ~default ~doc =
  Arg.(value & opt int default & info [ "cmd-every" ] ~docv:"R" ~doc)

let schedule_arg ~doc =
  Arg.(value & opt (some string) None & info [ "schedule" ] ~docv:"FILE" ~doc)

let target_arg =
  Arg.(
    value & opt int 0
    & info [ "target" ] ~docv:"PID" ~doc:"Replica to submit to.")
