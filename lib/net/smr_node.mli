(** The deployable SMR replica: batched, pipelined quorum Paxos under an
    emulated (Ω, Σ) pair, served over real sockets.

    {!protocol} is the full stack as one ordinary [Sim.Protocol.t] —
    [Layered.with_detector (Layered.pair Ω Σ) (Smr.make ~window
    ~batch_max ())] — so the exact automaton a deployed node runs can
    also be dropped into the simulator or the model checker.  Ω's
    heartbeat [period] is in local steps; {!serve} paces steps at a fixed
    wall-clock tick, which is the step-counter ↔ real-time mapping
    (docs/NET.md) that turns the detectors' step timeouts into wall-clock
    timeouts.

    {!serve} is the single node-process entry point (the historical
    [serve]/[serve_with] split is gone): it hosts any {!impl} — the
    string node via {!string_impl}, the shard replica via
    [Shard.Server] — behind one event loop: poll(2) transport, client
    listener (framed {!Wire} requests), applied-log file (one line per
    decided slot, flushed eagerly so an observer — or the demo verifier —
    can diff logs of live nodes; {!log_payload} reads it), optional JSONL
    trace dumped on SIGTERM. *)

type 'c pstate

(** The composed wire type is public so codecs for it can live outside
    this module ({!Codecs.pmsg} builds the binary tower for it). *)
type 'c pmsg =
  ( (Fd.Emulated.Omega.msg, Fd.Emulated.Sigma_majority.msg)
    Sim.Layered.wire,
    'c Cons.Smr.msg )
  Sim.Layered.wire

(** Σ join-round pacing for a given Ω backend, in steps between a
    node's Joins: one join round per heartbeat [period] under
    [Fd.Emulated.Omega.Heartbeat], one every [4 * period] steps under
    [Ring] — with Ω down to one frame per process per period, a faster
    Σ would be the only O(n²)-per-round traffic left.  Σ's spec accepts
    stale quorums, and each join round Σ skips frees receive steps for
    the protocol (docs/DETECTORS.md, "Pacing Σ"). *)
val default_sigma_period :
  detector:Fd.Emulated.Omega.kind -> period:int -> int

(** The composed replica automaton.  Inputs are client commands; outputs
    are decided [(log index, cmd)] entries in log order.  [window]
    (default 1) and [batch_max] (default 1024) are {!Cons.Smr.make}'s
    pipelining and batching knobs; [detector] picks the Ω backend
    (default [Heartbeat]), and Σ is paced by {!default_sigma_period}. *)
val protocol :
  ?window:int ->
  ?batch_max:int ->
  ?detector:Fd.Emulated.Omega.kind ->
  period:int ->
  unit ->
  ('c pstate, 'c pmsg, unit, 'c, int * 'c Cons.Smr.cmd) Sim.Protocol.t

(** Views into the layers, for tests and status lines. *)
val smr_state : 'c pstate -> 'c Cons.Smr.state

val omega_state : 'c pstate -> Fd.Emulated.Omega.state
val sigma_state : 'c pstate -> Fd.Emulated.Sigma_majority.state

(** Which detector series a delivered frame belongs to —
    ["heartbeat"] / ["ring"] for Ω traffic, ["sigma"] for join-quorum
    traffic, [None] for main (SMR) traffic.  Hosts pass this as
    [Node.create]'s [classify] hook to feed the
    [fd.frames{detector=...}] labeled counters. *)
val classify : 'c pmsg -> string option

type config = {
  self : Sim.Pid.t;
  addrs : Unix.sockaddr array;  (** transport address of every node *)
  client_addr : Unix.sockaddr;  (** this node's client-facing listener *)
  period : int;  (** Ω heartbeat period in local steps (default 16) *)
  detector : Fd.Emulated.Omega.kind;
      (** Ω backend (default [Heartbeat]); Σ pacing follows
          {!default_sigma_period} *)
  window : int;  (** in-flight consensus instances (default 16) *)
  batch_max : int;  (** max commands per instance (default 1024) *)
  tick_s : float;  (** seconds per idle step (default 1e-3) *)
  log_path : string option;  (** applied-log file *)
  trace_path : string option;  (** JSONL trace, written on SIGTERM *)
}

val default_config : self:Sim.Pid.t -> addrs:Unix.sockaddr array ->
  client_addr:Unix.sockaddr -> config

(** What {!serve} needs to host {e any} protocol with an SMR-shaped
    component behind the same event loop: the automaton and its wire
    {!Wire.codec}; [smr], the node's {!Cons.Smr.state}, whose
    submission and application counters {!serve} reads; [show], a
    command payload as its applied-log line prints it; the [decided]
    projection from protocol outputs to decided [(slot, cmd)] entries
    (identity-shaped for pure SMR; [Ec.Mixed]'s EC-side outputs project
    to [None]); [submit] to embed a client command into the protocol's
    input type; and the client-frame handler — [`Submit c] enters the
    replicated log (the client gets the binary [(seq, slot)] reply of
    {!decode_reply} when its entry is decided), [`Reply b] answers
    immediately without consensus (how [Shard.Server] serves its
    quorum-read samples, and how the eventual path of [Ec.Mixed] serves
    local reads/writes — its handler first applies the write through
    [inject], which delivers the input {e synchronously} via
    {!Node.apply_input}, so the reply sees it: read-your-writes).  The
    wire/input/output types are existential: the event loop never
    inspects them; the codec travels with the protocol it encodes. *)
type ('st, 'c) impl =
  | Impl : {
      proto : ('st, 'msg, unit, 'inp, 'out) Sim.Protocol.t;
      codec : 'msg Wire.codec;
      smr : 'st -> 'c Cons.Smr.state;
      show : 'c -> string;
      decided : 'out -> (int * 'c Cons.Smr.cmd) option;
      submit : 'c -> 'inp;
      on_request :
        state:(unit -> 'st) ->
        inject:('inp -> unit) ->
        bytes ->
        [ `Submit of 'c | `Reply of bytes ];
    }
      -> ('st, 'c) impl

(** Run a node process hosting [impl] until SIGTERM (clean shutdown:
    close sockets, flush log, dump trace).  Never returns normally.
    Each decided slot appends one line to the applied log: slot, origin,
    seq and [String.escaped (show payload)], tab-separated. *)
val serve : ('st, 'c) impl -> config -> unit

(** The payload field of an applied-log line, as written (escaped);
    [None] unless the line has the four fields — a SIGKILLed node's
    file may end in a torn line. *)
val log_payload : string -> string option

(** The string-command instantiation of {!protocol} on the full binary
    codec tower ({!Codecs.pmsg} over {!Wire.string_c}) — the node body of
    [bin/cluster.ml]'s single-group subcommands.  Client protocol: each
    request frame is one raw command payload; each decided submission is
    answered with the binary [(seq, slot)] reply. *)
val string_impl : config -> (string pstate, string) impl

(** Parse a decided-submission reply frame: varint [seq], varint [slot].
    @raise Wire.Decode_error on a malformed frame. *)
val decode_reply : bytes -> int * int
