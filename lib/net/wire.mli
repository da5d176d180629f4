(** Wire format of the [net] runtime (docs/NET.md).

    Every connection carries a stream of frames: a 4-byte big-endian payload
    length followed by the payload.  Peer connections open with a hello
    frame identifying the sender; every subsequent frame is one versioned
    binary {!envelope} whose message payload is encoded by the {!codec} in
    force.  Client connections carry request / response frames whose
    binary layout each server defines.

    Every frame is binary: nothing read from a socket is unmarshalled.
    The envelope carries an explicit version byte, and the hello frame
    carries a magic string and version, so a mismatched peer fails loudly
    instead of corrupting state. *)

(** Frame payloads are capped (16 MiB default): a corrupt length prefix
    must not make a node allocate gigabytes. *)
val max_frame : int

(** Raised when a length prefix announces a frame larger than the cap in
    force (or negative).  A clean, typed, per-connection condition: {!Tcp}
    and the client listeners catch it and close the offending connection
    without touching any other connection or the node itself. *)
exception Frame_too_large of { size : int; limit : int }

(** {2 Framing} *)

(** [frame payload] is the length-prefixed wire form. *)
val frame : bytes -> bytes

(** [write_frame fd payload] writes a whole frame, retrying on [EINTR] and
    partial writes.  @raise Unix.Unix_error on a dead socket. *)
val write_frame : Unix.file_descr -> bytes -> unit

(** [read_frame fd] blocks until one whole frame is read.  [None] on EOF.
    @raise Frame_too_large on an oversized frame. *)
val read_frame : Unix.file_descr -> bytes option

(** A streaming frame decoder for non-blocking reads: feed raw chunks in,
    pop complete frames out. *)
module Decoder : sig
  type t

  (** [create ?max_frame ()] — [max_frame] (default {!max_frame}) caps the
      size any length prefix may announce.  The cap is enforced as soon as
      the 4 header bytes are buffered, before any frame-sized allocation:
      an adversarial prefix costs at most the bytes actually received. *)
  val create : ?max_frame:int -> unit -> t

  (** [feed t buf len] appends the first [len] bytes of [buf].
      @raise Frame_too_large if the buffered head announces an oversized
      frame. *)
  val feed : t -> bytes -> int -> unit

  (** Next complete frame, if any.
      @raise Frame_too_large on an oversized frame. *)
  val next : t -> bytes option

  (** Bytes buffered but not yet consumed as frames. *)
  val buffered : t -> int
end

(** The non-blocking frame writer: frames queue in order and reach the
    socket as fast as the kernel takes them, so a reader that is slow to
    drain its end delays frames but never loses one, or a frame's tail. *)
module Writer : sig
  type t

  val create : unit -> t

  (** [push t payload] queues [payload]'s frame behind every earlier one. *)
  val push : t -> bytes -> unit

  (** Some queued byte has not reached the kernel yet. *)
  val pending : t -> bool

  (** Bytes of the queued frames, length prefixes included; a frame
      counts whole until its last byte reaches the kernel. *)
  val bytes : t -> int

  (** [rewind t]: the head frame restarts from its first byte at the
      next {!flush} — for a writer that outlives its connection, whose
      next connection must not begin mid-frame. *)
  val rewind : t -> unit

  (** [flush t fd] writes queued bytes until the queue is empty or the
      kernel pushes back ([EAGAIN], [EWOULDBLOCK], [EINTR]); the rest
      waits for the next [flush].
      @raise Unix.Unix_error on any other error: the connection is dead. *)
  val flush : t -> Unix.file_descr -> unit
end

(** {2 Codecs}

    A [codec] is a first-class binary representation of one message type:
    [enc] appends the wire form to a (preallocated, reused) [Buffer.t];
    [dec] reads one value out of a [pos,len) slice of a received frame.
    {!Node} is codec-parametric — the codec in force decides the
    representation — and {!Transport} stays byte-oriented, so any codec
    runs over any transport.  The builders below make the binary codecs;
    {!Codecs} and each host's own module assemble them per message
    type. *)

(** Raised by binary decoders on a malformed frame: truncation, trailing
    bytes, a bad tag, or a version mismatch.  Per-frame, not fatal —
    {!Node} drops the frame, connection-level readers close the offending
    connection. *)
exception Decode_error of string

type 'a codec = {
  enc : Buffer.t -> 'a -> unit;
  dec : bytes -> pos:int -> len:int -> 'a;
}

(** Primitive writers.  [varint] is LEB128 over the int's 63-bit pattern:
    any int round-trips; small non-negative ints (the common case — pids,
    slots, ballots, sequence numbers) cost one byte. *)
module W : sig
  val u8 : Buffer.t -> int -> unit
  val varint : Buffer.t -> int -> unit
  val string : Buffer.t -> string -> unit
  val bytes : Buffer.t -> bytes -> unit
  val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
  val option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

  val pair :
    (Buffer.t -> 'a -> unit) ->
    (Buffer.t -> 'b -> unit) ->
    Buffer.t ->
    'a * 'b ->
    unit
end

(** Primitive readers over a cursor into one frame.  All raise
    {!Decode_error} on malformed input — a negative or oversized list
    length included; none read past the slice given to {!R.make}, and
    none allocates per field beyond the value it returns. *)
module R : sig
  type t

  val make : bytes -> pos:int -> len:int -> t
  val remaining : t -> int
  val u8 : t -> int
  val varint : t -> int
  val string : t -> string
  val bytes : t -> bytes

  (** The rest of the slice, as fresh bytes. *)
  val tail : t -> bytes

  val list : (t -> 'a) -> t -> 'a list
  val option : (t -> 'a) -> t -> 'a option
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b

  (** @raise Decode_error if unread bytes remain. *)
  val expect_end : t -> unit
end

(** [codec ~write ~read] packages a writer and a reader as a {!codec};
    the built [dec] checks the whole slice is consumed. *)
val codec : write:(Buffer.t -> 'a -> unit) -> read:(R.t -> 'a) -> 'a codec

val varint_c : int codec

(** A slice that holds one value of under 128 bytes, as a nested payload
    does, decodes with one copy and no cursor. *)
val string_c : string codec

val bytes_c : bytes codec

(** One-shot conveniences (allocate a scratch buffer per call). *)
val to_bytes : 'a codec -> 'a -> bytes

val of_bytes : 'a codec -> bytes -> 'a

(** Length-prefixed embedding of one codec's value inside another stream —
    how a generic payload travels mid-frame (codecs are otherwise only
    self-delimiting at the tail of a frame).  Allocates a scratch buffer
    per call. *)
val write_nested : 'a codec -> Buffer.t -> 'a -> unit

(** [write_nested_via tmp] is {!write_nested} through the caller's scratch
    [tmp] (cleared first): a writer of a list of nested values makes one
    scratch per call and passes it to each.  Never share one across
    calls at module level: codec values are shared between domains. *)
val write_nested_via : Buffer.t -> 'a codec -> Buffer.t -> 'a -> unit

val read_nested : 'a codec -> R.t -> 'a

(** {2 Peer envelopes} *)

(** The per-message envelope between cluster nodes: sender, sender's local
    step clock at send time (the [sent_at] of the Deliver event it produces)
    and, when the sender traces, its vector clock — so a real run emits the
    same {!Sim.Event} vocabulary as a simulated one. *)
type 'msg envelope = {
  env_src : Sim.Pid.t;
  env_sent_at : int;
  env_vc : int list option;
  env_msg : 'msg;
}

(** Envelope frames are binary and versioned (layout in docs/NET.md):
    version byte, then src / sent_at / optional vclock as varints, then
    the message payload — encoded by the codec in force — as the tail of
    the frame.  A frame whose version byte differs from
    [envelope_version] raises {!Decode_error} before any field is
    misread. *)
val envelope_version : int

(** [encode_envelope_into c buf e] appends the framed-ready envelope bytes
    to [buf] (the caller frames them; {!Node} reuses one scratch buffer
    across sends). *)
val encode_envelope_into : 'msg codec -> Buffer.t -> 'msg envelope -> unit

(** @raise Decode_error on truncation, version mismatch, or a payload the
    codec rejects. *)
val decode_envelope_with : 'msg codec -> bytes -> 'msg envelope

(** {2 Hello} *)

(** [hello ~self] is the connection-opening frame payload: the magic
    string (varint length, bytes), then [self] as a varint.  [parse_hello]
    returns the peer pid, or [Error] on any malformed frame — truncated,
    trailing bytes, a magic/version mismatch — and never raises. *)
val hello : self:Sim.Pid.t -> bytes

val parse_hello : bytes -> (Sim.Pid.t, string) result

(** [hello_ack ~self] is the acceptor's reply to a valid hello — the only
    frame ever written on an accepted connection.  Until the dialer reads
    it, the connection does not count as established: {!Tcp} resets its
    reconnect backoff only on a completed hello/hello-ack handshake, so a
    listener that accepts but rejects the handshake cannot reset the
    dialer's backoff and turn reconnection into a tight loop. *)
val hello_ack : self:Sim.Pid.t -> bytes

(** Same layout and guarantees as {!parse_hello}, with the ack's magic. *)
val parse_hello_ack : bytes -> (Sim.Pid.t, string) result
