let max_frame = 16 * 1024 * 1024

exception Frame_too_large of { size : int; limit : int }

let () =
  Printexc.register_printer (function
    | Frame_too_large { size; limit } ->
      Some (Printf.sprintf "net: oversized frame (%d bytes, limit %d)" size limit)
    | _ -> None)

let check_len ~limit len =
  if len < 0 || len > limit then raise (Frame_too_large { size = len; limit })

let frame payload =
  let len = Bytes.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit payload 0 b 4 len;
  b

let rec write_all fd b off len =
  if len > 0 then begin
    let w =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + w) (len - w)
  end

let write_frame fd payload =
  let b = frame payload in
  write_all fd b 0 (Bytes.length b)

let rec read_exact fd b off len =
  if len = 0 then true
  else
    match Unix.read fd b off len with
    | 0 -> false
    | r -> read_exact fd b (off + r) (len - r)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exact fd hdr 0 4) then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    check_len ~limit:max_frame len;
    let payload = Bytes.create len in
    if read_exact fd payload 0 len then Some payload else None
  end

module Decoder = struct
  (* Valid bytes live in [pos, limit) of [data]; feeding compacts or grows
     as needed, popping a frame just advances [pos].  [limit_] caps the
     announced frame size: the length prefix is validated as soon as the
     4 header bytes are buffered — before any frame-sized allocation — so
     a corrupt or adversarial prefix can never make the decoder (or its
     caller) reserve more than [limit_] bytes. *)
  type t = {
    mutable data : bytes;
    mutable pos : int;
    mutable limit : int;
    limit_ : int;
  }

  let create ?(max_frame = max_frame) () =
    { data = Bytes.create 4096; pos = 0; limit = 0; limit_ = max_frame }

  let buffered t = t.limit - t.pos

  (* Raise on a bad prefix the moment the header is complete, even if the
     caller never asks for the next frame. *)
  let validate_head t =
    if buffered t >= 4 then
      check_len ~limit:t.limit_ (Int32.to_int (Bytes.get_int32_be t.data t.pos))

  let feed t b len =
    let used = buffered t in
    if t.limit + len > Bytes.length t.data then begin
      let need = used + len in
      let cap = max need (2 * Bytes.length t.data) in
      let data = if need > Bytes.length t.data then Bytes.create cap else t.data in
      Bytes.blit t.data t.pos data 0 used;
      t.data <- data;
      t.pos <- 0;
      t.limit <- used
    end;
    Bytes.blit b 0 t.data t.limit len;
    t.limit <- t.limit + len;
    validate_head t

  let next t =
    if buffered t < 4 then None
    else begin
      let len = Int32.to_int (Bytes.get_int32_be t.data t.pos) in
      check_len ~limit:t.limit_ len;
      if buffered t < 4 + len then None
      else begin
        let payload = Bytes.sub t.data (t.pos + 4) len in
        t.pos <- t.pos + 4 + len;
        if t.pos = t.limit then begin
          t.pos <- 0;
          t.limit <- 0
        end;
        Some payload
      end
    end
end

module Writer = struct
  (* [off] bytes of the head frame have reached the kernel; [bytes]
     counts the queued frames whole, the head's included. *)
  type t = { q : bytes Queue.t; mutable off : int; mutable bytes : int }

  let create () = { q = Queue.create (); off = 0; bytes = 0 }

  let push t payload =
    let f = frame payload in
    Queue.push f t.q;
    t.bytes <- t.bytes + Bytes.length f

  let pending t = not (Queue.is_empty t.q)
  let bytes t = t.bytes
  let rewind t = t.off <- 0

  let flush t fd =
    try
      while pending t do
        let head = Queue.peek t.q in
        let len = Bytes.length head in
        t.off <- t.off + Unix.write fd head t.off (len - t.off);
        if t.off = len then begin
          ignore (Queue.pop t.q);
          t.off <- 0;
          t.bytes <- t.bytes - len
        end
      done
    with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
end

exception Decode_error of string

let () =
  Printexc.register_printer (function
    | Decode_error m -> Some (Printf.sprintf "net: decode error: %s" m)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

type 'a codec = {
  enc : Buffer.t -> 'a -> unit;
  dec : bytes -> pos:int -> len:int -> 'a;
}

module W = struct
  let u8 buf n = Buffer.add_char buf (Char.unsafe_chr (n land 0xff))

  (* LEB128 over the int's 63-bit pattern ([lsr] is unsigned): any OCaml
     int round-trips, small non-negative ones in one byte, negative ones
     in nine.  The protocol fields this format carries (pids, steps,
     slots, ballots, sequence numbers) are all non-negative. *)
  let rec varint buf n =
    if n land lnot 0x7f = 0 then u8 buf n
    else begin
      u8 buf ((n land 0x7f) lor 0x80);
      varint buf (n lsr 7)
    end

  let string buf s =
    varint buf (String.length s);
    Buffer.add_string buf s

  let bytes buf b =
    varint buf (Bytes.length b);
    Buffer.add_bytes buf b

  let list w buf l =
    varint buf (List.length l);
    List.iter (w buf) l

  let option w buf = function
    | None -> u8 buf 0
    | Some v ->
      u8 buf 1;
      w buf v

  let pair wa wb buf (a, b) =
    wa buf a;
    wb buf b
end

module R = struct
  (* A read cursor over one frame: [pos, limit) of [buf] is unread. *)
  type t = { buf : bytes; mutable pos : int; limit : int }

  let make buf ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length buf then
      fail "bad slice (pos %d len %d of %d)" pos len (Bytes.length buf);
    { buf; pos; limit = pos + len }

  let remaining r = r.limit - r.pos

  let u8 r =
    if r.pos >= r.limit then fail "truncated frame";
    let c = Char.code (Bytes.unsafe_get r.buf r.pos) in
    r.pos <- r.pos + 1;
    c

  (* Top-level recursion: a local [let rec] over [r] would allocate a
     closure per varint read, several per decoded command. *)
  let rec varint_from r shift acc =
    if shift > 62 then fail "varint too long";
    let b = u8 r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_from r (shift + 7) acc

  (* A one-byte varint, the common case, is read without the loop. *)
  let varint r =
    let pos = r.pos in
    let b =
      if pos < r.limit then Char.code (Bytes.unsafe_get r.buf pos) else 0x80
    in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else varint_from r 0 0

  let take r n =
    if n < 0 || remaining r < n then fail "truncated frame (want %d bytes)" n;
    let b = Bytes.sub r.buf r.pos n in
    r.pos <- r.pos + n;
    b

  let string r = Bytes.unsafe_to_string (take r (varint r))
  let bytes r = take r (varint r)
  let tail r = take r (remaining r)

  let list rd r =
    let n = varint r in
    if n < 0 || n > remaining r then fail "bad list length %d" n;
    List.init n (fun _ -> rd r)

  let option rd r =
    match u8 r with
    | 0 -> None
    | 1 -> Some (rd r)
    | t -> fail "bad option tag %d" t

  let pair ra rb r =
    let a = ra r in
    let b = rb r in
    (a, b)

  let expect_end r =
    if remaining r <> 0 then fail "%d trailing bytes" (remaining r)
end

let codec ~write ~read =
  {
    enc = write;
    dec =
      (fun b ~pos ~len ->
        let r = R.make b ~pos ~len in
        let v = read r in
        R.expect_end r;
        v);
  }

let varint_c = codec ~write:W.varint ~read:R.varint

(* A slice that is a one-byte length prefix followed by exactly that many
   bytes — a value under 128 bytes alone in its slice, as a nested
   payload is — is read with one copy [sub] and no cursor.  Any other
   slice takes the cursor path, with its checks and messages. *)
let length_prefixed ~write ~read sub =
  let c = codec ~write ~read in
  let dec b ~pos ~len =
    if
      pos >= 0 && len >= 1 && len <= 128
      && pos <= Bytes.length b - len
      && Char.code (Bytes.unsafe_get b pos) = len - 1
    then sub b (pos + 1) (len - 1)
    else c.dec b ~pos ~len
  in
  { c with dec }

let string_c = length_prefixed ~write:W.string ~read:R.string Bytes.sub_string
let bytes_c = length_prefixed ~write:W.bytes ~read:R.bytes Bytes.sub

let to_bytes c v =
  let buf = Buffer.create 256 in
  c.enc buf v;
  Buffer.to_bytes buf

let of_bytes c b = c.dec b ~pos:0 ~len:(Bytes.length b)

(* A length-prefixed embedding of one codec inside another stream — how a
   generic ['c] payload travels mid-frame (codecs are otherwise only
   self-delimiting at the tail of a frame).  The value is written through
   the scratch [tmp] first, since its length goes in front of it. *)
let write_nested_via tmp c buf v =
  Buffer.clear tmp;
  c.enc tmp v;
  W.varint buf (Buffer.length tmp);
  Buffer.add_buffer buf tmp

let write_nested c buf v = write_nested_via (Buffer.create 64) c buf v

let read_nested c (r : R.t) =
  let n = R.varint r in
  if n < 0 || R.remaining r < n then fail "truncated nested value";
  let v = c.dec r.R.buf ~pos:r.R.pos ~len:n in
  r.R.pos <- r.R.pos + n;
  v

type 'msg envelope = {
  env_src : Sim.Pid.t;
  env_sent_at : int;
  env_vc : int list option;
  env_msg : 'msg;
}

(* Envelope frame, version 1:
     u8      version (= 1)
     varint  src
     varint  sent_at
     u8      vc present (0 | 1); if 1: varint count, count * varint
     payload (rest of the frame, via the message codec)
   The version byte is first so a frame from a future layout fails loudly
   here instead of being misread. *)
let envelope_version = 1

let encode_envelope_into c buf e =
  W.u8 buf envelope_version;
  W.varint buf e.env_src;
  W.varint buf e.env_sent_at;
  W.option (W.list W.varint) buf e.env_vc;
  c.enc buf e.env_msg

let decode_envelope_with c b =
  let r = R.make b ~pos:0 ~len:(Bytes.length b) in
  let v = R.u8 r in
  if v <> envelope_version then
    fail "envelope version %d (this build speaks %d)" v envelope_version;
  let env_src = R.varint r in
  let env_sent_at = R.varint r in
  let env_vc = R.option (R.list R.varint) r in
  let env_msg = c.dec r.R.buf ~pos:r.R.pos ~len:(R.remaining r) in
  { env_src; env_sent_at; env_vc; env_msg }

let magic = "weakest-fd-net/1"

(* Hello and hello-ack: the magic string, then the pid as a varint.  Read
   with [R], so a malformed frame is an [Error], never a crash. *)
let handshake_c =
  codec ~write:(W.pair W.string W.varint) ~read:(R.pair R.string R.varint)

let parse_handshake ~magic ~what b =
  match of_bytes handshake_c b with
  | m, pid when m = magic -> Ok pid
  | m, _ -> Error (Printf.sprintf "net: bad %s magic %S" what m)
  | exception Decode_error e ->
    Error (Printf.sprintf "net: undecodable %s frame: %s" what e)

let hello ~self = to_bytes handshake_c (magic, self)
let parse_hello = parse_handshake ~magic ~what:"hello"
let ack_magic = "weakest-fd-net-ack/1"
let hello_ack ~self = to_bytes handshake_c (ack_magic, self)
let parse_hello_ack = parse_handshake ~magic:ack_magic ~what:"hello-ack"
