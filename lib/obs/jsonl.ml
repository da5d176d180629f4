(* Hand-rolled JSON emission: the toolchain has no JSON library and the
   schema is small and flat, so each record is printed directly.  Schema
   reference: docs/OBSERVABILITY.md. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let event_fields (e : Sim.Event.t) =
  let pid =
    match Sim.Event.pid_of e.kind with
    | Some p -> [ ("pid", string_of_int p) ]
    | None -> []
  in
  let extra =
    match e.kind with
    | Send { src; dst } ->
      [ ("src", string_of_int src); ("dst", string_of_int dst) ]
    | Deliver { src; dst; sent_at } ->
      [ ("src", string_of_int src); ("dst", string_of_int dst);
        ("sent_at", string_of_int sent_at) ]
    | Crash _ | Fd_query _ | Input _ -> []
    | Output { info; _ } -> if info = "" then [] else [ ("info", str info) ]
    | Metric { name; value } ->
      [ ("name", str name); ("value", string_of_int value) ]
  in
  let vc =
    match e.vc with
    | Some vc -> [ ("vc", int_list (Sim.Vclock.to_list vc)) ]
    | None -> []
  in
  [ ("type", str "event");
    ("t", string_of_int e.time);
    ("round", string_of_int e.round);
    ("kind", str (Sim.Event.kind_name e.kind)) ]
  @ pid @ extra @ vc

let event_line e = obj (event_fields e)

let meta_line kvs =
  obj (("type", str "meta") :: List.map (fun (k, v) -> (k, str v)) kvs)

let metrics_line rows =
  obj
    [ ("type", str "metrics");
      ("rows", obj (List.map (fun (k, v) -> (k, string_of_int v)) rows)) ]

let profile_line spans =
  obj
    [ ("type", str "profile");
      ( "spans",
        obj
          (List.map
             (fun (name, (r : Profile.row)) ->
               ( name,
                 obj
                   [ ("count", string_of_int r.count);
                     ("total_ns", Int64.to_string r.total_ns) ] ))
             spans) ) ]

let output_collector oc ~meta (c : Collector.t) =
  output_string oc (meta_line meta);
  output_char oc '\n';
  Ring.iter
    (fun e ->
      output_string oc (event_line e);
      output_char oc '\n')
    c.Collector.events;
  output_string oc (metrics_line (Collector.metric_rows c));
  output_char oc '\n';
  output_string oc (profile_line (Profile.snapshot c.Collector.profile));
  output_char oc '\n'

let write_run ~path ~meta c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_collector oc ~meta c)

(* ---- reading ------------------------------------------------------- *)

(* A minimal JSON parser covering exactly what the writer above emits:
   flat objects of strings, integers, integer arrays and one level of
   nested objects.  No dependency added; errors carry an offset. *)

type json =
  | Jstr of string
  | Jint of int64
  | Jarr of json list
  | Jobj of (string * json) list

exception Parse of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digits = String.sub s !pos 4 in
    let hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all hex digits) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ digits)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          let v = hex4 () in
          (* the writer only \u-escapes control characters; decode the
             BMP code point as UTF-8 so foreign files survive too *)
          if v < 0x80 then Buffer.add_char buf (Char.chr v)
          else if v < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (v land 0x3F)))
          end
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match Int64.of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Jobj [] end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Jobj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Jarr [] end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Jarr (List.rev !items)
      end
    | Some ('-' | '0' .. '9') -> Jint (parse_int ())
    | _ -> fail "expected value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v

type record =
  | Meta of (string * string) list
  | Event of Sim.Event.t
  | Metrics of (string * int) list
  | Profile of (string * Profile.row) list

let field fields k = List.assoc_opt k fields

let as_int = function Some (Jint v) -> Some (Int64.to_int v) | _ -> None
let as_str = function Some (Jstr v) -> Some v | _ -> None

let need what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" what)

let ( let* ) r f = Result.bind r f

let kind_of_fields fields kind =
  let int k = need k (as_int (field fields k)) in
  match kind with
  | "send" ->
    let* src = int "src" in
    let* dst = int "dst" in
    Ok (Sim.Event.Send { src; dst })
  | "deliver" ->
    let* src = int "src" in
    let* dst = int "dst" in
    let* sent_at = int "sent_at" in
    Ok (Sim.Event.Deliver { src; dst; sent_at })
  | "crash" ->
    let* pid = int "pid" in
    Ok (Sim.Event.Crash pid)
  | "fd_query" ->
    let* pid = int "pid" in
    Ok (Sim.Event.Fd_query pid)
  | "input" ->
    let* pid = int "pid" in
    Ok (Sim.Event.Input pid)
  | "output" ->
    let* pid = int "pid" in
    let info = Option.value (as_str (field fields "info")) ~default:"" in
    Ok (Sim.Event.Output { pid; info })
  | "metric" ->
    let* name = need "name" (as_str (field fields "name")) in
    let* value = int "value" in
    Ok (Sim.Event.Metric { name; value })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let event_of_fields fields =
  let* time = need "t" (as_int (field fields "t")) in
  let* round = need "round" (as_int (field fields "round")) in
  let* kind_name = need "kind" (as_str (field fields "kind")) in
  let* kind = kind_of_fields fields kind_name in
  let* vc =
    match field fields "vc" with
    | None -> Ok None
    | Some (Jarr items) ->
      let rec ints acc = function
        | [] -> Ok (List.rev acc)
        | Jint v :: rest -> ints (Int64.to_int v :: acc) rest
        | _ -> Error "vc must be an integer array"
      in
      let* l = ints [] items in
      Ok (Some (Sim.Vclock.of_list l))
    | Some _ -> Error "vc must be an integer array"
  in
  Ok { Sim.Event.time; round; vc; kind }

let record_of_line line =
  match parse_json line with
  | exception Parse msg -> Error msg
  | Jobj fields -> (
    let* ty = need "type" (as_str (field fields "type")) in
    match ty with
    | "event" -> Result.map (fun e -> Event e) (event_of_fields fields)
    | "meta" ->
      let rec kvs acc = function
        | [] -> Ok (Meta (List.rev acc))
        | ("type", _) :: rest -> kvs acc rest
        | (k, Jstr v) :: rest -> kvs ((k, v) :: acc) rest
        | (k, _) :: _ -> Error (Printf.sprintf "meta field %S not a string" k)
      in
      kvs [] fields
    | "metrics" -> (
      match field fields "rows" with
      | Some (Jobj rows) ->
        let rec ints acc = function
          | [] -> Ok (Metrics (List.rev acc))
          | (k, Jint v) :: rest -> ints ((k, Int64.to_int v) :: acc) rest
          | (k, _) :: _ ->
            Error (Printf.sprintf "metric row %S not an integer" k)
        in
        ints [] rows
      | _ -> Error "metrics record without rows object")
    | "profile" -> (
      match field fields "spans" with
      | Some (Jobj spans) ->
        let rec rows acc = function
          | [] -> Ok (Profile (List.rev acc))
          | (name, Jobj r) :: rest ->
            let* count = need "count" (as_int (field r "count")) in
            let* total_ns =
              match field r "total_ns" with
              | Some (Jint v) -> Ok v
              | Some (Jstr v) -> need "total_ns" (Int64.of_string_opt v)
              | _ -> Error "total_ns missing"
            in
            rows ((name, { Profile.count; total_ns }) :: acc) rest
          | (name, _) :: _ ->
            Error (Printf.sprintf "span %S not an object" name)
        in
        rows [] spans
      | _ -> Error "profile record without spans object")
    | ty -> Error (Printf.sprintf "unknown record type %S" ty))
  | _ -> Error "record is not a JSON object"

let of_channel ic =
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | "" -> go (lineno + 1) acc
    | line -> (
      match record_of_line line with
      | Ok r -> go (lineno + 1) (r :: acc)
      | Error msg -> failwith (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 []

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> of_channel ic)

let events records =
  List.filter_map (function Event e -> Some e | _ -> None) records

