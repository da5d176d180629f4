(* Consistent-hash ring: every shard id contributes [points] (64) virtual
   points, a key belongs to the shard owning the first point at or after
   the key's position (wrapping).  Positions are FNV-1a/64 computed by
   hand, then MurmurHash3's fmix64 finalizer, so the mapping is a pure
   function of the key bytes — identical across processes, OCaml versions
   and hosts, which is what lets every router and every replica agree on
   the partition without coordination. *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let hash64 s =
  let h = ref fnv_basis in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* Raw FNV-1a leaves keys that differ only in their last bytes
   ("k000000".."k000063") in one narrow arc of the ring; the finalizer's
   avalanche spreads them over all of it. *)
let position s =
  let open Int64 in
  let mix h k = mul (logxor h (shift_right_logical h 33)) k in
  let h = mix (mix (hash64 s) 0xff51afd7ed558ccdL) 0xc4ceb9fe1a85ec53L in
  logxor h (shift_right_logical h 33)

let points = 64

type t = {
  shards : int list;  (* ascending, distinct *)
  ring : (int64 * int) array;  (* (point, shard), ascending unsigned *)
}

let point_of shard i = position (Printf.sprintf "shard-%d/%d" shard i)

let build shards =
  let shards = List.sort_uniq compare shards in
  let ring =
    List.concat_map
      (fun s -> List.init points (fun i -> (point_of s i, s)))
      shards
    |> Array.of_list
  in
  Array.sort
    (fun (a, sa) (b, sb) ->
      match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
    ring;
  { shards; ring }

let create shards =
  if shards = [] then invalid_arg "Ring.create: no shards";
  build shards

let shards t = t.shards

let shard_of t key =
  let h = position key in
  let len = Array.length t.ring in
  (* first point >= h, else wrap to ring.(0) *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.ring.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  snd t.ring.(if !lo = len then 0 else !lo)

let add t s =
  if List.mem s t.shards then t else build (s :: t.shards)

let remove t s =
  let rest = List.filter (fun x -> x <> s) t.shards in
  if rest = [] then invalid_arg "Ring.remove: would empty the ring";
  if List.length rest = List.length t.shards then t
  else build rest
