(* Wire format for every message the simulator sends.

   Communication-complexity numbers reported by the benchmarks are the sizes
   of byte strings produced here, so the encoding is kept honest: varints for
   integers, length-prefixed strings, no padding. *)

type sink = Buffer.t

(* [to_bytes] encodes into a scratch buffer taken from a small per-domain
   free-list and copies the result out once, so an encode costs its
   output and not a chain of doubling buffers. A nested [to_bytes] inside
   [f] takes another buffer from the list (or a fresh one); an exception
   in [f] still returns the buffer. A buffer that grew past
   [scratch_cap] is dropped rather than kept, so one huge message does
   not pin its memory for the rest of the run. *)
let scratch_cap = 1 lsl 20
let scratch_keep = 4

let scratch : Buffer.t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let scratch_free () = List.length !(Domain.DLS.get scratch)

let release free b =
  if Buffer.length b <= scratch_cap && List.compare_length_with !free scratch_keep < 0 then begin
    Buffer.clear b;
    free := b :: !free
  end

let to_bytes f =
  let free = Domain.DLS.get scratch in
  let b =
    match !free with
    | b :: rest ->
      free := rest;
      b
    | [] -> Buffer.create 256
  in
  match f b with
  | () ->
    let out = Buffer.to_bytes b in
    release free b;
    out
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    release free b;
    Printexc.raise_with_backtrace e bt

let u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Encode.u8";
  Buffer.add_char b (Char.chr v)

(* LEB128-style varint; values are non-negative. *)
let varint b v =
  if v < 0 then invalid_arg "Encode.varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

let bool b v = u8 b (if v then 1 else 0)

let bytes_raw b s = Buffer.add_bytes b s

let bytes b s =
  varint b (Bytes.length s);
  Buffer.add_bytes b s

let string b s =
  varint b (String.length s);
  Buffer.add_string b s

let list b f items =
  varint b (List.length items);
  List.iter (f b) items

let array b f items =
  varint b (Array.length items);
  Array.iter (f b) items

let option b f = function
  | None -> u8 b 0
  | Some v ->
    u8 b 1;
    f b v

(* --- Decoding --- *)

exception Malformed of string

type source = { data : bytes; mutable pos : int }

let reader data = { data; pos = 0 }

let remaining src = Bytes.length src.data - src.pos

let fail what = raise (Malformed what)

let r_u8 src =
  if src.pos >= Bytes.length src.data then fail "u8: out of data";
  let v = Char.code (Bytes.get src.data src.pos) in
  src.pos <- src.pos + 1;
  v

let r_varint src =
  let rec go shift acc =
    (* 8 groups of 7 bits = 56; a 9th group would reach the sign bit *)
    if shift > 56 then fail "varint: too long";
    let c = r_u8 src in
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if acc < 0 then fail "varint: overflow";
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let r_bool src =
  match r_u8 src with
  | 0 -> false
  | 1 -> true
  | _ -> fail "bool"

let r_bytes_raw src len =
  if len < 0 || remaining src < len then fail "bytes_raw: out of data";
  let s = Bytes.sub src.data src.pos len in
  src.pos <- src.pos + len;
  s

let r_bytes src =
  let len = r_varint src in
  r_bytes_raw src len

let r_string src = Bytes.to_string (r_bytes src)

let r_list src f =
  let n = r_varint src in
  if n > remaining src then fail "list: implausible length";
  List.init n (fun _ -> f src)

let r_array src f =
  let n = r_varint src in
  if n > remaining src then fail "array: implausible length";
  Array.init n (fun _ -> f src)

let r_option src f =
  match r_u8 src with
  | 0 -> None
  | 1 -> Some (f src)
  | _ -> fail "option"

let expect_end src = if remaining src <> 0 then fail "trailing bytes"

let decode data f =
  let src = reader data in
  match
    let v = f src in
    expect_end src;
    v
  with
  | v -> Some v
  | exception Malformed _ -> None

(* The network delivers the *same* payload buffer to every recipient of a
   multicast (it never copies), and distinct senders frequently encode the
   very same content (e.g. every committee member forwarding the agreed
   certificate). Hot receive paths therefore decode each *content* once and
   share the result across all recipients and all content-equal copies.

   Decoding is deterministic and results are treated as immutable
   downstream, so sharing never changes behaviour — it collapses the
   decode-copy allocation from O(recipients) to O(distinct contents), and
   as a bonus makes physical-identity grouping (e.g. majority tallying)
   hit for values that arrived via different senders.

   Lookup is content-addressed but cheap: buffers hash by (length, first 8
   bytes, last 8 bytes) — every copy of one certificate shares its length
   and tail, so the head keeps different messages of one size apart.
   Within a bucket, physical identity is tried first, against every
   buffer already seen; only a buffer never seen is compared byte by byte,
   once per distinct content of the bucket, and on a match it becomes an
   alias of that content, so its later deliveries hit by pointer too. The
   cache is unbounded by design — create the closure per protocol phase so
   its lifetime (and what it retains: one decoded value per distinct
   content and one entry per distinct buffer) is bounded by the phase. *)
(* Hit/miss totals are per-closure caches driven by the delivery schedule,
   which is part of the logical run — pool-size independent, so the
   counters register deterministic. *)
let c_memo_hit = Repro_obs.Counters.make "encode.memo_hit"
let c_memo_miss = Repro_obs.Counters.make "encode.memo_miss"

(* Fingerprints are mixed already, so the table hashes them as they are. *)
module Fingerprints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let fingerprint b =
  let len = Bytes.length b in
  if len < 8 then Hashtbl.hash b
  else
    let head = Int64.to_int (Bytes.get_int64_le b 0)
    and tail = Int64.to_int (Bytes.get_int64_le b (len - 8)) in
    let h = (len * 0x2545F491) lxor (head * 0x9E3779B1) lxor (tail * 0x85EBCA77) in
    h lxor (h lsr 29)

(* One distinct content of a bucket: its decoded value, the first
   buffer seen with it and every later buffer found equal to it. *)
type 'a entry = { first : bytes; value : 'a option; mutable aliases : bytes list }

let rec seen data = function
  | [] -> raise Not_found
  | e :: rest -> if e.first == data || List.memq data e.aliases then e.value else seen data rest

let rec same_content data = function
  | [] -> raise Not_found
  | e :: rest ->
    if Bytes.equal e.first data then begin
      e.aliases <- data :: e.aliases;
      e.value
    end
    else same_content data rest

let memo_decode f =
  let cache : 'a entry list Fingerprints.t = Fingerprints.create 64 in
  fun data ->
    let key = fingerprint data in
    let bucket = try Fingerprints.find cache key with Not_found -> [] in
    match try seen data bucket with Not_found -> same_content data bucket with
    | v ->
        Repro_obs.Counters.bump c_memo_hit;
        v
    | exception Not_found ->
        Repro_obs.Counters.bump c_memo_miss;
        let v = decode data f in
        Fingerprints.replace cache key ({ first = data; value = v; aliases = [] } :: bucket);
        v
