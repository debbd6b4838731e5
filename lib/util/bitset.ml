(* Fixed-capacity bitset.

   Used for signer bitmasks in the multisignature baseline (where the Θ(n)
   bitmask is exactly the communication cost the paper's SRDS removes) and
   for corrupt-party sets in the simulator. *)

type t = { len : int; words : int array }

let bits_per_word = 62

let create len =
  if len < 0 then invalid_arg "Bitset.create";
  { len; words = Array.make (Mathx.ceil_div (max 1 len) bits_per_word) 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let clear t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let reset t = Array.fill t.words 0 (Array.length t.words) 0

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount_word w =
  let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
  go 0 w

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let inter a b =
  if a.len <> b.len then invalid_arg "Bitset.inter: length mismatch";
  { len = a.len; words = Array.mapi (fun i w -> w land b.words.(i)) a.words }

let copy t = { len = t.len; words = Array.copy t.words }

let iter f t =
  for i = 0 to t.len - 1 do
    if mem t i then f i
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let of_list len items =
  let t = create len in
  List.iter (fun i -> set t i) items;
  t

(* Serialized size is ceil(len/8) bytes plus a small header: this is the
   honest cost of shipping a signer bitmask. *)
let encode b t =
  Encode.varint b t.len;
  let nbytes = Mathx.ceil_div t.len 8 in
  let packed = Bytes.make nbytes '\000' in
  iter
    (fun i ->
      let cur = Char.code (Bytes.get packed (i / 8)) in
      Bytes.set packed (i / 8) (Char.chr (cur lor (1 lsl (i mod 8)))))
    t;
  Encode.bytes b packed

let decode src =
  let len = Encode.r_varint src in
  let packed = Encode.r_bytes src in
  if Bytes.length packed <> Mathx.ceil_div len 8 then
    raise (Encode.Malformed "bitset length");
  let t = create len in
  for i = 0 to len - 1 do
    if Char.code (Bytes.get packed (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      set t i
  done;
  t
