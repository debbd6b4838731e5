(* Lowercase hex, table-driven both ways: encoding reads each byte's two
   digits from one 512-character table, decoding each digit's value from
   one 256-entry table (-1 marks a non-digit). *)

let digits =
  String.init 512 (fun i ->
      let c = i lsr 1 in
      "0123456789abcdef".[if i land 1 = 0 then c lsr 4 else c land 0xF])

let encode s =
  let len = String.length s in
  let out = Bytes.create (2 * len) in
  for i = 0 to len - 1 do
    let c = 2 * Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get digits c);
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get digits (c + 1))
  done;
  Bytes.unsafe_to_string out

let encode_bytes b = encode (Bytes.unsafe_to_string b)

let values =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | 'A' .. 'F' -> c - Char.code 'A' + 10
      | _ -> -1)

let decode s =
  let l = String.length s in
  if l land 1 <> 0 then invalid_arg "Hex.decode: odd length";
  let out = Bytes.create (l / 2) in
  for i = 0 to (l / 2) - 1 do
    let hi = values.(Char.code s.[2 * i]) and lo = values.(Char.code s.[(2 * i) + 1]) in
    if hi < 0 || lo < 0 then invalid_arg "Hex.decode: not a hex digit";
    Bytes.unsafe_set out i (Char.unsafe_chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string out
