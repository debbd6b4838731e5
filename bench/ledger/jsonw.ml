(* Writer for [Repro_util.Json.t], the reader's own value type, so every
   document the ledger emits parses back to the value it was built from.
   Floats print in their shortest round-tripping form; objects indent one
   member per line, lists of scalars stay on one line. *)

module Json = Repro_util.Json

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec compact = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f -> number f
  | Json.Str s -> escape s
  | Json.List l -> "[" ^ String.concat "," (List.map compact l) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> escape k ^ ":" ^ compact v) kvs)
    ^ "}"

let scalar = function Json.List _ | Json.Obj _ -> false | _ -> true

let pretty v =
  let b = Buffer.create 4096 in
  let rec go ind v =
    match v with
    | Json.Obj (_ :: _ as kvs) ->
      let ind' = ind ^ "  " in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (ind' ^ escape k ^ ": ");
          go ind' v)
        kvs;
      Buffer.add_string b ("\n" ^ ind ^ "}")
    | Json.List (_ :: _ as l) when not (List.for_all scalar l) ->
      let ind' = ind ^ "  " in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b ind';
          go ind' v)
        l;
      Buffer.add_string b ("\n" ^ ind ^ "]")
    | v -> Buffer.add_string b (compact v)
  in
  go "" v;
  Buffer.add_char b '\n';
  Buffer.contents b
