(* JSON values, one reader and one writer. The repository has no JSON
   dependency by design: every report it emits is built as a [t] and
   printed here, and tools read the repository's own outputs back with
   [parse]. Every number is a float (exact for the integer counters the
   reports hold, up to 2^53). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------- writer ---------- *)

let int i = Num (float_of_int i)

(* The value "%.kf" prints, as the float a reader parses it back to. *)
let fixed k f = Num (float_of_string (Printf.sprintf "%.*f" k f))

let option f = function None -> Null | Some x -> f x
let of_counts kvs = Obj (List.map (fun (k, v) -> (k, int v)) kvs)

let add_number b f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Json: non-finite number %h" f)
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    Buffer.add_string b (go 15)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_compact b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> add_number b f
  | Str s -> add_string b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        add_compact b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        add_compact b v)
      kvs;
    Buffer.add_char b '}'

let compact v =
  let b = Buffer.create 256 in
  add_compact b v;
  Buffer.contents b

(* A non-empty list of objects or lists prints one element per line when
   it is the document or one of the top-level object's members. *)
let add_rows b ind v =
  match v with
  | List (_ :: _ as l)
    when List.for_all (function Obj _ | List _ -> true | _ -> false) l ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b ind;
        Buffer.add_string b "  ";
        add_compact b v)
      l;
    Buffer.add_char b '\n';
    Buffer.add_string b ind;
    Buffer.add_char b ']'
  | v -> add_compact b v

let pretty v =
  let b = Buffer.create 4096 in
  (match v with
  | Obj (_ :: _ as kvs) ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b "  ";
        add_string b k;
        Buffer.add_string b ": ";
        add_rows b "  " v)
      kvs;
    Buffer.add_string b "\n}"
  | v -> add_rows b "" v);
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- reader: RFC 8259, recursive descent ---------- *)

exception Err of int * string

let fail pos msg = raise (Err (pos, msg))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let l = String.length word in
  if st.pos + l <= String.length st.s && String.sub st.s st.pos l = word then begin
    st.pos <- st.pos + l;
    value
  end
  else fail st.pos ("expected " ^ word)

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st.pos "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
      if st.pos >= String.length st.s then fail st.pos "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        if st.pos + 4 > String.length st.s then fail st.pos "short \\u escape";
        let code = ref 0 in
        for i = 0 to 3 do
          let d = hex_digit st.s.[st.pos + i] in
          if d < 0 then fail (st.pos + i) "bad \\u escape";
          code := (!code lsl 4) lor d
        done;
        st.pos <- st.pos + 4;
        let code = !code in
        (* Encode the code point as UTF-8; surrogate pairs are passed
           through as two 3-byte sequences (adequate for our own files,
           which never emit them). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> fail (st.pos - 1) "bad escape");
      go ())
    | c when Char.code c < 0x20 -> fail (st.pos - 1) "raw control character in string"
    | c -> Buffer.add_char buf c; go ()
  in
  go ()

(* int = "0" / [1-9] *DIGIT; frac = "." 1*DIGIT; exp = e [+-] 1*DIGIT *)
let parse_number st =
  let start = st.pos in
  let adv () = st.pos <- st.pos + 1 in
  let digits () =
    let from = st.pos in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do adv () done;
    if st.pos = from then fail st.pos "expected digit"
  in
  if peek st = Some '-' then adv ();
  (match peek st with
  | Some '0' -> adv ()
  | _ -> digits ());
  if peek st = Some '.' then begin adv (); digits () end;
  (match peek st with
  | Some ('e' | 'E') ->
    adv ();
    (match peek st with Some ('+' | '-') -> adv () | _ -> ());
    digits ()
  | _ -> ());
  float_of_string (String.sub st.s start (st.pos - start))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin st.pos <- st.pos + 1; Obj [] end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; members ((key, v) :: acc)
        | Some '}' -> st.pos <- st.pos + 1; Obj (List.rev ((key, v) :: acc))
        | _ -> fail st.pos "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin st.pos <- st.pos + 1; List [] end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; elems (v :: acc)
        | Some ']' -> st.pos <- st.pos + 1; List (List.rev (v :: acc))
        | _ -> fail st.pos "expected ',' or ']'"
      in
      elems []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st.pos (Printf.sprintf "unexpected '%c'" c)

let parse_at s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (st.pos, "trailing data") else Ok v
  | exception Err (pos, msg) -> Error (pos, msg)

let parse s =
  Result.map_error
    (fun (pos, msg) -> Printf.sprintf "%s at offset %d" msg pos)
    (parse_at s)

let parse_exn s =
  match parse s with Ok v -> v | Error e -> failwith ("Json.parse: " ^ e)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_int = function Num f -> Some (int_of_float f) | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* ---------- exact comparison ---------- *)

let summary = function
  | Obj kvs -> Printf.sprintf "{%d keys}" (List.length kvs)
  | List l -> Printf.sprintf "[%d items]" (List.length l)
  | v -> compact v

let diff a b =
  let out = ref [] in
  let note path x y =
    let side = Option.fold ~none:"(absent)" ~some:summary in
    let path = if path = "" then "(document)" else path in
    out := Printf.sprintf "%s: %s -> %s" path (side x) (side y) :: !out
  in
  let key path k = if path = "" then k else path ^ "." ^ k in
  let rec go path a b =
    match (a, b) with
    | Obj xs, Obj ys ->
      List.iter
        (fun (k, x) ->
          match List.assoc_opt k ys with
          | Some y -> go (key path k) x y
          | None -> note (key path k) (Some x) None)
        xs;
      List.iter
        (fun (k, y) ->
          if not (List.mem_assoc k xs) then note (key path k) None (Some y))
        ys
    | List xs, List ys ->
      let rec items i xs ys =
        let path = Printf.sprintf "%s[%d]" path i in
        match (xs, ys) with
        | [], [] -> ()
        | x :: xs, y :: ys -> go path x y; items (i + 1) xs ys
        | x :: xs, [] -> note path (Some x) None; items (i + 1) xs []
        | [], y :: ys -> note path None (Some y); items (i + 1) [] ys
      in
      items 0 xs ys
    | _ -> if a <> b then note path (Some a) (Some b)
  in
  go "" a b;
  List.rev !out
