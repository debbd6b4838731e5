(* Unit and property tests for repro_util. *)

open Repro_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.next64 a) in
  let ys = List.init 16 (fun _ -> Rng.next64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* A copy is a second state buffer: drawing from either never moves the
   other, and both walk the same stream. *)
let test_rng_copy_independent () =
  let a = Rng.create 5 in
  ignore (Rng.bits a);
  let b = Rng.copy a in
  let from_b = List.init 8 (fun _ -> Rng.bits b) in
  let from_a = List.init 13 (fun _ -> Rng.bits a) in
  Alcotest.(check (list int)) "b's draws left a where the copy was taken"
    from_b (List.filteri (fun i _ -> i < 8) from_a);
  Alcotest.(check (list int)) "a's draws left b where it stopped"
    (List.filteri (fun i _ -> i >= 8) from_a)
    (List.init 5 (fun _ -> Rng.bits b));
  let c = Rng.copy b in
  ignore (Rng.of_label c "child");
  ignore (Rng.split b);
  Alcotest.(check bool) "split advanced b only" true (Rng.bits c <> Rng.bits b)

(* Draws step the state buffer in place: no allocation per draw. *)
let test_rng_draws_allocation_free () =
  let r = Rng.create 3 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 7 + (Rng.bits r land 1) + if Rng.bool r then 1 else 0
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "drew something" true (!acc > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words allocated by 30k draws" (w1 -. w0))
    true
    (w1 -. w0 < 64.)

(* Folding labels in place equals [of_label]; integer labels fold their
   decimal digits without building the string. *)
let test_rng_label_in_place () =
  let g = Rng.create 11 in
  List.iter
    (fun i ->
      let buf = Bytes.create 16 in
      Rng.state_into g buf 8;
      Rng.label_int_at buf 8 i;
      Rng.label_at buf 8 "-x";
      let want = Rng.of_label g (string_of_int i ^ "-x") in
      Alcotest.(check int)
        (Printf.sprintf "label %d" i)
        (Rng.bits want) (Rng.bits_at buf 8))
    [ 0; 1; 9; 10; 99; 100; 12345; (1 lsl 31) - 1; max_int ]

let test_rng_label_stable () =
  let a = Rng.create 9 in
  let x = Rng.next64 (Rng.of_label a "alpha") in
  let y = Rng.next64 (Rng.of_label a "alpha") in
  let z = Rng.next64 (Rng.of_label a "beta") in
  Alcotest.(check int64) "same label same stream" x y;
  Alcotest.(check bool) "different label differs" true (x <> z)

let test_rng_subset () =
  let rng = Rng.create 3 in
  let s = Rng.subset rng ~n:50 ~size:10 in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check bool) "sorted distinct" true
    (List.sort_uniq compare s = s);
  List.iter (fun i -> Alcotest.(check bool) "range" true (i >= 0 && i < 50)) s

let test_encode_roundtrip () =
  let data =
    Encode.to_bytes (fun b ->
        Encode.varint b 0;
        Encode.varint b 127;
        Encode.varint b 128;
        Encode.varint b 300000;
        Encode.bool b true;
        Encode.string b "hello";
        Encode.list b Encode.varint [ 1; 2; 3 ];
        Encode.option b Encode.string None;
        Encode.option b Encode.string (Some "x"))
  in
  let parsed =
    Encode.decode data (fun src ->
        let a = Encode.r_varint src in
        let b = Encode.r_varint src in
        let c = Encode.r_varint src in
        let d = Encode.r_varint src in
        let e = Encode.r_bool src in
        let f = Encode.r_string src in
        let g = Encode.r_list src Encode.r_varint in
        let h = Encode.r_option src Encode.r_string in
        let i = Encode.r_option src Encode.r_string in
        (a, b, c, d, e, f, g, h, i))
  in
  match parsed with
  | Some (0, 127, 128, 300000, true, "hello", [ 1; 2; 3 ], None, Some "x") -> ()
  | _ -> Alcotest.fail "roundtrip mismatch"

(* [Encode.to_bytes] writes into reused scratch buffers; each case
   compares against the same encoder run on a fresh [Buffer]. *)
let fresh_encode f =
  let b = Buffer.create 16 in
  f b;
  Buffer.to_bytes b

let test_encode_scratch_nested () =
  let inner b =
    Encode.string b "inner";
    Encode.varint b 300
  in
  let outer enc b =
    Encode.varint b 1;
    Encode.bytes b (enc inner);
    Encode.string b "mid";
    Encode.bytes b (enc (fun b -> Encode.bytes b (enc inner)));
    Encode.u8 b 7
  in
  Alcotest.(check bytes) "nested encodes" (fresh_encode (outer fresh_encode))
    (Encode.to_bytes (outer Encode.to_bytes))

let test_encode_scratch_exception () =
  ignore (Encode.to_bytes (fun b -> Encode.u8 b 1));
  let free = Encode.scratch_free () in
  (match Encode.to_bytes (fun b -> Encode.string b "partial"; failwith "boom") with
  | _ -> Alcotest.fail "no exception"
  | exception Failure _ -> ());
  Alcotest.(check int) "buffer returned" free (Encode.scratch_free ());
  let f b = Encode.string b "next" in
  Alcotest.(check bytes) "next encode is clean" (fresh_encode f) (Encode.to_bytes f)

let test_encode_scratch_cap () =
  ignore (Encode.to_bytes (fun b -> Encode.u8 b 1));
  let free = Encode.scratch_free () in
  Alcotest.(check bool) "a buffer is kept" true (free >= 1);
  let big = Bytes.make (Encode.scratch_cap + 1) 'x' in
  let f b = Encode.bytes b big in
  Alcotest.(check bytes) "big encode" (fresh_encode f) (Encode.to_bytes f);
  Alcotest.(check int) "grown buffer dropped" (free - 1) (Encode.scratch_free ());
  ignore (Encode.to_bytes (fun b -> Encode.u8 b 1));
  Alcotest.(check int) "a small encode returns its buffer" (free - 1) (Encode.scratch_free ())

(* Random encoder programs, from empty to past the scratch cap, each
   encoded right after the previous one so every scratch buffer is
   reused with whatever it held. *)
let test_encode_scratch_equal () =
  let rng = Rng.create 11 in
  let op () =
    match Rng.int rng 6 with
    | 0 ->
      let v = Rng.int rng 1_000_000 in
      fun b -> Encode.varint b v
    | 1 ->
      let s = Bytes.to_string (Rng.bytes rng (Rng.int rng 40)) in
      fun b -> Encode.string b s
    | 2 ->
      let len = if Rng.int rng 20 = 0 then 70_000 + Rng.int rng 70_000 else Rng.int rng 600 in
      let p = Rng.bytes rng len in
      fun b -> Encode.bytes b p
    | 3 ->
      let l = List.init (Rng.int rng 5) (fun _ -> Rng.int rng 1000) in
      fun b -> Encode.list b Encode.varint l
    | 4 ->
      let v = if Rng.bool rng then Some (Rng.bytes rng 9) else None in
      fun b -> Encode.option b Encode.bytes v
    | _ ->
      let s = Bytes.to_string (Rng.bytes rng 5) in
      fun b -> Encode.bytes b (Encode.to_bytes (fun b -> Encode.string b s))
  in
  for k = 0 to 199 do
    let ops = List.init (Rng.int rng 12) (fun _ -> op ()) in
    let ops =
      if k = 100 then (fun b -> Encode.bytes_raw b (Bytes.make (Encode.scratch_cap + 5) 'y')) :: ops
      else ops
    in
    let f b = List.iter (fun o -> o b) ops in
    Alcotest.(check bytes) (Printf.sprintf "program %d" k) (fresh_encode f) (Encode.to_bytes f)
  done

let test_encode_malformed () =
  (* truncated input must yield None, not raise *)
  let data = Encode.to_bytes (fun b -> Encode.string b "hello") in
  let truncated = Bytes.sub data 0 (Bytes.length data - 2) in
  Alcotest.(check bool) "truncated rejected" true
    (Encode.decode truncated Encode.r_string = None);
  (* trailing garbage rejected *)
  let padded = Bytes.cat data (Bytes.of_string "!") in
  Alcotest.(check bool) "trailing rejected" true
    (Encode.decode padded Encode.r_string = None)

let test_encode_implausible_list () =
  (* a huge length prefix with no data must be rejected promptly *)
  let data = Encode.to_bytes (fun b -> Encode.varint b 1000000) in
  Alcotest.(check bool) "bogus list rejected" true
    (Encode.decode data (fun src -> Encode.r_list src Encode.r_u8) = None)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let data = Encode.to_bytes (fun b -> Encode.varint b v) in
      Encode.decode data Encode.r_varint = Some v)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:200 QCheck.string (fun s ->
      let data = Encode.to_bytes (fun b -> Encode.bytes b (Bytes.of_string s)) in
      Encode.decode data Encode.r_bytes = Some (Bytes.of_string s))

let test_mathx () =
  Alcotest.(check int) "ceil_div" 3 (Mathx.ceil_div 7 3);
  Alcotest.(check int) "ceil_div exact" 2 (Mathx.ceil_div 6 3);
  Alcotest.(check int) "log2_ceil 1" 0 (Mathx.log2_ceil 1);
  Alcotest.(check int) "log2_ceil 8" 3 (Mathx.log2_ceil 8);
  Alcotest.(check int) "log2_ceil 9" 4 (Mathx.log2_ceil 9);
  Alcotest.(check int) "log2_floor 9" 3 (Mathx.log2_floor 9);
  Alcotest.(check int) "pow_int" 243 (Mathx.pow_int 3 5);
  Alcotest.(check int) "isqrt" 31 (Mathx.isqrt 1000);
  Alcotest.(check int) "isqrt exact" 32 (Mathx.isqrt 1024)

let prop_isqrt =
  QCheck.Test.make ~name:"isqrt bounds" ~count:500
    QCheck.(int_bound 10_000_000)
    (fun n ->
      let r = Mathx.isqrt n in
      r * r <= n && (r + 1) * (r + 1) > n)

let test_loglog_slope () =
  (* y = x^2 should fit slope ~2 *)
  let pts = List.init 10 (fun i -> let x = float_of_int (i + 2) in (x, x ** 2.0)) in
  let s = Mathx.loglog_slope pts in
  Alcotest.(check bool) "slope ~2" true (abs_float (s -. 2.0) < 0.01)

let test_bitset () =
  let b = Bitset.create 100 in
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem" false (Bitset.mem b 50);
  Bitset.clear b 63;
  Alcotest.(check int) "after clear" 2 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Bitset.to_list b);
  Bitset.reset b;
  Alcotest.(check int) "after reset" 0 (Bitset.cardinal b)

let test_bitset_encode () =
  let b = Bitset.of_list 100 [ 1; 17; 63; 64; 99 ] in
  let data = Encode.to_bytes (fun sink -> Bitset.encode sink b) in
  (* header + 13 bytes payload *)
  Alcotest.(check bool) "size ~ n/8" true (Bytes.length data <= 16);
  match Encode.decode data Bitset.decode with
  | Some b' -> Alcotest.(check (list int)) "roundtrip" (Bitset.to_list b) (Bitset.to_list b')
  | None -> Alcotest.fail "decode failed"

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset roundtrip" ~count:200
    QCheck.(list (int_bound 199))
    (fun items ->
      let b = Bitset.of_list 200 items in
      let data = Encode.to_bytes (fun sink -> Bitset.encode sink b) in
      match Encode.decode data Bitset.decode with
      | Some b' -> Bitset.to_list b = Bitset.to_list b'
      | None -> false)

let test_json_parse () =
  match Json.parse {| {"a": 1, "b": [true, null, "x\u00e9\n"], "c": -2.5e2} |} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check bool) "int member" true
      (Option.bind (Json.member "a" v) Json.to_int = Some 1);
    (match Option.bind (Json.member "b" v) Json.to_list with
    | Some [ t; nul; s ] ->
      Alcotest.(check bool) "bool" true (Json.to_bool t = Some true);
      Alcotest.(check bool) "null" true (nul = Json.Null);
      Alcotest.(check bool) "string escapes decode" true
        (Json.to_string s = Some "x\xc3\xa9\n")
    | _ -> Alcotest.fail "array shape");
    Alcotest.(check bool) "scientific number" true
      (Option.bind (Json.member "c" v) Json.to_float = Some (-250.0));
    Alcotest.(check bool) "missing member is None" true
      (Json.member "zz" v = None);
    List.iter
      (fun (s, f) ->
        Alcotest.(check bool) ("number " ^ s) true (Json.parse s = Ok (Json.Num f)))
      [ ("0", 0.); ("-0", -0.); ("10", 10.); ("0.5", 0.5); ("1e5", 1e5);
        ("1E+5", 1e5); ("-2.5e-3", -2.5e-3) ]

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ s)
      | Error e -> Alcotest.(check bool) "error has text" true (e <> ""))
    [
      ""; "{"; "{} extra"; "[1,]"; "tru"; "{\"a\"}"; "\"\\q\"";
      (* RFC 8259 forbids these; python3 -m json.tool rejects them too *)
      "01"; "-01"; "[00]"; "1."; "1.e5"; "-"; "1e"; ".5"; "\"\\u12_4\"";
      "\"a\tb\""; "\"\x01\""; "\"\n\"";
    ]

let test_tablefmt () =
  let t =
    Tablefmt.create ~title:"t" ~headers:[ "a"; "b" ]
      ~aligns:[ Tablefmt.Left; Tablefmt.Right ]
  in
  Tablefmt.add_row t [ "x"; "1" ];
  Tablefmt.add_row t [ "longer"; "22" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 4 = "== t")

let test_ascii_plot () =
  let s =
    Ascii_plot.render ~width:40 ~height:8 ~title:"t" ~x_label:"n" ~y_label:"b"
      [
        Ascii_plot.make_series ~glyph:'*' ~label:"lin"
          [ (64., 64.); (128., 128.); (256., 256.) ];
        Ascii_plot.make_series ~glyph:'o' ~label:"flat"
          [ (64., 100.); (128., 100.); (256., 100.) ];
      ]
  in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "has glyphs" true
    (String.contains s '*' && String.contains s 'o');
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has legend" true (contains_sub s "lin")

let test_ascii_plot_empty () =
  let s = Ascii_plot.render ~title:"empty" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "graceful" true (String.length s > 0)

(* Buffers alike in length and in their first and last 8 bytes share a
   memo fingerprint; each must still decode to its own value, copies
   included. *)
let test_memo_decode_same_fingerprint () =
  let mk mid = Bytes.of_string ("headhead" ^ mid ^ "tailtail") in
  let decoded = ref 0 in
  let dec =
    Encode.memo_decode (fun src ->
        incr decoded;
        Encode.r_bytes_raw src (Encode.remaining src))
  in
  let a = mk "aaaa" and b = mk "bbbb" and c = mk "cccc" in
  List.iter
    (fun buf -> Alcotest.(check (option bytes)) "own value" (Some buf) (dec buf))
    [ a; b; c; Bytes.copy b; a; Bytes.copy c ];
  (* Interleaved copies of the three contents, each copy looked up more
     than once: first as a new buffer, then as an alias of its content. *)
  let copies = List.concat_map (fun x -> [ (x, Bytes.copy x); (x, Bytes.copy x) ]) [ a; b; c ] in
  let interleaved =
    List.filteri (fun i _ -> i mod 2 = 0) copies @ List.filteri (fun i _ -> i mod 2 = 1) copies
  in
  List.iter
    (fun (content, buf) ->
      let v = dec buf in
      Alcotest.(check (option bytes)) "own value" (Some content) v;
      Alcotest.(check bool) "copies share one value" true (v == dec content))
    (interleaved @ List.rev interleaved @ interleaved);
  Alcotest.(check int) "decoded once per distinct content" 3 !decoded

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "memo decode same fingerprint" `Quick
      test_memo_decode_same_fingerprint;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng label" `Quick test_rng_label_stable;
    Alcotest.test_case "rng copy independent" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng draws allocation-free" `Quick
      test_rng_draws_allocation_free;
    Alcotest.test_case "rng label folded in place" `Quick test_rng_label_in_place;
    Alcotest.test_case "rng subset" `Quick test_rng_subset;
    Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
    Alcotest.test_case "encode malformed" `Quick test_encode_malformed;
    Alcotest.test_case "encode scratch nested" `Quick test_encode_scratch_nested;
    Alcotest.test_case "encode scratch exception" `Quick test_encode_scratch_exception;
    Alcotest.test_case "encode scratch cap" `Quick test_encode_scratch_cap;
    Alcotest.test_case "encode scratch = fresh buffer" `Quick test_encode_scratch_equal;
    Alcotest.test_case "encode implausible list" `Quick test_encode_implausible_list;
    Alcotest.test_case "mathx" `Quick test_mathx;
    Alcotest.test_case "loglog slope" `Quick test_loglog_slope;
    Alcotest.test_case "bitset" `Quick test_bitset;
    Alcotest.test_case "bitset encode" `Quick test_bitset_encode;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json rejects malformed" `Quick
      test_json_rejects_malformed;
    Alcotest.test_case "tablefmt" `Quick test_tablefmt;
    Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
    Alcotest.test_case "ascii plot empty" `Quick test_ascii_plot_empty;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_isqrt;
    QCheck_alcotest.to_alcotest prop_bitset_roundtrip;
  ]
