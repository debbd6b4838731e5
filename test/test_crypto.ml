(* Tests for the cryptographic substrate: SHA-256 vectors, HMAC vectors,
   PRF behaviour, commitments, field arithmetic, Shamir sharing. *)

open Repro_crypto

(* --- SHA-256 NIST example vectors --- *)

let check_sha s expected () =
  Alcotest.(check string) "digest" expected (Sha256.hex (Sha256.digest_string s))

let test_sha_empty =
  check_sha "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha_abc =
  check_sha "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha_448 =
  check_sha "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha_896 =
  (* Two-block message: exercises the multi-block compression path. *)
  check_sha
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"

let test_sha_message_digest =
  check_sha "message digest"
    "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650"

let test_sha_alphabet =
  check_sha "abcdefghijklmnopqrstuvwxyz"
    "71c480df93d6ae2f1efad1447c66c9525e316218cf51fc8d9ed832f2daf18b73"

let test_sha_million () =
  Alcotest.(check string) "digest"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.digest_string (String.make 1_000_000 'a')))

let test_sha_streaming () =
  (* Feeding in odd-sized chunks must equal one-shot digest. *)
  let data = Bytes.of_string (String.init 1000 (fun i -> Char.chr (i mod 251))) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let chunks = [ 1; 63; 64; 65; 130; 677 ] in
  List.iter
    (fun len ->
      Sha256.feed ctx data !pos len;
      pos := !pos + len)
    chunks;
  Alcotest.(check string) "streaming = one-shot"
    (Sha256.hex (Sha256.digest data))
    (Sha256.hex (Sha256.finish ctx))

(* --- HMAC-SHA256: RFC 4231 test case 2 --- *)

let test_hmac_rfc4231 () =
  let key = Bytes.of_string "Jefe" in
  let data = Bytes.of_string "what do ya want for nothing?" in
  Alcotest.(check string) "tag"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.hex (Hmac.mac ~key data))

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 case 6). *)
  let key = Bytes.make 131 '\xaa' in
  let data = Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First" in
  Alcotest.(check string) "tag"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.hex (Hmac.mac ~key data))

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let data = Bytes.of_string "payload" in
  let tag = Hmac.mac ~key data in
  Alcotest.(check bool) "verify ok" true (Hmac.verify ~key ~data ~tag);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "verify tampered" false (Hmac.verify ~key ~data ~tag)

(* --- Prepared HMAC: same tags as [mac], through split parts --- *)

let rfc4231_case2 = "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
let rfc4231_case6 = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_hmac_prepared_rfc4231 () =
  let split s cuts =
    let rec go pos = function
      | [] -> [ Bytes.of_string (String.sub s pos (String.length s - pos)) ]
      | c :: rest -> Bytes.of_string (String.sub s pos (c - pos)) :: go c rest
    in
    go 0 cuts
  in
  let case key data cuts expected =
    let parts = split data cuts in
    Alcotest.(check string) "mac_parts, split" expected
      (Sha256.hex (Hmac.mac_parts ~key parts));
    Alcotest.(check string) "mac_prepared, split" expected
      (Sha256.hex (Hmac.mac_prepared (Hmac.prepare key) parts))
  in
  case (Bytes.of_string "Jefe") "what do ya want for nothing?" [ 0; 4; 5; 27 ]
    rfc4231_case2;
  case (Bytes.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First" [ 1; 30; 54 ]
    rfc4231_case6

let prop_hmac_parts_eq_mac =
  QCheck.Test.make ~name:"hmac mac_parts = mac on the concatenation" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 150)) (small_list string))
    (fun (key, parts) ->
      let key = Bytes.of_string key in
      let parts = List.map Bytes.of_string parts in
      let expected = Hmac.mac ~key (Bytes.concat Bytes.empty parts) in
      Bytes.equal expected (Hmac.mac_parts ~key parts)
      && Bytes.equal expected (Hmac.mac_prepared (Hmac.prepare key) parts))

(* --- The SHA-256 kernels and the batched WOTS calls --- *)

(* The padded one-block message for [s] (at most 55 bytes). *)
let one_block s =
  let b = Bytes.make 64 '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  Bytes.set b (String.length s) '\x80';
  Bytes.set_uint16_be b 62 (String.length s * 8);
  b

let iv () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let state_hex h =
  String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))

(* The NIST vectors above only reach the kernel this host selected; run the
   portable one on them too. *)
let test_kernel_portable_vectors () =
  List.iter
    (fun (s, expected) ->
      let h = iv () in
      Sha256.Kernel.portable.compress h (one_block s) 0;
      Alcotest.(check string) s expected (state_hex h))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ];
  Alcotest.check_raises "short state"
    (Invalid_argument "Sha256.Kernel: state or block out of range") (fun () ->
      Sha256.Kernel.portable.compress (Array.make 7 0) (Bytes.create 64) 0);
  Alcotest.check_raises "block past the end"
    (Invalid_argument "Sha256.Kernel: state or block out of range") (fun () ->
      Sha256.Kernel.portable.compress (iv ()) (Bytes.create 64) 1)

(* Hardware and portable kernels agree on random states and blocks. *)
let prop_kernels_agree ?(name = "sha-ni compression = portable compression") hw =
  QCheck.Test.make ~name ~count:2000
    QCheck.(
      triple
        (array_of_size (Gen.return 8) (int_bound 0xFFFF_FFFF))
        (string_of_size (Gen.return 64))
        (int_bound 40))
    (fun (h, block, off) ->
      let b = Bytes.make (off + 64 + 3) '\x5a' in
      Bytes.blit_string block 0 b off 64;
      let h_hw = Array.copy h and h_port = Array.copy h in
      hw h_hw b off;
      Sha256.Kernel.portable.compress h_port b off;
      h_hw = h_port)

let test_kernels_agree () =
  match Sha256.Kernel.sha_ni with
  | None ->
    Printf.printf
      "This CPU has no SHA extensions: only the portable kernel runs here, \
       the differential check is skipped.\n";
    Alcotest.skip ()
  | Some hw ->
    Printf.printf "Kernel in use: %s\n" Sha256.Kernel.name;
    QCheck.Test.check_exn (prop_kernels_agree hw.compress)

(* Its [compress] runs one block on all sixteen lanes: the round function
   on random states, which the batched calls start from midstates. *)
let test_avx512_agrees () =
  match Sha256.Kernel.avx512 with
  | None ->
    Printf.printf
      "This CPU or OS has no AVX-512F: the batched calls run on the single-block \
       kernel, the 16-lane checks are skipped.\n";
    Alcotest.skip ()
  | Some zmm ->
    print_endline "Batched calls run: avx512";
    QCheck.Test.check_exn
      (prop_kernels_agree ~name:"avx512 compression = portable compression" zmm.compress)

(* The WOTS one-way function as documented: step [d] of chain [c] is the
   generic cached hash of [label "c.d"; v]. *)
let generic_step ~chain d v =
  Hashx.hash ~tag:"wots-f" [ Bytes.of_string (Printf.sprintf "%d.%d" chain d); v ]

(* Chain templates built here from that definition, for the raw kernels. *)
let wots_templates =
  Sha256.chain_templates
    (Array.init Wots.num_chains (fun c ->
         Array.init Wots.chain_depth (fun d ->
             Bytes.of_string (Printf.sprintf "\006wots-f%d.%d" c d))))

(* The HMAC pads of [key], as midstates. *)
let hmac_pads key =
  let key = if Bytes.length key > 64 then Sha256.digest key else key in
  let pad byte =
    Sha256.midstate_of_block
      (Bytes.init 64 (fun i ->
           let k = if i < Bytes.length key then Char.code (Bytes.get key i) else 0 in
           Char.chr (k lxor byte)))
  in
  (pad 0x36, pad 0x5C)

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* Every kernel there is, under its name. *)
let kernels =
  ("portable", Sha256.Kernel.portable)
  :: (match Sha256.Kernel.sha_ni with Some k -> [ ("sha-ni", k) ] | None -> [])
  @ match Sha256.Kernel.avx512 with Some k -> [ ("avx512", k) ] | None -> []

(* [sha256.compress] is what the ledger's crypto.sha256_compress and busy
   shares read: each physical compression must count exactly once, whether
   it ran from OCaml glue or inside one C call. *)
let test_compress_counter () =
  let c = Repro_obs.Counters.make "sha256.compress" in
  let was_on = Repro_obs.Counters.is_enabled () in
  Repro_obs.Counters.enable ();
  let delta f =
    let v0 = Repro_obs.Counters.value c in
    f ();
    Repro_obs.Counters.value c - v0
  in
  let n = Wots.num_chains in
  let vals = Bytes.make (16 * n) 'v' in
  let upto = Bytes.init n (fun i -> Char.chr (i mod 3)) in
  let inner, outer = hmac_pads (Bytes.of_string "k") in
  let cases =
    [
      ("walk_chains, 34 steps", 34,
       fun () ->
         ignore
           (Sha256.walk_chains wots_templates ~from:(Bytes.make n '\000') ~upto vals));
      ("nested_into, 3 tails", 6,
       fun () ->
         Sha256.nested_into ~inner ~outer
           (Sha256.tails [| Bytes.empty; Bytes.make 55 't'; Bytes.of_string "x" |])
           (Bytes.create 48));
      ("digest 64 B", 2, fun () -> ignore (Sha256.digest (Bytes.make 64 'x')));
      ("digest 4 KiB", 65, fun () -> ignore (Sha256.digest (Bytes.make 4096 'x')));
      ("midstate_of_block", 1,
       fun () -> ignore (Sha256.midstate_of_block (Bytes.make 64 'x')));
    ]
  in
  let got = List.map (fun (name, _, f) -> (name, delta f)) cases in
  if not was_on then Repro_obs.Counters.disable ();
  Alcotest.(check (list (pair string int))) "compressions counted"
    (List.map (fun (name, n, _) -> (name, n)) cases)
    got

(* Four domains hash the same inputs at once, streaming, through the chain
   walk and through the HMAC tails, on the selected kernels and on every
   kernel; the stubs must share no mutable state, and the kernel choice
   must hold. *)
let test_domains_agree () =
  let rng = Random.State.make [| 15 |] in
  let n = Wots.num_chains in
  let inputs =
    Array.init 1000 (fun _ -> random_bytes rng (Random.State.int rng 700))
  in
  let walks =
    Array.init 200 (fun _ ->
        let from = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 8)) in
        let upto =
          Bytes.map (fun c -> Char.chr (Char.code c + Random.State.int rng 8)) from
        in
        (from, upto, random_bytes rng (16 * n)))
  in
  let inner, outer = hmac_pads (random_bytes rng 32) in
  let tails =
    Sha256.tails (Array.init 300 (fun i -> random_bytes rng (i mod (Sha256.max_short + 1))))
  in
  let hash_all () =
    let streamed =
      Array.map
        (fun b ->
          let len = Bytes.length b in
          let ctx = Sha256.init () in
          let third = len / 3 in
          Sha256.feed ctx b 0 third;
          Sha256.feed ctx b third (len - third);
          Bytes.cat (Sha256.finish ctx) (Sha256.digest b))
        inputs
    in
    let walked =
      Array.map
        (fun (from, upto, vals) ->
          let vals = Bytes.copy vals in
          ignore (Sha256.walk_chains wots_templates ~from ~upto vals);
          vals)
        walks
    in
    let macs = Bytes.create (16 * 300) in
    Sha256.nested_into ~inner ~outer tails macs;
    let per_kernel =
      List.map
        (fun (_, (k : Sha256.Kernel.t)) ->
          let walked =
            Array.map
              (fun (from, upto, vals) ->
                let vals = Bytes.copy vals in
                k.walk_chains wots_templates ~from ~upto vals;
                vals)
              walks
          in
          let macs = Bytes.create (16 * 300) in
          k.nested_into ~inner ~outer tails macs;
          (walked, macs))
        kernels
    in
    (streamed, walked, macs, per_kernel)
  in
  let sequential = hash_all () in
  let results =
    List.map Domain.join (List.init 4 (fun _ -> Domain.spawn hash_all))
  in
  List.iteri
    (fun d r ->
      Alcotest.(check bool) (Printf.sprintf "domain %d = sequential" d) true
        (r = sequential))
    results

let walkers =
  ("Hashx.walk_chains", fun ~from ~upto vals -> Hashx.walk_chains ~from ~upto vals)
  :: List.map
       (fun (name, (k : Sha256.Kernel.t)) -> (name, k.walk_chains wots_templates))
       kernels

(* Every (from, steps) span with from + steps <= 15, 136 of them, at every
   chain: call [k] gives chain [c] span [(c + k) mod 136], so each call
   mixes depths and step counts across chains. *)
let spans =
  Array.of_list
    (List.concat_map
       (fun from -> List.init (Wots.chain_depth - from + 1) (fun steps -> (from, steps)))
       (List.init (Wots.chain_depth + 1) Fun.id))

let test_chain_walk_equals_generic () =
  let n = Wots.num_chains in
  let rng = Random.State.make [| 35 |] in
  List.iter
    (fun (name, walk) ->
      let bad = ref 0 in
      for k = 0 to Array.length spans - 1 do
        let span c = spans.((c + k) mod Array.length spans) in
        let from = Bytes.init n (fun c -> Char.chr (fst (span c))) in
        let upto = Bytes.init n (fun c -> Char.chr (fst (span c) + snd (span c))) in
        let start = random_bytes rng (16 * n) in
        let vals = Bytes.copy start in
        walk ~from ~upto vals;
        for c = 0 to n - 1 do
          let from, steps = span c in
          let v = ref (Bytes.sub start (16 * c) 16) in
          for d = from to from + steps - 1 do
            v := generic_step ~chain:c d !v
          done;
          if not (Bytes.equal !v (Bytes.sub vals (16 * c) 16)) then incr bad
        done
      done;
      Alcotest.(check int) (name ^ ": chains off the definition") 0 !bad)
    walkers

let test_chain_walk_rejects () =
  let n = Wots.num_chains in
  let vals = Bytes.make (16 * n) 'v' in
  let zeros = Bytes.make n '\000' and tops = Bytes.make n '\015' in
  let with_byte b i c =
    let b = Bytes.copy b in
    Bytes.set b i c;
    b
  in
  let sizes = Invalid_argument "Sha256.walk_chains: sizes"
  and depths = Invalid_argument "Sha256.walk_chains: depths" in
  List.iter
    (fun (what, exn, from, upto, vals) ->
      Alcotest.check_raises what exn (fun () ->
          Hashx.walk_chains ~from ~upto vals);
      Alcotest.(check string) (what ^ ": vals untouched")
        (String.make (Bytes.length vals) 'v') (Bytes.to_string vals))
    [
      ("short vals", sizes, zeros, tops, Bytes.make (16 * n - 1) 'v');
      ("long from", sizes, Bytes.make (n + 1) '\000', tops, Bytes.copy vals);
      ("short upto", sizes, zeros, Bytes.make (n - 1) '\015', Bytes.copy vals);
      ("past the top", depths, zeros, with_byte tops 34 '\016', Bytes.copy vals);
      ("from above upto", depths, with_byte zeros 3 '\002',
       with_byte zeros 3 '\001', Bytes.copy vals);
    ];
  Alcotest.check_raises "prefix longer than the slot"
    (Invalid_argument "Sha256.chain_templates: prefix") (fun () ->
      ignore (Sha256.chain_templates [| [| Bytes.make 17 'p' |] |]));
  Alcotest.check_raises "ragged rows"
    (Invalid_argument "Sha256.chain_templates: depth") (fun () ->
      ignore (Sha256.chain_templates [| [| Bytes.empty |]; [||] |]));
  Alcotest.check_raises "tail longer than one block"
    (Invalid_argument "Sha256.tails: message") (fun () ->
      ignore (Sha256.tails [| Bytes.make 56 't' |]));
  let inner, outer = hmac_pads Bytes.empty in
  Alcotest.check_raises "output of the wrong size"
    (Invalid_argument "Sha256.nested_into: output") (fun () ->
      Sha256.nested_into ~inner ~outer (Sha256.tails [| Bytes.empty |])
        (Bytes.create 17))

(* The batched HMAC equals [Hmac.mac_prepared] truncated to 16 bytes, on
   every kernel, for keys of every size class and messages of 0-55 bytes;
   the WOTS chain-start messages are among them. *)
let test_hmac_tails () =
  let rng = Random.State.make [| 55 |] in
  List.iter
    (fun key_len ->
      let key = random_bytes rng key_len in
      let msgs =
        Array.append
          (Array.init (Sha256.max_short + 1) (fun len -> random_bytes rng len))
          (Array.init Wots.num_chains (fun i ->
               Bytes.of_string ("wots-chain" ^ string_of_int i)))
      in
      let tails = Sha256.tails msgs in
      let expected =
        Bytes.concat Bytes.empty
          (Array.to_list
             (Array.map
                (fun m -> Bytes.sub (Hmac.mac_prepared (Hmac.prepare key) [ m ]) 0 16)
                msgs))
      in
      let inner, outer = hmac_pads key in
      let run name f =
        let dst = Bytes.create (16 * Array.length msgs) in
        f dst;
        Alcotest.(check string)
          (Printf.sprintf "%s, %d-byte key" name key_len)
          (Sha256.hex expected) (Sha256.hex dst)
      in
      run "Hmac.mac_tails_into" (Hmac.mac_tails_into (Hmac.prepare key) tails);
      List.iter
        (fun (name, (k : Sha256.Kernel.t)) -> run name (k.nested_into ~inner ~outer tails))
        kernels)
    [ 0; 1; 32; 64; 65; 131 ]

(* One keygen, sign and uncached verify each cost exactly the hashes and
   compressions they did before their chain work became batched C calls,
   and derive the same key (all recorded with the per-step implementation). *)
let test_wots_counts () =
  let module C = Repro_obs.Counters in
  let hashes = C.make "hashx.hash"
  and compressions = C.make "sha256.compress" in
  let was_on = C.is_enabled () in
  C.enable ();
  let delta f =
    let h0 = C.value hashes and c0 = C.value compressions in
    let r = f () in
    (r, (C.value hashes - h0, C.value compressions - c0))
  in
  let digest = Hashx.hash_string ~tag:"probe" "message" in
  let (vk, sk), keygen = delta (fun () -> Wots.keygen (Bytes.of_string "probe-seed")) in
  let sg, sign = delta (fun () -> Wots.sign sk digest) in
  let ok, verify = delta (fun () -> Wots.verify_uncached vk digest sg) in
  if not was_on then C.disable ();
  Alcotest.(check string) "vk" "daadf9a2c01dbbc023fdba9c49b82c1d" (Sha256.hex vk);
  Alcotest.(check bool) "verifies" true ok;
  Alcotest.(check (list (pair string (pair int int))))
    "(hashx.hash, sha256.compress) per operation"
    [ ("keygen", (526, 607)); ("sign", (225, 297)); ("verify", (301, 310)) ]
    [ ("keygen", keygen); ("sign", sign); ("verify", verify) ]

(* --- Every kernel against the portable one, byte for byte ---

   The 16-lane kernel walks 16 chains at a time, longest first, a lane
   taking the next chain when its own ends, and hands the last few to the
   single-block kernel; [Sha256.walk_chains] and [Sha256.nested_into] run
   that mix, and [Sha256.Kernel.avx512] runs every chain on the 16-lane
   kernel. Chain counts straddle the lane count and the 64-chain window,
   ranges include empty and full chains, and prefixes of 0-16 bytes put the
   slot at every offset. *)

let walk_counts = [ 1; 15; 16; 17; 35; 40; 70 ]

(* WOTS-shaped prefixes (slot offsets 10-12) for even counts, random
   prefixes of every length for odd ones. *)
let templates_of_count =
  List.map
    (fun n ->
      let rng = Random.State.make [| n |] in
      let prefix c d =
        if n mod 2 = 0 then Bytes.of_string (Printf.sprintf "\006wots-f%d.%d" c d)
        else random_bytes rng (Random.State.int rng (Sha256.slot + 1))
      in
      (n, Sha256.chain_templates (Array.init n (fun c -> Array.init 15 (prefix c)))))
    walk_counts

let compressions = Repro_obs.Counters.make "sha256.compress"

(* The value of [f ()] and the compressions it counted. *)
let counted f =
  let module C = Repro_obs.Counters in
  let was_on = C.is_enabled () in
  C.enable ();
  let c0 = C.value compressions in
  let r = f () in
  let d = C.value compressions - c0 in
  if not was_on then C.disable ();
  (r, d)

let gen_walk =
  QCheck.Gen.(
    let* n = oneofl walk_counts in
    let span =
      frequency
        [ (1, map (fun f -> (f, f)) (0 -- 15)); (1, return (0, 15));
          (4, 0 -- 15 >>= fun f -> map (fun u -> (f, u)) (f -- 15)) ]
    in
    let* spans = array_size (return n) span in
    let* vals = string_size (return (16 * n)) in
    return (n, spans, vals))

let print_walk (n, spans, _) =
  Printf.sprintf "%d chains: %s" n
    (String.concat " " (Array.to_list (Array.map (fun (f, u) -> Printf.sprintf "%d-%d" f u) spans)))

let prop_walk_kernels =
  QCheck.Test.make ~name:"walk_chains: every kernel = portable, steps counted once" ~count:150
    (QCheck.make ~print:print_walk gen_walk)
    (fun (n, spans, vals) ->
      let t = List.assoc n templates_of_count in
      let from = Bytes.init n (fun c -> Char.chr (fst spans.(c)))
      and upto = Bytes.init n (fun c -> Char.chr (snd spans.(c))) in
      let walk f =
        let v = Bytes.of_string vals in
        f v;
        v
      in
      let expected = walk (Sha256.Kernel.portable.walk_chains t ~from ~upto) in
      let steps = Array.fold_left (fun acc (f, u) -> acc + u - f) 0 spans in
      let (returned, v), counted =
        counted (fun () ->
            let v = Bytes.of_string vals in
            let r = Sha256.walk_chains t ~from ~upto v in
            (r, v))
      in
      List.for_all
        (fun (_, (k : Sha256.Kernel.t)) -> Bytes.equal expected (walk (k.walk_chains t ~from ~upto)))
        kernels
      && Bytes.equal expected v && returned = steps && counted = steps)

let gen_tails =
  QCheck.Gen.(
    let* key = string_size (0 -- 70) in
    let* msgs = array_size (1 -- 40) (string_size (0 -- Sha256.max_short)) in
    return (key, msgs))

let prop_nested_kernels =
  QCheck.Test.make ~name:"nested_into: every kernel = portable, two compressions per tail"
    ~count:150
    (QCheck.make ~print:QCheck.Print.(pair string (array string)) gen_tails)
    (fun (key, msgs) ->
      let inner, outer = hmac_pads (Bytes.of_string key) in
      let tails = Sha256.tails (Array.map Bytes.of_string msgs) in
      let n = Array.length msgs in
      let run f =
        let dst = Bytes.create (16 * n) in
        f dst;
        dst
      in
      let expected = run (Sha256.Kernel.portable.nested_into ~inner ~outer tails) in
      let selected, counted = counted (fun () -> run (Sha256.nested_into ~inner ~outer tails)) in
      List.for_all
        (fun (_, (k : Sha256.Kernel.t)) ->
          Bytes.equal expected (run (k.nested_into ~inner ~outer tails)))
        kernels
      && Bytes.equal expected selected && counted = 2 * n)

(* WOTS keygen, sign and verify composed from one kernel's two calls, as
   [Wots] composes them from the selected kernel's: chain i starts at the
   seed's HMAC of "wots-chain i", truncated; the vk hashes the 35 chain
   ends. The depths a digest signs at are its 32 nibbles, then the 3-nibble
   checksum of their distances to the top. *)
let wots_chunks digest =
  let c = Bytes.create Wots.num_chains and sum = ref 0 in
  for i = 0 to 31 do
    let b = Bytes.get_uint8 digest (i / 2) in
    let x = if i land 1 = 0 then b lsr 4 else b land 0xF in
    Bytes.set_uint8 c i x;
    sum := !sum + Wots.chain_depth - x
  done;
  for i = 0 to 2 do
    Bytes.set_uint8 c (32 + i) ((!sum lsr (4 * i)) land 0xF)
  done;
  c

let wots_through (k : Sha256.Kernel.t) seed digest sg =
  let n = Wots.num_chains in
  let bottoms = Bytes.make n '\000' and tops = Bytes.make n (Char.chr Wots.chain_depth) in
  let starts () =
    let inner, outer = hmac_pads seed in
    let vals = Bytes.create (16 * n) in
    k.nested_into ~inner ~outer
      (Sha256.tails
         (Array.init n (fun i -> Bytes.of_string ("wots-chain" ^ string_of_int i))))
      vals;
    vals
  in
  let vk_of vals = Hashx.hash ~tag:"wots-vk" [ vals ] in
  let keygen = starts () in
  k.walk_chains wots_templates ~from:bottoms ~upto:tops keygen;
  let signed = starts () in
  k.walk_chains wots_templates ~from:bottoms ~upto:(wots_chunks digest) signed;
  let verified = Bytes.concat Bytes.empty (Array.to_list sg) in
  k.walk_chains wots_templates ~from:(wots_chunks digest) ~upto:tops verified;
  (vk_of keygen, signed, vk_of verified)

let prop_wots_kernels =
  QCheck.Test.make ~name:"wots keygen/sign/verify through every kernel = Wots" ~count:40
    QCheck.(pair (string_of_size Gen.(0 -- 70)) (string_of_size (Gen.return 16)))
    (fun (seed, digest) ->
      let seed = Bytes.of_string seed and digest = Bytes.of_string digest in
      let vk, sk = Wots.keygen seed in
      let sg = Wots.sign sk digest in
      Wots.verify_uncached vk digest sg
      && List.for_all
           (fun (_, k) ->
             wots_through k seed digest sg
             = (vk, Bytes.concat Bytes.empty (Array.to_list sg), vk))
           kernels)

(* --- Hashx --- *)

let test_hashx_domain_separation () =
  let d1 = Hashx.hash ~tag:"a" [ Bytes.of_string "x" ] in
  let d2 = Hashx.hash ~tag:"b" [ Bytes.of_string "x" ] in
  Alcotest.(check bool) "tags separate" false (Hashx.equal d1 d2);
  Alcotest.(check int) "kappa size" Hashx.kappa_bytes (Bytes.length d1)

let test_hashx_to_int_nonneg () =
  for i = 0 to 100 do
    let d = Hashx.hash_string ~tag:"t" (string_of_int i) in
    Alcotest.(check bool) "nonneg" true (Hashx.to_int d >= 0)
  done

(* --- PRF --- *)

let test_prf_expand_deterministic () =
  let key = Prf.of_seed (Bytes.of_string "seed") in
  let a = Prf.expand ~key ~label:"l" 100 in
  let b = Prf.expand ~key ~label:"l" 100 in
  let c = Prf.expand ~key ~label:"m" 100 in
  Alcotest.(check bytes) "deterministic" a b;
  Alcotest.(check bool) "label separates" true (a <> c);
  Alcotest.(check int) "length" 100 (Bytes.length a)

let test_prf_subset () =
  let key = Prf.of_seed (Bytes.of_string "s") in
  let s = Array.to_list (Prf.subset ~key ~index:5 ~n:100 ~size:10) in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check bool) "no self" false (List.mem 5 s);
  Alcotest.(check bool) "sorted uniq" true (List.sort_uniq compare s = s);
  (* deterministic *)
  Alcotest.(check (list int)) "stable" s
    (Array.to_list (Prf.subset ~key ~index:5 ~n:100 ~size:10))

let test_prf_subset_small_n () =
  let key = Prf.of_seed (Bytes.of_string "s") in
  let s = Prf.subset ~key ~index:1 ~n:3 ~size:5 in
  Alcotest.(check (list int)) "all others" [ 0; 2 ] (Array.to_list s)

(* F_s(i) drawn the plain way — one unprepared HMAC per draw, Hashtbl of
   chosen parties, sort at the end: [Prf.subset], which hashes its draws in
   batches, must match draw for draw. The cases reach n = 4096, sizes up
   to n - 1 (many batches) and indexes past 10^6 (outside [0, n), longer
   messages); the membership test reads the run memo's array. *)
let reference_subset ~key ~index ~n ~size =
  if size >= n then List.init n (fun j -> j) |> List.filter (fun j -> j <> index)
  else begin
    let chosen = Hashtbl.create size in
    let ctr = ref 0 in
    while Hashtbl.length chosen < size do
      let d =
        Prf.eval_parts ~key
          [ Bytes.of_string "subset";
            Bytes.of_string (string_of_int index);
            Bytes.of_string (string_of_int !ctr) ]
      in
      let j = Hashx.to_int d mod n in
      if j <> index && not (Hashtbl.mem chosen j) then Hashtbl.add chosen j ();
      incr ctr
    done;
    Hashtbl.fold (fun j () acc -> j :: acc) chosen [] |> List.sort compare
  end

let prop_prf_subset_reference =
  let gen =
    QCheck.Gen.(
      let* seed = string_size (0 -- 40) in
      let* n = frequency [ (1, 1 -- 64); (1, 65 -- 4096) ] in
      let* size = frequency [ (9, 0 -- (n - 1)); (1, n -- (n + 2)) ] in
      let* index = frequency [ (3, 0 -- (n - 1)); (1, 1_000_001 -- 2_000_000_000) ] in
      return (seed, n, size, index))
  in
  QCheck.Test.make ~name:"prf subset = reference implementation" ~count:200
    (QCheck.make
       ~print:(fun (seed, n, size, index) ->
         Printf.sprintf "seed=%S n=%d size=%d index=%d" seed n size index)
       gen)
    (fun (seed, n, size, index) ->
      let key = Prf.of_seed (Bytes.of_string seed) in
      let expected = reference_subset ~key ~index ~n ~size in
      let memo = Prf.subsets ~n ~size in
      let shared = Prf.subset_of memo ~key ~index in
      Array.to_list (Prf.subset ~key ~index ~n ~size) = expected
      && Array.to_list shared = expected
      && Prf.subset_of memo ~key ~index == shared
      && List.for_all
           (fun j -> Prf.mem shared j = List.mem j expected)
           (List.init (n + 2) (fun j -> j - 1)))

(* Every size at a few small n and keys: the draws that fall past a first
   batch come up often enough here to be checked against the reference
   every run. *)
let test_prf_subset_all_sizes () =
  List.iter
    (fun n ->
      for k = 0 to 15 do
        let key = Prf.of_seed (Bytes.of_string ("sizes" ^ string_of_int k)) in
        let index = k mod n in
        for size = 0 to n - 1 do
          Alcotest.(check (list int))
            (Printf.sprintf "n %d key %d size %d" n k size)
            (reference_subset ~key ~index ~n ~size)
            (Array.to_list (Prf.subset ~key ~index ~n ~size))
        done
      done)
    [ 3; 10; 40; 100 ]

(* --- Commitments --- *)

let test_commit_roundtrip () =
  let rng = Repro_util.Rng.create 11 in
  let c, o = Commit.commit rng (Bytes.of_string "value") in
  Alcotest.(check bool) "verifies" true (Commit.verify c o);
  let o_bad = { o with Commit.value = Bytes.of_string "other" } in
  Alcotest.(check bool) "binding" false (Commit.verify c o_bad)

let test_commit_hiding_shape () =
  (* Different nonces give different commitments to the same value. *)
  let rng = Repro_util.Rng.create 12 in
  let c1, _ = Commit.commit rng (Bytes.of_string "v") in
  let c2, _ = Commit.commit rng (Bytes.of_string "v") in
  Alcotest.(check bool) "distinct" false (Bytes.equal c1 c2)

(* --- Field --- *)

let test_field_basic () =
  let a = Field.of_int 12345 and b = Field.of_int 67890 in
  Alcotest.(check bool) "add comm" true (Field.equal (Field.add a b) (Field.add b a));
  Alcotest.(check bool) "sub inverse" true
    (Field.equal (Field.sub (Field.add a b) b) a);
  Alcotest.(check bool) "mul inv" true
    (Field.equal (Field.mul a (Field.inv a)) Field.one);
  Alcotest.(check bool) "neg" true (Field.equal (Field.add a (Field.neg a)) Field.zero)

let prop_field_distributive =
  QCheck.Test.make ~name:"field distributivity" ~count:300
    QCheck.(triple (int_bound 1000000) (int_bound 1000000) (int_bound 1000000))
    (fun (a, b, c) ->
      let a = Field.of_int a and b = Field.of_int b and c = Field.of_int c in
      Field.equal
        (Field.mul a (Field.add b c))
        (Field.add (Field.mul a b) (Field.mul a c)))

let prop_field_inverse =
  QCheck.Test.make ~name:"field inverse" ~count:300
    QCheck.(int_range 1 1000000000)
    (fun a ->
      let a = Field.of_int a in
      Field.equal a Field.zero
      || Field.equal (Field.mul a (Field.inv a)) Field.one)

(* --- Shamir --- *)

let test_shamir_reconstruct () =
  let rng = Repro_util.Rng.create 5 in
  let secret = Field.of_int 424242 in
  let shares = Shamir.share rng ~secret ~threshold:3 ~num_shares:10 in
  (* any 4 shares reconstruct *)
  let some4 = List.filteri (fun i _ -> i mod 3 = 0) shares in
  Alcotest.(check bool) "enough shares" true (List.length some4 >= 4);
  Alcotest.(check int) "reconstruct" (Field.to_int secret)
    (Field.to_int (Shamir.reconstruct some4))

let test_shamir_hiding () =
  (* t shares of two different secrets: cannot distinguish structurally —
     here we just check t shares do NOT determine the secret: reconstructing
     from t shares (treated as t-1 degree) gives wrong value almost surely *)
  let rng = Repro_util.Rng.create 6 in
  let secret = Field.of_int 99 in
  let shares = Shamir.share rng ~secret ~threshold:3 ~num_shares:10 in
  let only3 = List.filteri (fun i _ -> i < 3) shares in
  let guess = Shamir.reconstruct only3 in
  Alcotest.(check bool) "threshold shares insufficient" true
    (not (Field.equal guess secret))

let prop_shamir_roundtrip =
  QCheck.Test.make ~name:"shamir share/reconstruct" ~count:100
    QCheck.(pair (int_bound 2000000000) (int_range 1 6))
    (fun (s, t) ->
      let rng = Repro_util.Rng.create (s + t) in
      let secret = Field.of_int s in
      let shares = Shamir.share rng ~secret ~threshold:t ~num_shares:(2 * t + 1) in
      Field.equal (Shamir.reconstruct shares) secret)

let test_shamir_share_encode () =
  let rng = Repro_util.Rng.create 8 in
  let shares = Shamir.share rng ~secret:(Field.of_int 7) ~threshold:2 ~num_shares:5 in
  List.iter
    (fun sh ->
      let data = Repro_util.Encode.to_bytes (fun b -> Shamir.encode b sh) in
      match Repro_util.Encode.decode data Shamir.decode with
      | Some sh' ->
        Alcotest.(check bool) "roundtrip" true
          (Field.equal sh.Shamir.x sh'.Shamir.x && Field.equal sh.Shamir.y sh'.Shamir.y)
      | None -> Alcotest.fail "decode")
    shares

(* --- Sortition --- *)

let test_sortition_expected_count () =
  let key = Prf.of_seed (Bytes.of_string "sortition-test") in
  let t = Sortition.create ~key ~n:10000 ~expected:100 in
  let c = Sortition.count_signers t in
  (* 100 expected; allow generous slack *)
  Alcotest.(check bool) (Printf.sprintf "count %d near 100" c) true (c > 50 && c < 170)

let test_sortition_deterministic () =
  let key = Prf.of_seed (Bytes.of_string "k") in
  let t = Sortition.create ~key ~n:1000 ~expected:50 in
  Alcotest.(check (list int)) "stable" (Sortition.signers t) (Sortition.signers t)

(* The coin of party i is PRF_key("sortition" ‖ i) as a fraction below
   expected / n, the key prepared once or not. *)
let test_sortition_definition () =
  let key = Prf.of_seed (Bytes.of_string "sortition-def") in
  let n = 1032 and expected = 84 in
  let t = Sortition.create ~key ~n ~expected in
  let scale = 1 lsl 30 in
  let coin i =
    let d =
      Prf.eval_parts ~key [ Bytes.of_string "sortition"; Bytes.of_string (string_of_int i) ]
    in
    Hashx.to_int d mod scale * n < expected * scale
  in
  Alcotest.(check (list int)) "signers"
    (List.filter coin (List.init n Fun.id))
    (Sortition.signers t)

let suite =
  [
    Alcotest.test_case "sha256 empty" `Quick test_sha_empty;
    Alcotest.test_case "sha256 abc" `Quick test_sha_abc;
    Alcotest.test_case "sha256 448-bit" `Quick test_sha_448;
    Alcotest.test_case "sha256 896-bit" `Quick test_sha_896;
    Alcotest.test_case "sha256 message-digest" `Quick test_sha_message_digest;
    Alcotest.test_case "sha256 alphabet" `Quick test_sha_alphabet;
    Alcotest.test_case "sha256 million-a" `Slow test_sha_million;
    Alcotest.test_case "sha256 streaming" `Quick test_sha_streaming;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
    Alcotest.test_case "hmac long key" `Quick test_hmac_long_key;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "hmac prepared rfc4231 split parts" `Quick
      test_hmac_prepared_rfc4231;
    QCheck_alcotest.to_alcotest prop_hmac_parts_eq_mac;
    Alcotest.test_case "sha256 portable kernel vectors" `Quick
      test_kernel_portable_vectors;
    Alcotest.test_case "sha256 sha-ni kernel = portable kernel" `Quick
      test_kernels_agree;
    Alcotest.test_case "sha256 avx512 kernel = portable kernel" `Quick
      test_avx512_agrees;
    Alcotest.test_case "sha256 compress counter contract" `Quick
      test_compress_counter;
    Alcotest.test_case "sha256 four domains = sequential" `Quick
      test_domains_agree;
    Alcotest.test_case "wots chain walk = generic wots-f loop, every chain and span, every kernel" `Quick
      test_chain_walk_equals_generic;
    Alcotest.test_case "wots chain walk range checks" `Quick
      test_chain_walk_rejects;
    Alcotest.test_case "hmac tails = mac_prepared truncated, every kernel" `Quick
      test_hmac_tails;
    Alcotest.test_case "wots keygen/sign/verify hash and compression counts" `Quick
      test_wots_counts;
    QCheck_alcotest.to_alcotest prop_walk_kernels;
    QCheck_alcotest.to_alcotest prop_nested_kernels;
    QCheck_alcotest.to_alcotest prop_wots_kernels;
    Alcotest.test_case "hashx domains" `Quick test_hashx_domain_separation;
    Alcotest.test_case "hashx to_int" `Quick test_hashx_to_int_nonneg;
    Alcotest.test_case "prf expand" `Quick test_prf_expand_deterministic;
    Alcotest.test_case "prf subset" `Quick test_prf_subset;
    Alcotest.test_case "prf subset small n" `Quick test_prf_subset_small_n;
    QCheck_alcotest.to_alcotest prop_prf_subset_reference;
    Alcotest.test_case "prf subset = reference at every size" `Quick test_prf_subset_all_sizes;
    Alcotest.test_case "commit roundtrip" `Quick test_commit_roundtrip;
    Alcotest.test_case "commit hiding shape" `Quick test_commit_hiding_shape;
    Alcotest.test_case "field basic" `Quick test_field_basic;
    Alcotest.test_case "shamir reconstruct" `Quick test_shamir_reconstruct;
    Alcotest.test_case "shamir hiding" `Quick test_shamir_hiding;
    Alcotest.test_case "shamir encode" `Quick test_shamir_share_encode;
    Alcotest.test_case "sortition count" `Quick test_sortition_expected_count;
    Alcotest.test_case "sortition deterministic" `Quick test_sortition_deterministic;
    Alcotest.test_case "sortition = its PRF definition" `Quick test_sortition_definition;
    QCheck_alcotest.to_alcotest prop_field_distributive;
    QCheck_alcotest.to_alcotest prop_field_inverse;
    QCheck_alcotest.to_alcotest prop_shamir_roundtrip;
  ]
