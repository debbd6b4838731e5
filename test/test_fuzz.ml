(* Fuzz-style robustness tests: every decoder that parses adversarial bytes
   must never raise on arbitrary input — it returns None (or a value that
   re-encodes consistently). Plus a distribution check on the committee
   coin. *)

open Repro_core
module Rng = Repro_util.Rng
module Encode = Repro_util.Encode

let arbitrary_bytes =
  QCheck.Gen.(
    int_range 0 300 >>= fun len ->
    int_range 0 1_000_000 >>= fun seed ->
    return (Rng.bytes (Rng.create seed) len))

let arb_bytes =
  QCheck.make
    ~print:(fun b -> Printf.sprintf "%d bytes" (Bytes.length b))
    arbitrary_bytes

(* Generic decoder fuzz: total function from arbitrary bytes. *)
let decoder_total name decode =
  QCheck.Test.make ~name:(name ^ ": decoder total on junk") ~count:300 arb_bytes
    (fun data ->
      match decode data with
      | _ -> true
      | exception Encode.Malformed _ -> true
      | exception _ -> false)

let fuzz_wots =
  decoder_total "wots" (fun data ->
      ignore (Encode.decode data Repro_crypto.Wots.decode_signature))

let fuzz_mss =
  decoder_total "mss" (fun data -> ignore (Repro_crypto.Mss.signature_of_bytes data))

module W_owf = Srds_intf.Wire (Srds_owf)
module W_snark = Srds_intf.Wire (Srds_snark)
module W_vrf = Srds_intf.Wire (Srds_vrf)
module W_ms = Srds_intf.Wire (Baseline_multisig)

let fuzz_srds_owf = decoder_total "srds-owf" (fun data -> ignore (W_owf.of_bytes data))
let fuzz_srds_snark = decoder_total "srds-snark" (fun data -> ignore (W_snark.of_bytes data))
let fuzz_srds_vrf = decoder_total "srds-vrf" (fun data -> ignore (W_vrf.of_bytes data))
let fuzz_multisig = decoder_total "multisig" (fun data -> ignore (W_ms.of_bytes data))

let fuzz_shamir =
  decoder_total "shamir" (fun data ->
      ignore (Encode.decode data Repro_crypto.Shamir.decode))

let fuzz_bitset =
  decoder_total "bitset" (fun data ->
      ignore (Encode.decode data Repro_util.Bitset.decode))

(* Decoded-then-verified junk must never pass SRDS partial verification
   against a fresh PKI (no accidental acceptance of noise). *)
let junk_never_verifies =
  let rng = Rng.create 1234 in
  let pp, master = Srds_snark.setup rng ~n:64 in
  let keys = Array.init 64 (fun i -> Srds_snark.keygen pp master rng ~index:i) in
  let vks = Array.map fst keys in
  QCheck.Test.make ~name:"srds-snark: junk never verifies" ~count:200 arb_bytes
    (fun data ->
      match W_snark.of_bytes data with
      | Some sg ->
        not (Srds_snark.verify_partial pp ~vks ~msg:(Bytes.of_string "m") sg)
      | None -> true)

(* Coin toss outputs should look uniform: over many committee runs, each of
   the first 16 output bits should be set roughly half the time. *)
let test_coin_distribution () =
  let runs = 40 in
  let bit_counts = Array.make 16 0 in
  for seed = 1 to runs do
    let n = 7 in
    let members = List.init n (fun i -> i) in
    let rng = Rng.create (seed * 101) in
    let shared = Repro_consensus.Coin_toss.shared () in
    let states =
      Array.init n (fun me ->
          Repro_consensus.Coin_toss.create ~shared ~members ~me
            ~rng:(Rng.of_label rng (string_of_int me)))
    in
    let net = Repro_net.Network.create ~n ~corrupt:[] () in
    Repro_net.Engine.run net ~tag:"coin" ~rounds:(Repro_consensus.Coin_toss.rounds ~members)
      ~machines:(fun p -> [ ("c", Repro_consensus.Coin_toss.machine states.(p)) ])
      ();
    match Repro_consensus.Coin_toss.output states.(0) with
    | Some coin ->
      for b = 0 to 15 do
        if Char.code (Bytes.get coin (b / 8)) land (1 lsl (b mod 8)) <> 0 then
          bit_counts.(b) <- bit_counts.(b) + 1
      done
    | None -> Alcotest.fail "no coin"
  done;
  (* each bit within [20%, 80%] of runs — loose bound, catches stuck bits *)
  Array.iteri
    (fun b c ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d count %d/%d" b c runs)
        true
        (c * 5 > runs && c * 5 < 4 * runs))
    bit_counts

(* Serialization round-trips under mutation: flipping any byte of an encoded
   SRDS signature either fails to decode or fails verification. *)
let mutation_rejected =
  let rng = Rng.create 55 in
  let pp, master = Srds_owf.setup rng ~n:100 in
  let keys = Array.init 100 (fun i -> Srds_owf.keygen pp master rng ~index:i) in
  let vks = Array.map fst keys in
  let msg = Bytes.of_string "target" in
  let sigs =
    List.filter_map
      (fun i -> Srds_owf.sign pp (snd keys.(i)) ~index:i ~msg)
      (List.init 100 (fun i -> i))
  in
  let agg =
    Option.get (Srds_owf.aggregate2 pp ~msg (Srds_owf.aggregate1 pp ~vks ~msg sigs))
  in
  let encoded = W_owf.to_bytes agg in
  QCheck.Test.make ~name:"srds-owf: byte flips break the aggregate" ~count:120
    QCheck.(pair (int_bound (Bytes.length encoded - 1)) (int_range 1 255))
    (fun (pos, delta) ->
      let data = Bytes.copy encoded in
      Bytes.set data pos (Char.chr ((Char.code (Bytes.get data pos) + delta) land 0xFF));
      match W_owf.of_bytes data with
      | Some sg ->
        (* either it fails verification or it decodes to the same aggregate
           (e.g. a flip inside an unused varint encoding) *)
        (not (Srds_owf.verify pp ~vks ~msg sg))
        || Bytes.equal (W_owf.to_bytes sg) encoded
      | None -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest fuzz_wots;
    QCheck_alcotest.to_alcotest fuzz_mss;
    QCheck_alcotest.to_alcotest fuzz_srds_owf;
    QCheck_alcotest.to_alcotest fuzz_srds_snark;
    QCheck_alcotest.to_alcotest fuzz_srds_vrf;
    QCheck_alcotest.to_alcotest fuzz_multisig;
    QCheck_alcotest.to_alcotest fuzz_shamir;
    QCheck_alcotest.to_alcotest fuzz_bitset;
    QCheck_alcotest.to_alcotest junk_never_verifies;
    Alcotest.test_case "coin distribution" `Slow test_coin_distribution;
    QCheck_alcotest.to_alcotest mutation_rejected;
  ]
