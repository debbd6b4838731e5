(* Tests for the VRF-based SRDS (registered-PKI + CRS model), its grinding
   attack in the bare-PKI ordering, the Thm. 1.4 inverted-OWF boost attack,
   and the targeted tree-corruption strategies of Def. 3.4's motivation. *)

open Repro_core
module Rng = Repro_util.Rng
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree
module Attacks = Repro_aetree.Attacks

(* --- srds-vrf basic operation --- *)

let vrf_fresh ~n ~seed =
  let rng = Rng.create seed in
  let pp, master = Srds_vrf.setup rng ~n in
  let keys = Array.init n (fun i -> Srds_vrf.keygen pp master rng ~index:i) in
  (pp, keys)

let msg = Bytes.of_string "vrf-msg"

let aggregate_all pp vks sigs =
  Srds_vrf.aggregate2 pp ~msg (Srds_vrf.aggregate1 pp ~vks ~msg sigs)

let test_vrf_sign_aggregate_verify () =
  let n = 200 in
  let pp, keys = vrf_fresh ~n ~seed:1 in
  let vks = Array.map fst keys in
  let sigs =
    List.filter_map
      (fun i -> Srds_vrf.sign pp (snd keys.(i)) ~index:i ~msg)
      (List.init n (fun i -> i))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sortition selects few (%d)" (List.length sigs))
    true
    (List.length sigs > 0 && List.length sigs < n / 2);
  match aggregate_all pp vks sigs with
  | Some agg ->
    Alcotest.(check bool) "verifies" true (Srds_vrf.verify pp ~vks ~msg agg);
    Alcotest.(check bool) "wrong msg rejected" false
      (Srds_vrf.verify pp ~vks ~msg:(Bytes.of_string "other") agg)
  | None -> Alcotest.fail "aggregation failed"

let test_vrf_non_winner_cannot_sign () =
  let n = 300 in
  let pp, keys = vrf_fresh ~n ~seed:2 in
  let winners =
    List.filter
      (fun i -> Srds_vrf.sign pp (snd keys.(i)) ~index:i ~msg <> None)
      (List.init n (fun i -> i))
  in
  (* deterministic in the key + crs: re-signing gives the same winner set *)
  let winners' =
    List.filter
      (fun i -> Srds_vrf.sign pp (snd keys.(i)) ~index:i ~msg <> None)
      (List.init n (fun i -> i))
  in
  Alcotest.(check (list int)) "stable winner set" winners winners'

let test_vrf_eligibility_is_publicly_checkable () =
  (* a signature from a non-winner key on a "wrong" vrf output must fail *)
  let n = 150 in
  let pp, keys = vrf_fresh ~n ~seed:3 in
  let vks = Array.map fst keys in
  let sigs =
    List.filter_map
      (fun i -> Srds_vrf.sign pp (snd keys.(i)) ~index:i ~msg)
      (List.init n (fun i -> i))
  in
  (* swap two signatures' indices: vrf proof no longer matches the vk *)
  match sigs with
  | a :: _ ->
    let module W = Srds_intf.Wire (Srds_vrf) in
    let bytes_a = W.to_bytes a in
    (* decode and patch the index by re-encoding under a different lo/hi *)
    let tampered =
      match W.of_bytes bytes_a with
      | Some sg ->
        let idx = Srds_vrf.min_index sg in
        let other = (idx + 1) mod n in
        (* rebuild raw: cheapest is to craft bytes with a shifted index *)
        ignore other;
        sg
      | None -> Alcotest.fail "decode"
    in
    ignore tampered;
    (* direct check: verifying entry under someone else's vk fails *)
    let vks_rot = Array.init n (fun i -> vks.((i + 1) mod n)) in
    Alcotest.(check bool) "rotated keys reject" false
      (Srds_vrf.verify_partial pp ~vks:vks_rot ~msg a)
  | [] -> Alcotest.fail "no signatures"

(* --- the grinding attack (paper Sec. 2.2's VRF caveat) --- *)

let test_vrf_grinding_breaks_bare_pki_ordering () =
  (* Bare-PKI ordering: the adversary sees the CRS, then replaces its t
     keys with ground ones that all win the sortition. If t exceeds the
     signer threshold, it forges a majority attestation on any message. *)
  let n = 150 in
  let pp, keys = vrf_fresh ~n ~seed:4 in
  let vks = Array.map fst keys in
  let t = Srds_vrf.threshold pp + 2 in
  Alcotest.(check bool) "attack budget below n/3" true (3 * t < n);
  let rng = Rng.create 5 in
  let ground =
    List.init t (fun k ->
        match Srds_vrf.grind_key pp rng with
        | Some (vk, sk) -> (k, vk, sk)
        | None -> Alcotest.fail "grinding failed")
  in
  (* replace the corrupt parties' registered keys (bare-PKI power) *)
  List.iter (fun (k, vk, _) -> vks.(k) <- vk) ground;
  let m' = Bytes.of_string "forged-message" in
  let forged_sigs =
    List.filter_map (fun (k, _, sk) -> Srds_vrf.sign pp sk ~index:k ~msg:m') ground
  in
  Alcotest.(check int) "all ground keys win sortition" t (List.length forged_sigs);
  (match
     Srds_vrf.aggregate2 pp ~msg:m' (Srds_vrf.aggregate1 pp ~vks ~msg:m' forged_sigs)
   with
  | Some forged ->
    Alcotest.(check bool) "FORGERY ACCEPTED under key-after-CRS ordering" true
      (Srds_vrf.verify pp ~vks ~msg:m' forged)
  | None -> Alcotest.fail "forged aggregation failed");
  (* registered-PKI ordering: keys fixed before the CRS — the same t
     corrupt parties only get their sortition-given signers *)
  let honest_vks = Array.map fst keys in
  let honest_corrupt_sigs =
    List.filter_map
      (fun k -> Srds_vrf.sign pp (snd keys.(k)) ~index:k ~msg:m')
      (List.init t (fun k -> k))
  in
  Alcotest.(check bool)
    (Printf.sprintf "registered ordering: only %d of %d corrupt can sign"
       (List.length honest_corrupt_sigs) t)
    true
    (List.length honest_corrupt_sigs < Srds_vrf.threshold pp);
  match
    Srds_vrf.aggregate2 pp ~msg:m'
      (Srds_vrf.aggregate1 pp ~vks:honest_vks ~msg:m' honest_corrupt_sigs)
  with
  | Some agg ->
    Alcotest.(check bool) "registered ordering: forgery rejected" false
      (Srds_vrf.verify pp ~vks:honest_vks ~msg:m' agg)
  | None -> () (* nothing aggregated at all: also a rejection *)

(* --- Thm 1.4: inverted-OWF boost attack --- *)

module Boost_owf = Boost.Make (Srds_owf)

let test_boost_inverted_owf_breaks_verification () =
  let cfg = { Boost.isolated_fraction = 0.15; degree = 16; seed = 6 } in
  let net () =
    Repro_net.Network.create ~n:150 ~corrupt:(List.init 15 (fun i -> i)) ()
  in
  (* with intact OWF: verification protects everyone *)
  let sound = Boost_owf.run ~net:(net ()) cfg in
  Alcotest.(check (float 0.0001)) "sound: none fooled" 0.0 sound.Boost.fooled_fraction;
  (* with the adversary holding inverted keys: its conflicting certificate
     is VALID, so verification no longer helps *)
  let broken = Boost_owf.run_with_inverted_owf ~net:(net ()) cfg in
  Alcotest.(check bool)
    (Printf.sprintf "inverted OWF: %.2f fooled" broken.Boost.fooled_fraction)
    true
    (broken.Boost.fooled_fraction > 0.5)

(* --- targeted tree corruption (Def. 3.4 motivation) --- *)

let test_kill_leaves_beats_random () =
  let n = 512 in
  let params = Params.default n in
  let tree = Tree.random params (Rng.create 7) in
  let budget = n / 8 in
  let rng = Rng.create 8 in
  let random = Attacks.measure tree ~strategy:Attacks.Random ~budget ~rng in
  let targeted = Attacks.measure tree ~strategy:Attacks.Kill_leaves ~budget ~rng in
  (* the informed attack kills strictly more leaves than random corruption *)
  Alcotest.(check bool)
    (Printf.sprintf "targeted (%.3f) kills more leaves than random (%.3f)"
       targeted.Attacks.d_good_leaf_fraction random.Attacks.d_good_leaf_fraction)
    true
    (targeted.Attacks.d_good_leaf_fraction < random.Attacks.d_good_leaf_fraction)

let test_repeated_parties_defend () =
  (* same kill-leaves budget, z = 1 vs default z: the repeated-parties
     assignment keeps (many more) parties connected *)
  let n = 512 in
  let lg = max 2 (Repro_util.Mathx.log2_ceil n) in
  let p_z1 =
    Params.make ~n ~z:1 ~leaf_size:(3 * lg) ~committee_size:(max 8 (3 * lg))
      ~branching:(max 2 lg)
  in
  let p_z = Params.default n in
  let t_z1 = Tree.random p_z1 (Rng.create 9) in
  let t_z = Tree.random p_z (Rng.create 9) in
  let budget = n / 8 in
  let d_z1 = Attacks.measure t_z1 ~strategy:Attacks.Kill_leaves ~budget ~rng:(Rng.create 10) in
  let d_z = Attacks.measure t_z ~strategy:Attacks.Kill_leaves ~budget ~rng:(Rng.create 10) in
  Alcotest.(check bool)
    (Printf.sprintf "z=1 connected %.3f < z=%d connected %.3f"
       d_z1.Attacks.d_connected_fraction p_z.Params.z d_z.Attacks.d_connected_fraction)
    true
    (d_z1.Attacks.d_connected_fraction < d_z.Attacks.d_connected_fraction);
  Alcotest.(check bool) "repeated parties keep most connected" true
    (d_z.Attacks.d_connected_fraction > 0.9)

let test_target_root_budget_respected () =
  let n = 256 in
  let params = Params.default n in
  let tree = Tree.random params (Rng.create 11) in
  List.iter
    (fun budget ->
      let set =
        Attacks.corrupt_set tree ~strategy:Attacks.Target_root ~budget ~rng:(Rng.create 12)
      in
      Alcotest.(check bool) "within budget" true (List.length set <= budget);
      Alcotest.(check bool) "distinct" true (List.sort_uniq compare set = List.sort compare set))
    [ 1; 8; 32; 64 ]

(* --- E14: the full protocol under the informed adversary --- *)

let test_protocol_survives_kill_leaves () =
  let r =
    Repro_core.Runner.run_under_attack ~strategy:Attacks.Kill_leaves ~n:96 ~beta:0.1
      ~seed:25
  in
  Alcotest.(check bool) ("protocol ok: " ^ r.Repro_core.Runner.r_note) true
    r.Repro_core.Runner.r_ok

let suite =
  [
    Alcotest.test_case "vrf sign/aggregate/verify" `Quick test_vrf_sign_aggregate_verify;
    Alcotest.test_case "vrf stable winners" `Quick test_vrf_non_winner_cannot_sign;
    Alcotest.test_case "vrf public eligibility" `Quick test_vrf_eligibility_is_publicly_checkable;
    Alcotest.test_case "vrf grinding attack" `Quick test_vrf_grinding_breaks_bare_pki_ordering;
    Alcotest.test_case "thm1.4 inverted owf" `Quick test_boost_inverted_owf_breaks_verification;
    Alcotest.test_case "kill-leaves beats random" `Quick test_kill_leaves_beats_random;
    Alcotest.test_case "repeated parties defend" `Quick test_repeated_parties_defend;
    Alcotest.test_case "target-root budget" `Quick test_target_root_budget_respected;
    Alcotest.test_case "protocol vs kill-leaves" `Slow test_protocol_survives_kill_leaves;
  ]
