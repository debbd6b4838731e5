(* Tests for the remaining core plumbing: the virtual-ID map (Fig. 3's
   idmap), the scheme registry, and cross-scheme wire-size properties. *)

open Repro_core
module Rng = Repro_util.Rng
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree

let test_virtual_ids_contiguity () =
  let params = Params.default 100 in
  let tree = Tree.random params (Rng.create 1) in
  let vid = Virtual_ids.of_tree tree in
  Alcotest.(check bool) "leaf contiguity" true (Virtual_ids.leaf_contiguous vid);
  Alcotest.(check int) "num virtual" params.Params.num_slots (Virtual_ids.num_virtual vid)

let test_virtual_ids_idmap_owner () =
  let params = Params.default 64 in
  let tree = Tree.random params (Rng.create 2) in
  let vid = Virtual_ids.of_tree tree in
  for p = 0 to 63 do
    List.iteri
      (fun j slot ->
        Alcotest.(check int) "idmap matches copies" slot (Virtual_ids.idmap vid ~party:p ~copy:j);
        Alcotest.(check int) "owner inverse" p (Virtual_ids.owner vid ~virtual_id:slot);
        Alcotest.(check int) "leaf_of consistent"
          (Params.leaf_of_slot params slot)
          (Virtual_ids.leaf_of vid ~virtual_id:slot))
      (Virtual_ids.copies vid ~party:p)
  done

let test_virtual_ids_out_of_range () =
  let params = Params.default 64 in
  let tree = Tree.random params (Rng.create 3) in
  let vid = Virtual_ids.of_tree tree in
  Alcotest.check_raises "bad copy"
    (Invalid_argument "Virtual_ids.idmap: copy out of range") (fun () ->
      ignore (Virtual_ids.idmap vid ~party:0 ~copy:10000))

let test_schemes_registry () =
  List.iter
    (fun (name, expected) ->
      match Schemes.by_name name with
      | Some (Schemes.Packed (module S)) ->
        Alcotest.(check string) ("registry " ^ name) expected S.name
      | None -> Alcotest.fail ("missing scheme " ^ name))
    [
      ("owf", "srds-owf");
      ("srds-owf", "srds-owf");
      ("snark", "srds-snark");
      ("ablated", "srds-snark-ablated");
    ];
  Alcotest.(check bool) "unknown scheme" true (Schemes.by_name "nope" = None);
  Alcotest.(check int) "three production schemes" 3 (List.length Schemes.all)

let test_wots_cache_consistency () =
  (* cached and uncached verification must agree, including on negatives *)
  Repro_crypto.Wots.clear_cache ();
  let d = Repro_crypto.Hashx.hash_string ~tag:"t" "m" in
  let d' = Repro_crypto.Hashx.hash_string ~tag:"t" "m2" in
  let vk, sk = Repro_crypto.Wots.keygen (Bytes.of_string "cache-test") in
  let sg = Repro_crypto.Wots.sign sk d in
  for _ = 1 to 3 do
    Alcotest.(check bool) "positive" true (Repro_crypto.Wots.verify vk d sg);
    Alcotest.(check bool) "negative" false (Repro_crypto.Wots.verify vk d' sg)
  done;
  Alcotest.(check bool) "matches uncached+" (Repro_crypto.Wots.verify_uncached vk d sg)
    (Repro_crypto.Wots.verify vk d sg);
  Alcotest.(check bool) "matches uncached-" (Repro_crypto.Wots.verify_uncached vk d' sg)
    (Repro_crypto.Wots.verify vk d' sg)

(* Cross-scheme: both real SRDS schemes produce polylog-size aggregates
   while the multisig baseline's grows linearly. *)
let agg_size (type pp sk sg) (module S : Srds_intf.SCHEME
                               with type pp = pp and type sk = sk and type signature = sg) n =
  let module W = Srds_intf.Wire (S) in
  let rng = Rng.create 4 in
  let pp, master = S.setup rng ~n in
  let keys = Array.init n (fun i -> S.keygen pp master rng ~index:i) in
  let vks = Array.map fst keys in
  let msg = Bytes.of_string "size" in
  let sigs =
    List.filter_map (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg) (List.init n (fun i -> i))
  in
  match S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg sigs) with
  | Some sg -> W.size sg
  | None -> Alcotest.fail "aggregation failed"

let test_certificate_growth_shapes () =
  Repro_crypto.Wots.clear_cache ();
  let snark_small = agg_size (module Srds_snark) 128 in
  let snark_big = agg_size (module Srds_snark) 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "snark flat: %d -> %d" snark_small snark_big)
    true
    (snark_big <= snark_small + 8);
  let ms_small = agg_size (module Baseline_multisig) 128 in
  let ms_big = agg_size (module Baseline_multisig) 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "multisig linear: %d -> %d" ms_small ms_big)
    true
    (ms_big > 4 * ms_small)

let test_runner_protocol_names_roundtrip () =
  List.iter
    (fun p ->
      match Runner.protocol_of_name (Runner.protocol_name p) with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.fail "name roundtrip")
    Runner.all_protocols

let test_sweep_slopes_sane () =
  (* cheap sanity on the fitted exponents using the light baselines *)
  match
    Runner.sweep_rows ~ns:[ 64; 128; 256; 512 ] ~beta:0.1 ~seed:2
      ~protocols:[ Runner.Naive_boost; Runner.Sqrt_boost ] ()
  with
  | [ s_naive; s_sqrt ] ->
    Alcotest.(check string) "per-protocol order" "naive-flood" s_naive.Runner.s_protocol;
    Alcotest.(check (list int)) "one point per n" [ 64; 128; 256; 512 ]
      (List.map fst s_sqrt.Runner.s_points);
    Alcotest.(check bool)
      (Printf.sprintf "naive ~linear (%.2f)" s_naive.Runner.s_slope_max)
      true
      (s_naive.Runner.s_slope_max > 0.8);
    Alcotest.(check bool)
      (Printf.sprintf "sqrt ~0.5 (%.2f)" s_sqrt.Runner.s_slope_max)
      true
      (s_sqrt.Runner.s_slope_max > 0.3 && s_sqrt.Runner.s_slope_max < 0.75)
  | l -> Alcotest.failf "expected 2 sweeps, got %d" (List.length l)

let test_parallel_determinism () =
  (* The rendered Table 1 must be byte-identical no matter how many domains
     the pool runs (the RNG is threaded per cell / per party, never shared). *)
  let module Parallel = Repro_util.Parallel in
  let render () = (Experiment.table1 ~ns:[ 64 ] ~beta:0.1 ~seed:3 ()).Experiment.text in
  Parallel.set_domains 1;
  let sequential = render () in
  Parallel.set_domains 4;
  let parallel = render () in
  Parallel.set_domains 1;
  Alcotest.(check string) "1 domain = 4 domains" sequential parallel

let suite =
  [
    Alcotest.test_case "virtual ids contiguity" `Quick test_virtual_ids_contiguity;
    Alcotest.test_case "virtual ids idmap" `Quick test_virtual_ids_idmap_owner;
    Alcotest.test_case "virtual ids range" `Quick test_virtual_ids_out_of_range;
    Alcotest.test_case "schemes registry" `Quick test_schemes_registry;
    Alcotest.test_case "wots cache" `Quick test_wots_cache_consistency;
    Alcotest.test_case "certificate shapes" `Slow test_certificate_growth_shapes;
    Alcotest.test_case "runner names" `Quick test_runner_protocol_names_roundtrip;
    Alcotest.test_case "sweep slopes" `Quick test_sweep_slopes_sane;
    Alcotest.test_case "parallel determinism" `Quick test_parallel_determinism;
  ]
