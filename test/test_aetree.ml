(* Tests for the almost-everywhere-communication tree substrate: params,
   tree structure (Defs. 2.3 / 3.4), election, and f_ae-comm dissemination. *)

open Repro_aetree
module Network = Repro_net.Network

let corrupt_pred set p = List.mem p set

let random_corrupt rng ~n ~count = Repro_util.Rng.subset rng ~n ~size:count

let test_params_default () =
  let p = Params.default 256 in
  Alcotest.(check bool) "slots cover assignments" true (p.Params.num_slots >= p.Params.n * p.Params.z);
  Alcotest.(check bool) "branching >= 2" true (p.Params.branching >= 2);
  Alcotest.(check bool) "height >= 1" true (p.Params.height >= 1);
  Alcotest.(check int) "root singleton" 1 (Params.nodes_at_level p ~level:p.Params.height)

let test_params_leaf_ranges_partition () =
  let p = Params.default 128 in
  let covered = Array.make p.Params.num_slots false in
  for k = 0 to p.Params.num_leaves - 1 do
    let lo, hi = Params.leaf_slot_range p k in
    for s = lo to hi do
      Alcotest.(check bool) "no overlap" false covered.(s);
      covered.(s) <- true;
      Alcotest.(check int) "leaf_of_slot" k (Params.leaf_of_slot p s)
    done
  done;
  Alcotest.(check bool) "all covered" true (Array.for_all (fun x -> x) covered)

let test_params_polylog_growth () =
  (* leaf_size and committee_size grow much slower than n *)
  let p1 = Params.default 64 and p2 = Params.default 4096 in
  Alcotest.(check bool) "committee polylog" true
    (p2.Params.committee_size < 4 * p1.Params.committee_size);
  Alcotest.(check bool) "far below n" true (p2.Params.committee_size * 10 < 4096)

let test_tree_structure_valid () =
  List.iter
    (fun n ->
      let params = Params.default n in
      let tree = Tree.random params (Repro_util.Rng.create (n + 1)) in
      Alcotest.(check (list string)) (Printf.sprintf "structure n=%d" n) []
        (Tree_check.check_structure tree))
    [ 16; 64; 200; 512 ]

let test_tree_goodness_random_corruption () =
  let n = 512 in
  let params = Params.default n in
  let rng = Repro_util.Rng.create 99 in
  let tree = Tree.random params rng in
  let corrupt_set = random_corrupt rng ~n ~count:(n / 8) in
  let corrupt = corrupt_pred corrupt_set in
  Alcotest.(check (list string)) "goodness holds" [] (Tree_check.check_goodness tree ~corrupt)

let test_tree_range_contiguous () =
  let params = Params.default 128 in
  let tree = Tree.random params (Repro_util.Rng.create 5) in
  (* root covers everything *)
  let lo, hi = Tree.range tree ~level:params.Params.height ~idx:0 in
  Alcotest.(check (pair int int)) "root range" (0, params.Params.num_slots - 1) (lo, hi);
  (* children ranges partition the parent's *)
  for level = params.Params.height downto 2 do
    for idx = 0 to Tree.nodes_at_level tree ~level - 1 do
      let plo, phi = Tree.range tree ~level ~idx in
      let child_ranges =
        List.map (fun c -> Tree.range tree ~level:(level - 1) ~idx:c) (Tree.children tree ~level ~idx)
      in
      let clo = List.fold_left (fun a (l, _) -> min a l) max_int child_ranges in
      let chi = List.fold_left (fun a (_, h) -> max a h) 0 child_ranges in
      Alcotest.(check (pair int int)) "children cover parent" (plo, phi) (clo, chi);
      (* disjoint and ordered *)
      let sorted = List.sort compare child_ranges in
      Alcotest.(check bool) "ordered" true (sorted = child_ranges);
      List.iteri
        (fun i (l, _) ->
          if i > 0 then
            let _, prev_h = List.nth child_ranges (i - 1) in
            Alcotest.(check bool) "disjoint" true (l = prev_h + 1))
        child_ranges
    done
  done

let test_tree_slots_balanced () =
  let params = Params.default 100 in
  let tree = Tree.random params (Repro_util.Rng.create 6) in
  let per = params.Params.num_slots / 100 in
  for p = 0 to 99 do
    let c = List.length (Tree.party_slots tree p) in
    Alcotest.(check bool) "balanced" true (c = per || c = per + 1)
  done

let test_tree_of_seed_deterministic () =
  let params = Params.default 64 in
  let seed = Repro_crypto.Hashx.hash_string ~tag:"t" "seed" in
  let t1 = Tree.of_seed params seed and t2 = Tree.of_seed params seed in
  Alcotest.(check (list int)) "same assignment" (Tree.party_slots t1 0) (Tree.party_slots t2 0);
  Alcotest.(check bool) "same supreme" true
    (Tree.supreme_committee t1 = Tree.supreme_committee t2)

let test_tree_connected_no_corruption () =
  let params = Params.default 128 in
  let tree = Tree.random params (Repro_util.Rng.create 7) in
  let corrupt _ = false in
  Alcotest.(check bool) "all leaves good" true (Tree.good_leaf_fraction tree ~corrupt = 1.0);
  Alcotest.(check bool) "all connected" true (Tree.connected_fraction tree ~corrupt = 1.0)

let test_tree_heavy_corruption_detected () =
  (* Corrupt far beyond n/3: root should be bad for most trees. *)
  let n = 128 in
  let params = Params.default n in
  let rng = Repro_util.Rng.create 8 in
  let tree = Tree.random params rng in
  let corrupt p = p < n / 2 in
  (* at 50% corruption goodness can fail; check the validator reports *)
  let violations = Tree_check.check_goodness tree ~corrupt in
  Alcotest.(check bool) "structure still fine" true (Tree_check.check_structure tree = []);
  (* root good requires < 1/3 corrupt in committee; with 50% corruption this
     usually fails — accept either but the fraction of good leaves must drop *)
  ignore violations;
  Alcotest.(check bool) "good-leaf fraction drops" true
    (Tree.good_leaf_fraction tree ~corrupt < 1.0)

let test_make_custom_tree () =
  let params = Params.default 64 in
  let slot_party = Array.init params.Params.num_slots (fun s -> s mod 64) in
  let tree =
    Tree.make_custom params ~slot_party ~committee_of:(fun ~level:_ ~idx:_ ->
        Array.init (min 64 params.Params.committee_size) (fun i -> i))
  in
  Alcotest.(check (list string)) "structure" [] (Tree_check.check_structure tree);
  Alcotest.(check bool) "committee as chosen" true
    (Tree.supreme_committee tree = Array.init (min 64 params.Params.committee_size) (fun i -> i))

(* --- Election --- *)

let test_election_agreement_no_adversary () =
  let n = 100 in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:[] () in
  let res = Election.run net params ~rng:(Repro_util.Rng.create 42) in
  (* every party adopted the reference seed *)
  Array.iteri
    (fun p s ->
      match s with
      | Some s -> Alcotest.(check bytes) (Printf.sprintf "party %d seed" p) res.Election.seed s
      | None -> Alcotest.fail (Printf.sprintf "party %d has no seed" p))
    res.Election.party_seed;
  Alcotest.(check bool) "rounds polylog" true (res.Election.rounds_used < 40)

let test_election_with_silent_corrupt () =
  let n = 100 in
  let rng = Repro_util.Rng.create 43 in
  let corrupt_set = random_corrupt rng ~n ~count:20 in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:corrupt_set () in
  let res = Election.run net params ~rng in
  (* honest parties still agree on the reference seed *)
  let ok = ref 0 and total = ref 0 in
  Array.iteri
    (fun p s ->
      if not (List.mem p corrupt_set) then begin
        incr total;
        match s with
        | Some s when Bytes.equal s res.Election.seed -> incr ok
        | _ -> ()
      end)
    res.Election.party_seed;
  Alcotest.(check int) "all honest agree" !total !ok

let test_election_communication_polylog () =
  (* Per-party bytes should grow far slower than n. *)
  let run n =
    let params = Params.default n in
    let net = Network.create ~n ~corrupt:[] () in
    ignore (Election.run net params ~rng:(Repro_util.Rng.create 1));
    let r = Repro_net.Metrics.report (Network.metrics net) in
    r.Repro_net.Metrics.max_bytes
  and _ = () in
  let b1 = run 64 and b2 = run 512 in
  (* 8x parties should cost far less than 8x per-party bytes *)
  Alcotest.(check bool)
    (Printf.sprintf "polylog scaling: %d -> %d" b1 b2)
    true
    (b2 < 4 * b1)

(* --- Ae_comm --- *)

let test_aecomm_dissemination_honest () =
  let n = 150 in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:[] () in
  let ae = Ae_comm.establish net params ~rng:(Repro_util.Rng.create 3) in
  let value = Bytes.of_string "agreed-value" in
  let supreme = Tree.supreme_committee (Ae_comm.tree ae) in
  let values p = if Array.exists (fun q -> q = p) supreme then Some value else None in
  let out = Ae_comm.disseminate net ae ~label:"test" ~values in
  Array.iteri
    (fun p v ->
      match v with
      | Some v -> Alcotest.(check bytes) (Printf.sprintf "party %d" p) value v
      | None -> Alcotest.fail (Printf.sprintf "party %d got nothing" p))
    out

let test_aecomm_dissemination_with_corruption () =
  let n = 200 in
  let rng = Repro_util.Rng.create 4 in
  let corrupt_set = random_corrupt rng ~n ~count:(n / 8) in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:corrupt_set () in
  let ae = Ae_comm.establish net params ~rng in
  let tree = Ae_comm.tree ae in
  let corrupt = corrupt_pred corrupt_set in
  let value = Bytes.of_string "v" in
  let supreme = Tree.supreme_committee tree in
  let values p =
    if Array.exists (fun q -> q = p) supreme && not (corrupt p) then Some value else None
  in
  let out = Ae_comm.disseminate net ae ~label:"test2" ~values in
  (* every *connected* honest party must receive the value *)
  let connected_ok = ref true and connected_count = ref 0 in
  Array.iteri
    (fun p v ->
      if (not (corrupt p)) && Tree.party_connected tree ~corrupt p then begin
        incr connected_count;
        match v with
        | Some v when Bytes.equal v value -> ()
        | _ -> connected_ok := false
      end)
    out;
  Alcotest.(check bool) "most honest parties connected" true
    (!connected_count * 10 > 8 * n);
  Alcotest.(check bool) "all connected received" true !connected_ok

let test_aecomm_isolated_definition () =
  let n = 100 in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:[] () in
  let ae = Ae_comm.establish net params ~rng:(Repro_util.Rng.create 5) in
  Alcotest.(check bool) "nobody isolated without corruption" true
    (List.for_all
       (fun p -> not (Ae_comm.isolated ae ~corrupt:(fun _ -> false) p))
       (List.init n (fun p -> p)))

let test_params_paper_profile () =
  (* the published exponents: log^5 leaves, log^3 committees, log^4
     assignments, log branching — constructible and structurally valid
     even though they exceed n at small scale *)
  let n = 64 in
  let p = Params.default ~profile:Params.Paper n in
  let lg = Repro_util.Mathx.log2_ceil n in
  Alcotest.(check int) "leaf = log^5" (Repro_util.Mathx.pow_int lg 5) p.Params.leaf_size;
  Alcotest.(check int) "committee = log^3" (Repro_util.Mathx.pow_int lg 3) p.Params.committee_size;
  Alcotest.(check int) "z = log^4" (Repro_util.Mathx.pow_int lg 4) p.Params.z;
  Alcotest.(check int) "branching = log" lg p.Params.branching;
  let tree = Tree.random p (Repro_util.Rng.create 31) in
  Alcotest.(check (list string)) "paper tree structure" [] (Tree_check.check_structure tree)

let test_election_with_garbage_adversary () =
  (* corrupt parties spray junk under the election tags; honest parties
     must still converge on one seed *)
  let n = 100 in
  let corrupt_set = [ 3; 17; 44; 71; 90 ] in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:corrupt_set () in
  let adversary =
    let arng = Repro_util.Rng.create 77 in
    {
      Repro_net.Network.adv_name = "election-garbage";
      adv_step =
        (fun net ~round:_ ~honest_staged ->
          List.iteri
            (fun k (m : Repro_net.Wire.msg) ->
              if k < 30 then
                List.iter
                  (fun c ->
                    Network.send net ~src:c ~dst:(Repro_util.Rng.int arng n)
                      ~tag:m.Repro_net.Wire.tag
                      (Repro_util.Rng.bytes arng 16))
                  corrupt_set)
            (Views.to_list honest_staged));
    }
  in
  let res = Election.run ~adversary net params ~rng:(Repro_util.Rng.create 78) in
  let ok = ref 0 and total = ref 0 in
  Array.iteri
    (fun p s ->
      if not (List.mem p corrupt_set) then begin
        incr total;
        match s with
        | Some s when Bytes.equal s res.Election.seed -> incr ok
        | _ -> ()
      end)
    res.Election.party_seed;
  Alcotest.(check int) "honest agree on seed" !total !ok

let test_aecomm_equivocating_supreme () =
  (* a corrupt minority of the supreme committee disseminates a conflicting
     value; connected honest parties must adopt the honest majority's value *)
  let n = 150 in
  let params = Params.default n in
  let net = Network.create ~n ~corrupt:[] () in
  let ae = Ae_comm.establish net params ~rng:(Repro_util.Rng.create 41) in
  let tree = Ae_comm.tree ae in
  let supreme = Array.to_list (Tree.supreme_committee tree) in
  let minority = List.filteri (fun i _ -> 4 * i < List.length supreme) supreme in
  let good = Bytes.of_string "good-value" in
  let evil = Bytes.of_string "evil-value" in
  let values p =
    if List.mem p minority then Some evil
    else if List.mem p supreme then Some good
    else None
  in
  let out = Ae_comm.disseminate net ae ~label:"equiv" ~values in
  Array.iteri
    (fun p v ->
      match v with
      | Some v -> Alcotest.(check bytes) (Printf.sprintf "party %d majority" p) good v
      | None -> Alcotest.fail "no value")
    out

(* --- Election and dissemination under attack, pinned ---

   The seeds [Election.run] hands every party and what both f_ae-comm
   disseminations of a Fig. 3 run (a small (y, s) pair, then a large
   certificate that every honest supreme member injects as its own buffer)
   deliver, at n = 40 and 256, against three adversaries: replay chaff,
   equivocation, and a hand-built strategy that speaks in look-alike tags.
   The look-alikes matter because the election parses its tags: today
   "elect/up/02" and "elect/up/0x2" read as level 2, "elect/upx" as
   nothing, and a tag equal to an honest one but held in another string is
   the honest tag. Corrupting parties 0 and 1 puts the forger on every
   relay committee of the leftmost index-tree path, so its forged up, down
   and final messages pass the sender filters. *)

let lookalike_tags tag =
  let fresh = String.init (String.length tag) (String.get tag) in
  match String.split_on_char '/' tag with
  | [ "elect"; "up"; l ] ->
    [ fresh; "elect/up/0" ^ l; "elect/up/0x" ^ l; "elect/up/+" ^ l;
      "elect/up/" ^ l ^ "_"; "elect/upx"; "elect/up/" ^ l ^ "/x" ]
  | _ -> [ fresh; tag ^ "/"; "x" ^ tag; String.uppercase_ascii tag ]

let lookalike ~labels =
  Repro_adversary.Strategy.make ~name:"lookalike-tags" (fun rng env ->
      let open Repro_adversary.Strategy in
      let n = Network.n env.net and v = env.honest_staged in
      let forgers = List.filter (fun c -> c < 2) (Network.corrupt_parties env.net) in
      let others = Network.corrupt_parties env.net in
      (* honest payloads under look-alike tags, and junk under a copy of
         the honest tag *)
      for k = 0 to min 24 (Repro_net.Inbox.length v) - 1 do
        let src = List.nth others (k mod List.length others) in
        let tag = Repro_net.Inbox.tag v k and payload = Repro_net.Inbox.payload v k in
        List.iter
          (fun t ->
            env.emit ~src ~dst:(Repro_net.Inbox.dst v k) ~tag:t payload;
            env.emit ~src ~dst:(Repro_util.Rng.int rng n) ~tag:t (Repro_util.Rng.bytes rng 12))
          (lookalike_tags tag)
      done;
      (* well-formed forgeries to everyone, from the leftmost relays *)
      let coin = Repro_util.Rng.bytes rng Repro_crypto.Hashx.kappa_bytes in
      let up child =
        Repro_util.Encode.to_bytes (fun b ->
            Repro_util.Encode.varint b child;
            Repro_util.Encode.bytes b coin)
      in
      let node level idx value =
        Repro_util.Encode.to_bytes (fun b ->
            Repro_util.Encode.varint b level;
            Repro_util.Encode.varint b idx;
            Repro_util.Encode.bytes b value)
      in
      let forged =
        [ ("elect/up/02", up 0); ("elect/up/0x2", up 0); ("elect/up/3", up 0);
          ("elect/up/99", up 0); ("elect/up/2", up 1_000_000); ("elect/up/-1", up 0);
          ("elect/upx", up 0); ("elect/down", coin); ("elect/final", coin);
          ("elect/down/", coin); ("elect/commit", coin); ("elect/open", coin) ]
        @ List.concat_map
            (fun label ->
              let tag = "aecomm/" ^ label in
              [ (tag, node 2 0 coin); (tag, node 2 1_000_000 coin);
                (tag, node 40 0 coin); (tag, node 1 0 coin);
                (tag, node 1 1_000_000 coin); (tag ^ "x", node 2 0 coin);
                (tag, Repro_util.Rng.bytes rng 9) ])
            labels
      in
      List.iter
        (fun src ->
          for dst = 0 to n - 1 do
            List.iter (fun (tag, payload) -> env.emit ~src ~dst ~tag payload) forged
          done)
        forgers)

let attacked_digest ~n ~strategy =
  let params = Params.default n in
  let rng = Repro_util.Rng.create (1000 + n) in
  let corrupt =
    List.sort_uniq compare
      (0 :: 1 :: Repro_util.Rng.subset rng ~n ~size:(n / 8))
  in
  (* the transcript too: every accepted send and each round's count of
     handlers run, which moves with what the honest parties accept *)
  let ctx = Repro_crypto.Sha256.init () in
  let feed s = Repro_crypto.Sha256.feed ctx (Bytes.unsafe_of_string s) 0 (String.length s) in
  let sink = function
    | Repro_obs.Event.Send { round; src; dst; tag; payload; _ } ->
      feed (Printf.sprintf "%d:%d:%d:%s:%d:" round src dst tag (Bytes.length payload));
      Repro_crypto.Sha256.feed ctx payload 0 (Bytes.length payload)
    | Repro_obs.Event.Round_end { round; scheduled; _ } ->
      feed (Printf.sprintf "end:%d:%d;" round scheduled)
    | _ -> ()
  in
  let net = Network.create ~sinks:[ sink ] ~n ~corrupt () in
  let adversary = Repro_adversary.Strategy.instantiate strategy ~seed:n in
  let res = Election.run ~adversary net params ~rng in
  Network.flush net;
  let ae = Ae_comm.create net (Tree.of_seed params res.Election.seed) in
  let supreme = Tree.supreme_committee (Ae_comm.tree ae) in
  let in_supreme p = Array.exists (fun q -> q = p) supreme in
  let pair = Bytes.of_string "pair:1:coin" in
  let cert = Repro_util.Rng.bytes rng 20_000 in
  let run label value =
    let out =
      Ae_comm.disseminate ~adversary net ae ~label ~values:(fun p ->
          if in_supreme p then Some (Bytes.copy value) else None)
    in
    Network.flush net;
    out
  in
  let d = run "pair" pair in
  let g = run "cert" cert in
  let b = Buffer.create 4096 in
  let opt = function
    | None -> Buffer.add_string b "-;"
    | Some v -> Buffer.add_string b (Repro_crypto.Sha256.hex (Repro_crypto.Sha256.digest v) ^ ";")
  in
  Buffer.add_string b (Printf.sprintf "rounds=%d;" res.Election.rounds_used);
  opt (Some res.Election.seed);
  Array.iter opt res.Election.party_seed;
  Array.iter opt d;
  Array.iter opt g;
  opt (Some (Repro_crypto.Sha256.finish ctx));
  Repro_crypto.Sha256.hex (Repro_crypto.Sha256.digest (Buffer.to_bytes b))

let attacked_pins =
  [ (40, "replay-chaff",
     "6afaa65f2d70f7f9b9a2d1bc07b2f88b3a4be460cc6e7570f523fbbb45496df7");
    (40, "equivocate",
     "d09bd7957b42c58289d16e566ed379279fcfed4c1422100dd55a32c65f455ea5");
    (40, "lookalike-tags",
     "79ba7b269482a02e3125ab1429991658ba75eb9f3ed16a24aa5837abf5a6a6be");
    (256, "replay-chaff",
     "23af997b40628848fb81a9e3bd37d92a79a64013bd2fdbcbe878b2514edf3ecf");
    (256, "equivocate",
     "e5598844d39d1d5fa6c830433938e6fbd79e3da36d66d2bf1a77931df17ece83");
    (256, "lookalike-tags",
     "900be2d50b6e1af6dc656f1112d04e8c0c999a539cd6d4d13a6806e8aad207ad") ]

let test_attacked_digests_pinned () =
  List.iter
    (fun (n, name, expected) ->
      let strategy =
        match name with
        | "replay-chaff" -> Repro_adversary.Strategy.replay_chaff ()
        | "equivocate" -> Repro_adversary.Strategy.equivocate
        | _ -> lookalike ~labels:[ "pair"; "cert" ]
      in
      Alcotest.(check string)
        (Printf.sprintf "n=%d %s" n name)
        expected (attacked_digest ~n ~strategy))
    attacked_pins

let suite =
  [
    Alcotest.test_case "params default" `Quick test_params_default;
    Alcotest.test_case "params leaf ranges" `Quick test_params_leaf_ranges_partition;
    Alcotest.test_case "params polylog" `Quick test_params_polylog_growth;
    Alcotest.test_case "tree structure" `Quick test_tree_structure_valid;
    Alcotest.test_case "tree goodness" `Quick test_tree_goodness_random_corruption;
    Alcotest.test_case "tree ranges" `Quick test_tree_range_contiguous;
    Alcotest.test_case "tree balance" `Quick test_tree_slots_balanced;
    Alcotest.test_case "tree of_seed" `Quick test_tree_of_seed_deterministic;
    Alcotest.test_case "tree connected" `Quick test_tree_connected_no_corruption;
    Alcotest.test_case "tree heavy corruption" `Quick test_tree_heavy_corruption_detected;
    Alcotest.test_case "tree custom" `Quick test_make_custom_tree;
    Alcotest.test_case "election agreement" `Quick test_election_agreement_no_adversary;
    Alcotest.test_case "election corrupt" `Quick test_election_with_silent_corrupt;
    Alcotest.test_case "election polylog" `Slow test_election_communication_polylog;
    Alcotest.test_case "aecomm honest" `Quick test_aecomm_dissemination_honest;
    Alcotest.test_case "aecomm corrupt" `Quick test_aecomm_dissemination_with_corruption;
    Alcotest.test_case "aecomm isolated" `Quick test_aecomm_isolated_definition;
    Alcotest.test_case "params paper profile" `Quick test_params_paper_profile;
    Alcotest.test_case "election garbage" `Quick test_election_with_garbage_adversary;
    Alcotest.test_case "aecomm equivocating supreme" `Quick test_aecomm_equivocating_supreme;
    Alcotest.test_case "election and dissemination digests under attack pinned" `Quick
      test_attacked_digests_pinned;
  ]
