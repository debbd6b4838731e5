(* Tests for both SRDS constructions (Def. 2.1 operations, succinctness) and
   the executable security games of Figures 1 and 2. *)

open Repro_core
module Rng = Repro_util.Rng

let msg = Bytes.of_string "message-under-agreement"

(* Generic scheme exercises, instantiated for both constructions. *)
module Exercise (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)

  let fresh ?(seed = 7) ~n () =
    let rng = Rng.create seed in
    let pp, master = S.setup rng ~n in
    let pairs = Array.init n (fun i -> S.keygen pp master rng ~index:i) in
    (pp, Array.map fst pairs, Array.map snd pairs)

  let sign_all pp sks ~msg =
    Array.to_list sks
    |> List.mapi (fun i sk -> S.sign pp sk ~index:i ~msg)
    |> List.filter_map (fun s -> s)

  (* aggregate in polylog-size batches, recursively (Def. 2.2 shape) *)
  let aggregate_tree pp vks ~msg ~batch sigs =
    let merge chunk = S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg chunk) in
    fst (Srds_intf.aggregate_tree ~merge ~batch sigs)

  let test_sign_aggregate_verify () =
    let n = 120 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    Alcotest.(check bool) "some parties can sign" true (List.length sigs > 0);
    match aggregate_tree pp vks ~msg ~batch:8 sigs with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg ->
      Alcotest.(check bool) "verifies" true (S.verify pp ~vks ~msg agg);
      Alcotest.(check bool) "attests enough" true (S.count agg >= S.threshold pp)

  let test_verify_rejects_other_msg () =
    let n = 100 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    match aggregate_tree pp vks ~msg ~batch:8 sigs with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg ->
      Alcotest.(check bool) "other message rejected" false
        (S.verify pp ~vks ~msg:(Bytes.of_string "other") agg)

  let test_minority_cannot_verify () =
    let n = 120 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    (* keep under a third of the base signatures *)
    let minority = List.filteri (fun i _ -> i mod 4 = 0) sigs in
    match aggregate_tree pp vks ~msg ~batch:8 minority with
    | None -> () (* nothing aggregated: fine *)
    | Some agg ->
      Alcotest.(check bool) "minority aggregate rejected" false
        (S.verify pp ~vks ~msg agg)

  let test_succinctness_flat_in_batch () =
    let n = 150 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    let size_for batch =
      match aggregate_tree pp vks ~msg ~batch sigs with
      | Some agg -> W.size agg
      | None -> Alcotest.fail "aggregation failed"
    in
    let s2 = size_for 2 and s16 = size_for 16 in
    (* aggregate size must not grow with aggregation arity/depth *)
    Alcotest.(check bool)
      (Printf.sprintf "size flat across batch (%d vs %d)" s2 s16)
      true
      (s2 <= s16 * 2 && s16 <= s2 * 2)

  let test_encode_roundtrip () =
    let n = 80 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    match aggregate_tree pp vks ~msg ~batch:8 sigs with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg -> (
      match W.of_bytes (W.to_bytes agg) with
      | Some agg' ->
        Alcotest.(check bool) "roundtrip verifies" true (S.verify pp ~vks ~msg agg');
        Alcotest.(check int) "count preserved" (S.count agg) (S.count agg')
      | None -> Alcotest.fail "decode failed")

  let test_range_encoding () =
    let n = 80 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    List.iter
      (fun sg ->
        Alcotest.(check bool) "base min=max" true (S.min_index sg = S.max_index sg))
      sigs;
    match aggregate_tree pp vks ~msg ~batch:8 sigs with
    | None -> Alcotest.fail "aggregation failed"
    | Some agg ->
      Alcotest.(check bool) "agg range ordered" true (S.min_index agg <= S.max_index agg);
      Alcotest.(check bool) "agg range within n" true
        (S.min_index agg >= 0 && S.max_index agg < n)

  let test_garbage_filtered () =
    let n = 80 in
    let pp, vks, sks = fresh ~n () in
    let sigs = sign_all pp sks ~msg in
    let garbage =
      List.filter_map (fun data -> W.of_bytes data)
        [ Bytes.make 40 'z'; Bytes.make 3 '\001' ]
    in
    let filtered = S.aggregate1 pp ~vks ~msg (garbage @ sigs) in
    (* everything surviving the filter must be individually valid *)
    List.iter
      (fun sg ->
        Alcotest.(check bool) "survivor valid" true (S.verify_partial pp ~vks ~msg sg))
      filtered

  let suite label =
    [
      Alcotest.test_case (label ^ ": sign/aggregate/verify") `Quick test_sign_aggregate_verify;
      Alcotest.test_case (label ^ ": wrong message") `Quick test_verify_rejects_other_msg;
      Alcotest.test_case (label ^ ": minority rejected") `Quick test_minority_cannot_verify;
      Alcotest.test_case (label ^ ": succinct") `Quick test_succinctness_flat_in_batch;
      Alcotest.test_case (label ^ ": encode") `Quick test_encode_roundtrip;
      Alcotest.test_case (label ^ ": ranges") `Quick test_range_encoding;
      Alcotest.test_case (label ^ ": garbage filtered") `Quick test_garbage_filtered;
    ]
end

module Ex_owf = Exercise (Srds_owf)
module Ex_snark = Exercise (Srds_snark)
module Ex_vrf = Exercise (Srds_vrf)
module Ex_ms = Exercise (Baseline_multisig)

(* --- f_aggr-sig shared candidates and admissions ---

   Phase F computes each candidate once per distinct member input, each
   validity verdict once per distinct payload, and each admission
   (Aggregate1's per-input half) once per distinct (msg, received
   signature) at a node. Members here: two with the same (raw, msg), one
   with the same raw under another msg, one with raw reordered, and one
   whose raw holds its first signature three times (what a level-2 node
   gets from a child's forwarders, and the duplicate-replay input) — four
   distinct candidate keys. Every candidate must equal the scheme's own
   computation with no table (decode, step-5c range check, aggregate1,
   aggregate2), every shared verdict the unshared one; the aggregate counter
   moves once per distinct key and [K.admission] as [K.admissions] says for
   the distinct (msg, signature) pairs. *)
module Shared
    (S : Srds_intf.SCHEME)
    (K : sig
      val aggregate : string (* the counter [S.select] bumps *)

      val admission : string (* bumped once by one admission *)

      val admissions : valid:int -> invalid:int -> merges:int -> int
      (* its moves over the candidates: [valid]/[invalid] distinct pairs
         that do/do not verify, [merges] distinct candidates combining two
         or more admitted inputs *)
    end) =
struct
  module W = Srds_intf.Wire (S)
  module Agg = Aggr_sig.Make (S)
  module Params = Repro_aetree.Params
  module Tree = Repro_aetree.Tree

  let test () =
    let module C = Repro_obs.Counters in
    let params = Params.make ~n:8 ~z:2 ~leaf_size:8 ~committee_size:4 ~branching:2 in
    let rng = Rng.create 5 in
    let tree = Tree.random params (Rng.of_label rng "tree") in
    let pp, master = S.setup rng ~n:params.Params.num_slots in
    let keys =
      Array.init params.Params.num_slots (fun i -> S.keygen pp master rng ~index:i)
    in
    let vks = Array.map fst keys in
    let fresh_table () = Agg.shared ~pp ~vks ~tree ~level:1 in
    let idx = 0 in
    let lo, hi = Params.leaf_slot_range params idx in
    let raw =
      List.filter_map
        (fun i -> Option.map W.to_bytes (S.sign pp (snd keys.(i)) ~index:i ~msg))
        (List.init (hi - lo + 1) (fun k -> lo + k))
    in
    Alcotest.(check bool) "at least two signatures to reorder" true (List.length raw >= 2);
    let reference ~msg ~raw =
      let sigs =
        List.filter_map W.of_bytes raw |> List.filter (Agg.range_ok tree ~level:1 ~idx)
      in
      match S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg sigs) with
      | Some sg -> W.to_bytes sg
      | None -> Bytes.empty
    in
    let msg' = Bytes.of_string "another-message" in
    let first = List.hd raw in
    let tripled = Bytes.copy first :: Bytes.copy first :: raw in
    let inputs =
      [ (msg, raw); (msg, raw); (msg', raw); (msg, List.rev raw); (msg, tripled) ]
    in
    let aggregate = C.make K.aggregate and admission = C.make K.admission in
    let was = C.is_enabled () in
    C.enable ();
    let shared = fresh_table () in
    let before = (C.value aggregate, C.value admission) in
    let cands = List.map (fun (msg, raw) -> Agg.candidate shared ~idx ~msg ~raw) inputs in
    let bumps = C.value aggregate - fst before and admitted = C.value admission - snd before in
    if not was then C.disable ();
    Alcotest.(check int) (K.aggregate ^ " once per distinct key") 4 bumps;
    let signed = List.length raw in
    Alcotest.(check int)
      (K.admission ^ " once per distinct (msg, signature)")
      (K.admissions ~valid:signed ~invalid:signed ~merges:3)
      admitted;
    Alcotest.(check bool) "the signed candidate is non-empty" true
      (Bytes.length (List.hd cands) > 0);
    List.iter2
      (fun (msg, raw) cand ->
        Alcotest.(check bytes) "shared candidate = unshared" (reference ~msg ~raw) cand;
        List.iter
          (fun payload ->
            Alcotest.(check bool) "shared verdict = unshared"
              (Agg.valid (fresh_table ()) ~idx ~msg payload)
              (Agg.valid shared ~idx ~msg payload))
          cands)
      inputs cands;
    Alcotest.(check bool) "the signed candidate is valid" true
      (Agg.valid shared ~idx ~msg (List.hd cands))
end

(* owf: one WOTS verification per admitted base signature. *)
module Shared_owf =
  Shared
    (Srds_owf)
    (struct
      let aggregate = "srds-owf.aggregate"
      let admission = "wots.verify"
      let admissions ~valid ~invalid ~merges:_ = valid + invalid
    end)

(* SNARK: one PCD source step per valid base signature, plus one internal
   step per merging candidate. The ablated variant keeps duplicates, so
   matching its tripled candidate against the table-free computation checks
   that the table does not collapse copies. *)
module Snark_counts = struct
  let aggregate = "srds-snark.aggregate"
  let admission = "pcd.prove"
  let admissions ~valid ~invalid:_ ~merges = valid + merges
end

module Shared_snark = Shared (Srds_snark) (Snark_counts)

module Shared_ablated =
  Shared
    (Srds_snark_ablated)
    (struct
      include Snark_counts

      let aggregate = "srds-snark-ablated.aggregate"
    end)

(* --- scheme-operation counter shape (REPRO_COUNTERS contract) ---

   Every SCHEME instance exports <name>.{keygen,sign,aggregate,verify}
   counters whose values are a deterministic function of the logical work:
   one keygen per party, one sign per attempt (sortition losers included),
   one aggregate per aggregate1 call, one verify per verify call. The
   bench regression gate diffs these, so their shape is part of the
   interface — pinned here for the two schemes the protocol suite doesn't
   otherwise meter, and for the ablated SNARK scheme, which shares its
   code with srds-snark but none of its counters. *)
let test_scheme_counter_shape () =
  let module C = Repro_obs.Counters in
  let was = C.is_enabled () in
  C.enable ();
  C.reset ();
  let check_scheme (type p m k s) ?(silent = []) scheme_name
      (module S : Srds_intf.SCHEME
        with type pp = p and type master = m and type sk = k
         and type signature = s) ~n ~seed =
    let rng = Rng.create seed in
    let pp, master = S.setup rng ~n in
    let keys = Array.init n (fun i -> S.keygen pp master rng ~index:i) in
    let vks = Array.map fst keys in
    let sigs =
      List.filter_map
        (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg)
        (List.init n (fun i -> i))
    in
    (match S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg sigs) with
    | Some agg ->
      Alcotest.(check bool)
        (scheme_name ^ ": aggregate verifies")
        true
        (S.verify pp ~vks ~msg agg)
    | None -> Alcotest.fail (scheme_name ^ ": aggregation failed"));
    let snap = C.snapshot () in
    let v key = Option.value ~default:0 (List.assoc_opt key snap) in
    Alcotest.(check int) (scheme_name ^ ".keygen = n") n (v (scheme_name ^ ".keygen"));
    Alcotest.(check int)
      (scheme_name ^ ".sign counts every attempt")
      n
      (v (scheme_name ^ ".sign"));
    Alcotest.(check int) (scheme_name ^ ".aggregate") 1 (v (scheme_name ^ ".aggregate"));
    Alcotest.(check int) (scheme_name ^ ".verify") 1 (v (scheme_name ^ ".verify"));
    List.iter
      (fun other ->
        List.iter
          (fun op ->
            let key = other ^ "." ^ op in
            Alcotest.(check int) (key ^ " untouched by " ^ scheme_name) 0 (v key))
          [ "keygen"; "sign"; "aggregate"; "verify" ])
      silent;
    C.reset ()
  in
  check_scheme "baseline-multisig" (module Baseline_multisig) ~n:60 ~seed:21;
  check_scheme "srds-vrf" (module Srds_vrf) ~n:120 ~seed:22;
  check_scheme ~silent:[ "srds-snark" ] "srds-snark-ablated" (module Srds_snark_ablated)
    ~n:16 ~seed:23;
  if not was then C.disable ()

(* --- scheme-specific --- *)

let test_owf_oblivious_majority () =
  (* most parties must hold oblivious keys (cannot sign) *)
  let rng = Rng.create 3 in
  let n = 400 in
  let pp, master = Srds_owf.setup rng ~n in
  let signers = ref 0 in
  for i = 0 to n - 1 do
    let _, sk = Srds_owf.keygen pp master rng ~index:i in
    match Srds_owf.sign pp sk ~index:i ~msg with
    | Some _ -> incr signers
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "signers %d well below n" !signers)
    true
    (!signers > 0 && !signers < n / 3)

let test_owf_duplicate_entries_dedup () =
  let rng = Rng.create 4 in
  let n = 100 in
  let pp, master = Srds_owf.setup rng ~n in
  let pairs = Array.init n (fun i -> Srds_owf.keygen pp master rng ~index:i) in
  let vks = Array.map fst pairs in
  let sigs =
    Array.to_list (Array.mapi (fun i (_, sk) -> Srds_owf.sign pp sk ~index:i ~msg) pairs)
    |> List.filter_map (fun s -> s)
  in
  (* duplicate every signature thrice: count must not inflate *)
  let tripled = sigs @ sigs @ sigs in
  let filtered = Srds_owf.aggregate1 pp ~vks ~msg tripled in
  match Srds_owf.aggregate2 pp ~msg filtered with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg ->
    Alcotest.(check int) "dedup by signer" (List.length sigs) (Srds_owf.count agg)

let test_snark_proof_size_constant () =
  let rng = Rng.create 5 in
  let n = 200 in
  let pp, master = Srds_snark.setup rng ~n in
  let pairs = Array.init n (fun i -> Srds_snark.keygen pp master rng ~index:i) in
  let vks = Array.map fst pairs in
  let sigs =
    Array.to_list (Array.mapi (fun i (_, sk) -> Srds_snark.sign pp sk ~index:i ~msg) pairs)
    |> List.filter_map (fun s -> s)
  in
  let module W = Srds_intf.Wire (Srds_snark) in
  (* aggregate everything in one shot, then pairwise: same size class *)
  let all =
    Srds_snark.aggregate2 pp ~msg (Srds_snark.aggregate1 pp ~vks ~msg sigs) |> Option.get
  in
  Alcotest.(check int) "full count" n (Srds_snark.count all);
  Alcotest.(check bool) "aggregate small" true (W.size all < 200)

let test_snark_bare_pki_replaced_keys () =
  (* corrupt parties replacing their keys can still contribute at most their
     own indices; honest majority still verifies *)
  let rng = Rng.create 6 in
  let n = 90 in
  let pp, master = Srds_snark.setup rng ~n in
  let pairs = Array.init n (fun i -> Srds_snark.keygen pp master rng ~index:i) in
  let vks = Array.map fst pairs in
  (* adversary swaps in fresh keys for parties 0..9 *)
  let evil = Array.init 10 (fun i -> Srds_snark.keygen pp master rng ~index:i) in
  Array.iteri (fun i (vk, _) -> vks.(i) <- vk) evil;
  let sigs =
    List.filter_map
      (fun i ->
        if i < 10 then Srds_snark.sign pp (snd evil.(i)) ~index:i ~msg
        else Srds_snark.sign pp (snd pairs.(i)) ~index:i ~msg)
      (List.init n (fun i -> i))
  in
  match Srds_snark.aggregate2 pp ~msg (Srds_snark.aggregate1 pp ~vks ~msg sigs) with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg ->
    Alcotest.(check bool) "verifies under replaced PKI" true
      (Srds_snark.verify pp ~vks ~msg agg)

(* --- Figure 1 robustness games --- *)

module G_owf = Srds_experiments.Make (Srds_owf)
module G_snark = Srds_experiments.Make (Srds_snark)
module G_vrf = Srds_experiments.Make (Srds_vrf)
module G_ablated = Srds_experiments.Make (Srds_snark_ablated)

let test_robustness_owf () =
  List.iter
    (fun (adv, name) ->
      let r = G_owf.robustness ~n:128 ~t:14 ~seed:11 adv in
      Alcotest.(check bool) (name ^ ": tree valid") true r.G_owf.r_tree_valid;
      Alcotest.(check bool) (name ^ ": root verifies") true r.G_owf.r_accepted)
    [
      (G_owf.passive_adversary ~t:14, "passive");
      (G_owf.silent_adversary ~t:14, "silent");
      (G_owf.garbage_adversary ~t:14, "garbage");
      (G_owf.duplicate_adversary ~t:14, "duplicate");
      (G_owf.isolating_adversary ~t:14, "isolating");
    ]

let test_robustness_snark () =
  List.iter
    (fun (adv, name) ->
      let r = G_snark.robustness ~n:128 ~t:14 ~seed:12 adv in
      Alcotest.(check bool) (name ^ ": tree valid") true r.G_snark.r_tree_valid;
      Alcotest.(check bool) (name ^ ": root verifies") true r.G_snark.r_accepted)
    [
      (G_snark.passive_adversary ~t:14, "passive");
      (G_snark.silent_adversary ~t:14, "silent");
      (G_snark.garbage_adversary ~t:14, "garbage");
      (G_snark.duplicate_adversary ~t:14, "duplicate");
      (G_snark.isolating_adversary ~t:14, "isolating");
    ]

(* --- Figure 2 forgery games --- *)

let test_forgery_owf_fails () =
  List.iter
    (fun (adv, name) ->
      let r = G_owf.forgery ~n:128 ~t:14 ~seed:13 adv in
      Alcotest.(check bool) (name ^ " fails: " ^ r.G_owf.f_detail) false r.G_owf.f_win)
    [
      (G_owf.replay_adversary ~t:14 ~s_count:10, "replay");
      (G_owf.minority_adversary ~t:14 ~s_count:10, "minority");
      (G_owf.duplicate_inflation_adversary ~t:14 ~s_count:10 ~copies:6, "dup-inflate");
    ]

let test_forgery_snark_fails () =
  List.iter
    (fun (adv, name) ->
      let r = G_snark.forgery ~n:128 ~t:14 ~seed:14 adv in
      Alcotest.(check bool) (name ^ " fails: " ^ r.G_snark.f_detail) false r.G_snark.f_win)
    [
      (G_snark.replay_adversary ~t:14 ~s_count:10, "replay");
      (G_snark.minority_adversary ~t:14 ~s_count:10, "minority");
      (G_snark.duplicate_inflation_adversary ~t:14 ~s_count:10 ~copies:6, "dup-inflate");
    ]

let test_forgery_ablated_succumbs () =
  (* with the range defense removed, duplicate inflation must WIN —
     validating that the defense is what blocks the Sec. 2.2 attack *)
  let adv = G_ablated.duplicate_inflation_adversary ~t:14 ~s_count:10 ~copies:8 in
  let r = G_ablated.forgery ~n:128 ~t:14 ~seed:15 adv in
  Alcotest.(check bool) ("ablated scheme forged: " ^ r.G_ablated.f_detail) true
    r.G_ablated.f_win

let test_robustness_vrf () =
  List.iter
    (fun (adv, name) ->
      let r = G_vrf.robustness ~n:128 ~t:14 ~seed:16 adv in
      Alcotest.(check bool) (name ^ ": tree valid") true r.G_vrf.r_tree_valid;
      Alcotest.(check bool) (name ^ ": root verifies") true r.G_vrf.r_accepted)
    [
      (G_vrf.passive_adversary ~t:14, "passive");
      (G_vrf.silent_adversary ~t:14, "silent");
      (G_vrf.duplicate_adversary ~t:14, "duplicate");
    ]

let test_forgery_vrf_fails () =
  List.iter
    (fun (adv, name) ->
      let r = G_vrf.forgery ~n:128 ~t:14 ~seed:17 adv in
      Alcotest.(check bool) (name ^ " fails: " ^ r.G_vrf.f_detail) false r.G_vrf.f_win)
    [
      (G_vrf.replay_adversary ~t:14 ~s_count:10, "replay");
      (G_vrf.minority_adversary ~t:14 ~s_count:10, "minority");
      (G_vrf.duplicate_inflation_adversary ~t:14 ~s_count:10 ~copies:6, "dup-inflate");
    ]

let suite =
  Ex_owf.suite "owf"
  @ Ex_snark.suite "snark"
  @ Ex_vrf.suite "vrf"
  @ Ex_ms.suite "multisig"
  @ [
      Alcotest.test_case "scheme counter shape" `Quick test_scheme_counter_shape;
      Alcotest.test_case "owf shared candidates" `Quick Shared_owf.test;
      Alcotest.test_case "snark shared candidates" `Quick Shared_snark.test;
      Alcotest.test_case "snark-ablated shared candidates" `Quick Shared_ablated.test;
    ]
  @ [
      Alcotest.test_case "fig1 robustness vrf" `Quick test_robustness_vrf;
      Alcotest.test_case "fig2 forgery vrf" `Quick test_forgery_vrf_fails;
    ]
  @ [
      Alcotest.test_case "owf oblivious majority" `Quick test_owf_oblivious_majority;
      Alcotest.test_case "owf dedup" `Quick test_owf_duplicate_entries_dedup;
      Alcotest.test_case "snark proof size" `Quick test_snark_proof_size_constant;
      Alcotest.test_case "snark bare pki" `Quick test_snark_bare_pki_replaced_keys;
      Alcotest.test_case "fig1 robustness owf" `Quick test_robustness_owf;
      Alcotest.test_case "fig1 robustness snark" `Quick test_robustness_snark;
      Alcotest.test_case "fig2 forgery owf" `Quick test_forgery_owf_fails;
      Alcotest.test_case "fig2 forgery snark" `Quick test_forgery_snark_fails;
      Alcotest.test_case "fig2 ablated attack wins" `Quick test_forgery_ablated_succumbs;
    ]
