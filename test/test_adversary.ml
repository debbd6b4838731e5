(* The composable adversary library (lib/adversary) and the seeded
   attack-matrix harness (Runner.attack_matrix, E16).

   Three layers: unit tests for the strategy primitives and combinators on
   tiny hand-built networks; QCheck property tests replaying the SRDS
   security games (Fig. 1 robustness, Fig. 2 unforgeability) under the
   library's attack classes; and the matrix itself — a regression-seed
   corpus, byte-identical reports across reruns and domain-pool sizes, and
   a teeth check on the beta >= 1/3 sanity row. *)

open Repro_core
module Strategy = Repro_adversary.Strategy
module Network = Repro_net.Network
module Wire = Repro_net.Wire
module Json = Repro_util.Json
module Parallel = Repro_util.Parallel

(* Run [rounds] rounds with the given adversary while honest parties run
   [honest_send]; return every *delivered* message whose source is corrupt,
   in delivery order, as (round, src, dst, tag, payload). *)
let transcript ?(n = 8) ?(corrupt = [ 0; 1 ]) ?(rounds = 3) ~adversary
    honest_send =
  let net = Network.create ~n ~corrupt () in
  let log = ref [] in
  let handler p ~round v =
    List.iter
      (fun (m : Wire.msg) ->
        if Network.is_corrupt net m.Wire.src then
          log :=
            (round, m.Wire.src, p, m.Wire.tag, Bytes.to_string m.Wire.payload)
            :: !log)
      (Views.to_list v);
    honest_send net p ~round
  in
  let handlers =
    Array.init n (fun p ->
        if Network.is_corrupt net p then None else Some (handler p))
  in
  Network.run_slices net ~adversary ~rounds
    ~extra:(fun ~round:_ -> Network.everyone net)
    (Array.get handlers);
  List.rev !log

(* Party 2 gossips a vote to every other honest party each round. *)
let chatter net p ~round =
  if p = 2 then
    List.iter
      (fun dst ->
        if dst <> p then
          Network.send net ~src:p ~dst ~tag:"vote"
            (Bytes.of_string (Printf.sprintf "v%d" round)))
      (Network.honest_parties net)

(* --- primitives and the emit guard --- *)

let test_silent_sends_nothing () =
  let tr =
    transcript ~adversary:(Strategy.instantiate Strategy.silent ~seed:1) chatter
  in
  Alcotest.(check int) "no corrupt traffic" 0 (List.length tr)

let test_emit_guard () =
  (* A malicious strategy that tries to speak for an honest party and to
     send out of range: emit must drop all of it, raising nothing. *)
  let imposter =
    Strategy.make ~name:"imposter" (fun _rng ->
        fun (e : Strategy.env) ->
          e.Strategy.emit ~src:2 ~dst:3 ~tag:"fake" (Bytes.of_string "x");
          e.Strategy.emit ~src:0 ~dst:99 ~tag:"oob" Bytes.empty;
          e.Strategy.emit ~src:(-1) ~dst:1 ~tag:"neg" Bytes.empty)
  in
  let tr =
    transcript ~adversary:(Strategy.instantiate imposter ~seed:2) chatter
  in
  Alcotest.(check int) "everything dropped" 0 (List.length tr)

(* A strategy that floods 10 messages per round from corrupt party 0. *)
let flood =
  Strategy.make ~name:"flood" (fun _rng ->
      fun (e : Strategy.env) ->
        for i = 0 to 9 do
          e.Strategy.emit ~src:0 ~dst:2 ~tag:"f"
            (Bytes.of_string (string_of_int i))
        done)

let test_budgeted_caps_per_round () =
  (* 3 rounds: the adversary acts in rounds 0..2, deliveries observed in
     rounds 1..2 (round-2 sends are still in flight when the run stops). *)
  let tr =
    transcript ~rounds:3
      ~adversary:(Strategy.instantiate (Strategy.budgeted 3 flood) ~seed:3)
      chatter
  in
  Alcotest.(check int) "3 per round over 2 observed rounds" 6 (List.length tr);
  List.iter
    (fun round ->
      let in_round = List.filter (fun (r, _, _, _, _) -> r = round) tr in
      Alcotest.(check int)
        (Printf.sprintf "budget resets (round %d)" round)
        3 (List.length in_round))
    [ 1; 2 ];
  let un =
    transcript ~rounds:3
      ~adversary:(Strategy.instantiate flood ~seed:3)
      chatter
  in
  Alcotest.(check int) "unbudgeted floods" 20 (List.length un)

let test_from_round_delays () =
  let tr =
    transcript ~rounds:4
      ~adversary:(Strategy.instantiate (Strategy.from_round 2 flood) ~seed:4)
      chatter
  in
  (* active from round 2 on; only the round-2 burst is delivered (round 3) *)
  Alcotest.(check int) "one active burst observed" 10 (List.length tr);
  List.iter
    (fun (r, _, _, _, _) ->
      Alcotest.(check bool) "nothing before activation" true (r >= 3))
    tr

let test_compose_runs_all_parts () =
  let part tag =
    Strategy.make ~name:tag (fun _rng ->
        fun (e : Strategy.env) ->
          e.Strategy.emit ~src:1 ~dst:2 ~tag Bytes.empty)
  in
  let tr =
    transcript
      ~adversary:
        (Strategy.instantiate (Strategy.compose [ part "pa"; part "pb" ]) ~seed:5)
      chatter
  in
  let tags = List.sort_uniq compare (List.map (fun (_, _, _, t, _) -> t) tr) in
  Alcotest.(check (list string)) "both parts acted" [ "pa"; "pb" ] tags

let test_instantiate_deterministic () =
  let strategy = Strategy.compose [ Strategy.equivocate; Strategy.replay_chaff () ] in
  let run seed =
    transcript ~adversary:(Strategy.instantiate strategy ~seed) chatter
  in
  Alcotest.(check bool) "same seed, identical traffic" true (run 7 = run 7);
  Alcotest.(check bool) "different seed, different traffic" true (run 7 <> run 8)

let test_equivocate_splits_views () =
  (* One honest tag in flight; the corrupt party must send it with exactly
     two divergent payloads to disjoint honest halves. *)
  let tr =
    transcript ~n:10 ~corrupt:[ 9 ] ~rounds:2
      ~adversary:(Strategy.instantiate Strategy.equivocate ~seed:9)
      (fun net p ~round:_ ->
        if p = 0 then
          Network.send net ~src:0 ~dst:1 ~tag:"vote" (Bytes.of_string "real"))
  in
  let round1 = List.filter (fun (r, _, _, _, _) -> r = 1) tr in
  List.iter
    (fun (_, src, _, tag, _) ->
      Alcotest.(check int) "from the corrupt party" 9 src;
      Alcotest.(check string) "honest tag reused" "vote" tag)
    round1;
  let payloads =
    List.sort_uniq compare (List.map (fun (_, _, _, _, p) -> p) round1)
  in
  Alcotest.(check int) "two divergent payloads" 2 (List.length payloads);
  (match payloads with
  | [ a; b ] ->
    let dsts_of p =
      List.sort_uniq compare
        (List.filter_map
           (fun (_, _, d, _, pl) -> if pl = p then Some d else None)
           round1)
    in
    let da = dsts_of a and db = dsts_of b in
    Alcotest.(check bool) "disjoint recipient halves" true
      (List.for_all (fun d -> not (List.mem d db)) da);
    Alcotest.(check int) "every honest party targeted" 9
      (List.length da + List.length db)
  | _ -> Alcotest.fail "expected exactly two payloads")

let test_bad_aggregate_targets_sig_tags () =
  let sig_payload = "SIGPAYLOAD" in
  let tr =
    transcript ~rounds:2
      ~adversary:(Strategy.instantiate Strategy.bad_aggregate ~seed:10)
      (fun net p ~round:_ ->
        if p = 3 then begin
          Network.send net ~src:3 ~dst:4 ~tag:"sig-x"
            (Bytes.of_string sig_payload);
          Network.send net ~src:3 ~dst:4 ~tag:"other" (Bytes.of_string "meh")
        end)
  in
  Alcotest.(check int) "dup + flip + doubled" 3 (List.length tr);
  List.iter
    (fun (_, _, dst, tag, _) ->
      Alcotest.(check string) "only signature tags touched" "sig-x" tag;
      Alcotest.(check int) "re-injected at the original dst" 4 dst)
    tr;
  let payloads = List.map (fun (_, _, _, _, p) -> p) tr in
  Alcotest.(check bool) "byte-equal duplicate present" true
    (List.mem sig_payload payloads);
  Alcotest.(check bool) "doubled encoding present" true
    (List.exists (fun p -> String.length p = 2 * String.length sig_payload) payloads);
  Alcotest.(check bool) "flipped copy present" true
    (List.exists
       (fun p -> String.length p = String.length sig_payload && p <> sig_payload)
       payloads)

let test_tree_victims_deterministic () =
  let v () =
    Strategy.tree_victims ~n:64 ~seed:5
      ~strategy:Repro_aetree.Attacks.Kill_leaves ~budget:8
  in
  let v1 = v () in
  Alcotest.(check bool) "deterministic" true (v1 = v ());
  Alcotest.(check bool) "non-empty" true (v1 <> []);
  Alcotest.(check bool) "within budget" true (List.length v1 <= 8);
  Alcotest.(check bool) "parties in range" true
    (List.for_all (fun p -> p >= 0 && p < 64) v1)

let test_catalogue_names_stable () =
  (* Report rows and regression seeds key off these names. *)
  let names = List.map Strategy.name (Strategy.catalogue ~n:64 ~seed:1) in
  Alcotest.(check (list string)) "portfolio"
    [
      "silent"; "equivocate"; "replay-chaff"; "withhold"; "bad-aggregate";
      "equivocate+replay-chaff<=64"; "bad-aggregate@8";
    ]
    names;
  List.iter
    (fun n ->
      match Strategy.find ~n:64 ~seed:1 n with
      | Some s -> Alcotest.(check string) "find roundtrips" n (Strategy.name s)
      | None -> Alcotest.fail ("find lost " ^ n))
    names;
  Alcotest.(check bool) "unknown name is None" true
    (Strategy.find ~n:64 ~seed:1 "nonesuch" = None)

(* --- SRDS security games under the attack portfolio (Fig. 1 / Fig. 2) --- *)

module G_owf = Srds_experiments.Make (Srds_owf)
module G_snark = Srds_experiments.Make (Srds_snark)

let arb_seed = QCheck.int_range 1 1_000_000

(* P[Bin(trials, p) <= k], summed term by term. *)
let binomial_cdf ~trials ~p k =
  let term = ref ((1. -. p) ** float_of_int trials) and sum = ref 0. in
  for i = 0 to k do
    sum := !sum +. !term;
    term := !term *. float_of_int (trials - i) /. float_of_int (i + 1) *. p /. (1. -. p)
  done;
  !sum

(* Fig. 1 robustness of the owf scheme holds with high probability, not
   at every seed: sortition may draw too few honest signers for the root
   to attest the threshold. So the test runs a fixed block of seeds and
   bounds the number that fail, instead of asserting every seed.

   The game rounds n = 64 up to [slots] parties, one slot each, and
   sortition makes each slot a signer with probability [expected / slots].
   The root accepts at half the expected signer count, plus one. The
   adversaries whose corrupt parties contribute nothing (silent, garbage)
   leave [slots - t] honest slots, so a seed fails with probability at
   most [eps = P[Bin(slots - t, expected / slots) < threshold]]. Every
   adversary at a seed shares its sortition draw, and the others' failures
   are sub-events of that one. [q] is the least count with
   P[Bin(block, eps) > q] <= 1e-6. The block's size is set by the time
   budget (about 9 ms per seed). *)
let test_robustness_owf () =
  let t = 7 and block = 200 in
  let slots = (G_owf.game_params ~n:64).Repro_aetree.Params.n in
  let expected = Srds_owf.expected_signers ~n:slots in
  let threshold = (expected / 2) + 1 in
  let eps =
    binomial_cdf ~trials:(slots - t) ~p:(float_of_int expected /. float_of_int slots) (threshold - 1)
  in
  let rec bound q = if 1. -. binomial_cdf ~trials:block ~p:eps q <= 1e-6 then q else bound (q + 1) in
  let q = bound 0 in
  let failed =
    List.filter
      (fun seed ->
        not
          (List.for_all
             (fun adv -> (G_owf.robustness ~n:64 ~t ~seed adv).G_owf.r_accepted)
             [
               G_owf.passive_adversary ~t;
               G_owf.silent_adversary ~t;
               G_owf.garbage_adversary ~t;
               G_owf.duplicate_adversary ~t;
               G_owf.isolating_adversary ~t;
             ]))
      (List.init block (fun k -> k + 1))
  in
  if List.length failed > q then
    Alcotest.failf "%d of seeds 1..%d failed (bound %d at eps = %.2e): %s" (List.length failed)
      block q eps
      (String.concat "," (List.map string_of_int failed))

let prop_robustness_snark =
  QCheck.Test.make ~name:"srds-snark: Fig.1 robustness vs attack portfolio"
    ~count:3 arb_seed (fun seed ->
      List.for_all
        (fun adv ->
          (G_snark.robustness ~n:64 ~t:7 ~seed adv).G_snark.r_accepted)
        [
          G_snark.passive_adversary ~t:7;
          G_snark.silent_adversary ~t:7;
          G_snark.garbage_adversary ~t:7;
          G_snark.duplicate_adversary ~t:7;
          G_snark.isolating_adversary ~t:7;
        ])

let prop_duplicate_forgery_rejected =
  (* The duplicate-signature attack from a corrupt subtree (one coalition
     replaying its signatures with inflated multiplicity) must lose the
     Fig. 2 game for both instantiations. *)
  QCheck.Test.make ~name:"srds: Fig.2 duplicate-signature forgery rejected"
    ~count:4 arb_seed (fun seed ->
      let owf =
        G_owf.forgery ~n:64 ~t:7 ~seed
          (G_owf.duplicate_inflation_adversary ~t:7 ~s_count:8 ~copies:6)
      in
      let snark =
        G_snark.forgery ~n:64 ~t:7 ~seed
          (G_snark.duplicate_inflation_adversary ~t:7 ~s_count:8 ~copies:6)
      in
      (not owf.G_owf.f_win) && not snark.G_snark.f_win)

(* --- the attack matrix (E16) --- *)

(* Seeds that once stressed the decoders / aggregation paths; each must
   keep passing against the library strategy named in the row. *)
let regression_corpus =
  [
    (* strategy,                    protocol,               n,  beta, seed *)
    ("replay-chaff", Runner.This_work_owf, 72, 0.10, 21);
    ("replay-chaff", Runner.This_work_snark, 72, 0.10, 22);
    ("equivocate", Runner.This_work_snark, 72, 0.10, 23);
    ("equivocate", Runner.This_work_owf, 72, 0.10, 24);
    ("bad-aggregate", Runner.This_work_snark, 64, 0.125, 2);
    (* deliberately at the beta=1/4 cliff: most seeds fail here (see
       EXPERIMENTS.md E16), this one passes — lock it down *)
    ("withhold", Runner.This_work_owf, 64, 0.25, 1);
    ("equivocate+replay-chaff<=64", Runner.This_work_snark, 48, 0.125, 5);
    ("bad-aggregate@8", Runner.This_work_owf, 48, 0.125, 7);
  ]

let test_regression_corpus () =
  List.iter
    (fun (strategy_name, protocol, n, beta, seed) ->
      let c =
        Runner.run_attack_cell ~protocol ~strategy_name ~n ~beta ~seed
          ~expect_fail:false ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s n=%d beta=%.3f seed=%d" c.Runner.ac_protocol
           strategy_name n beta seed)
        true c.Runner.ac_ok)
    regression_corpus

(* A tiny matrix that still exercises both protocols, a live strategy and
   the sanity row: 2 protocols x 1 strategy x {1/8, 0.45} x 1 seed. *)
let small_matrix () =
  Runner.attack_matrix ~betas:[ 0.125 ] ~sanity_betas:[ 0.45 ] ~seeds:[ 1 ]
    ~strategies:[ "equivocate" ] ~n:32 ()

let test_matrix_deterministic () =
  let j1 = Json.pretty (Runner.attack_matrix_json (small_matrix ())) in
  let j2 = Json.pretty (Runner.attack_matrix_json (small_matrix ())) in
  Alcotest.(check string) "byte-identical report on rerun" j1 j2

let test_matrix_pool_independent () =
  let saved = Parallel.domains () in
  let run_with domains =
    Parallel.set_domains domains;
    Json.pretty (Runner.attack_matrix_json (small_matrix ()))
  in
  let one = run_with 1 in
  let four = run_with 4 in
  Parallel.set_domains saved;
  Alcotest.(check string) "report independent of REPRO_DOMAINS" one four

let test_matrix_report_and_teeth () =
  let m = small_matrix () in
  Alcotest.(check int) "cell count" 4 (List.length m.Runner.am_cells);
  Alcotest.(check bool) "gate: beta < 1/3 cells all ok" true m.Runner.am_gate_ok;
  Alcotest.(check bool) "teeth: some sanity cell failed" true m.Runner.am_teeth;
  Alcotest.(check bool) "a beta=0.45 cell is marked and failing" true
    (List.exists
       (fun c -> c.Runner.ac_expect_fail && not c.Runner.ac_ok)
       m.Runner.am_cells);
  let json = Json.pretty (Runner.attack_matrix_json m) in
  match Json.parse json with
  | Error e -> Alcotest.fail ("report does not parse: " ^ e)
  | Ok j ->
    (* the written report is a fixed point of parse-then-print: every
       rounded field already prints in its shortest form *)
    Alcotest.(check string) "report is a writer fixed point" json (Json.pretty j);
    Alcotest.(check (option string)) "schema" (Some "repro-attack/2")
      (Option.bind (Json.member "schema" j) Json.to_string);
    let cells =
      match Option.bind (Json.member "cells" j) Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "no cells array"
    in
    Alcotest.(check int) "cells serialized" 4 (List.length cells);
    Alcotest.(check (option bool)) "gate_ok serialized" (Some true)
      (Option.bind (Json.member "gate_ok" j) Json.to_bool);
    Alcotest.(check (option bool)) "teeth serialized" (Some true)
      (Option.bind (Json.member "teeth" j) Json.to_bool)

let suite =
  [
    Alcotest.test_case "silent sends nothing" `Quick test_silent_sends_nothing;
    Alcotest.test_case "emit guard drops honest/out-of-range src" `Quick
      test_emit_guard;
    Alcotest.test_case "budgeted caps per round" `Quick
      test_budgeted_caps_per_round;
    Alcotest.test_case "from_round delays activation" `Quick
      test_from_round_delays;
    Alcotest.test_case "compose runs all parts" `Quick
      test_compose_runs_all_parts;
    Alcotest.test_case "instantiate is seed-deterministic" `Quick
      test_instantiate_deterministic;
    Alcotest.test_case "equivocate splits honest views" `Quick
      test_equivocate_splits_views;
    Alcotest.test_case "bad-aggregate targets signature tags" `Quick
      test_bad_aggregate_targets_sig_tags;
    Alcotest.test_case "tree victims deterministic" `Quick
      test_tree_victims_deterministic;
    Alcotest.test_case "catalogue names stable" `Quick
      test_catalogue_names_stable;
    Alcotest.test_case "srds-owf: Fig.1 robustness vs attack portfolio" `Quick test_robustness_owf;
    QCheck_alcotest.to_alcotest prop_robustness_snark;
    QCheck_alcotest.to_alcotest prop_duplicate_forgery_rejected;
    Alcotest.test_case "regression seed corpus" `Slow test_regression_corpus;
    Alcotest.test_case "matrix report is deterministic" `Slow
      test_matrix_deterministic;
    Alcotest.test_case "matrix independent of domain pool" `Slow
      test_matrix_pool_independent;
    Alcotest.test_case "matrix report schema + teeth" `Slow
      test_matrix_report_and_teeth;
  ]
