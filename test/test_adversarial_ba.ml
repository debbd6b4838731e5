(* End-to-end BA under *active* network adversaries: corrupt parties inject
   traffic into every phase of the Fig. 3 pipeline (committee BA, coin
   toss, signing, aggregation, dissemination, boost). The protocol's
   decoders, majority rules and SRDS verification must shrug all of it off.

   The adversaries come from the composable strategy library
   (lib/adversary); the ad-hoc chaff/equivocator adversaries that used to
   live here are now Strategy.replay_chaff and Strategy.equivocate. *)

open Repro_core
module Strategy = Repro_adversary.Strategy

module Ba_owf = Balanced_ba.Make (Srds_owf)
module Ba_snark = Balanced_ba.Make (Srds_snark)

let owf ~net ~n ~seed cfg = Ba_owf.run ~net ~setup:(Ba_owf.setup ~n ~seed) cfg
let snark ~net ~n ~seed cfg = Ba_snark.run ~net ~setup:(Ba_snark.setup ~n ~seed) cfg

let run_with_strategy run_fn ~label ~strategy ~n ~t ~seed =
  let rng = Repro_util.Rng.create seed in
  let corrupt = Repro_util.Rng.subset rng ~n ~size:t in
  let cfg =
    Balanced_ba.default_config
      ~adversary:(Strategy.instantiate strategy ~seed)
      ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~seed ()
  in
  let net = Repro_net.Network.create ~n ~corrupt () in
  let o = Balanced_ba.outcome net cfg (run_fn ~net ~n ~seed cfg) in
  Alcotest.(check bool) (label ^ ": agreed") true o.Outcome.agreed;
  Alcotest.(check bool)
    (Printf.sprintf "%s: decided %.2f" label o.Outcome.decided_fraction)
    true
    (o.Outcome.decided_fraction > 0.95);
  Alcotest.(check bool) (label ^ ": valid") true o.Outcome.valid

let test_owf_under_chaff () =
  run_with_strategy owf ~label:"owf+chaff"
    ~strategy:(Strategy.replay_chaff ()) ~n:72 ~t:7 ~seed:21

let test_snark_under_chaff () =
  run_with_strategy snark ~label:"snark+chaff"
    ~strategy:(Strategy.replay_chaff ()) ~n:72 ~t:7 ~seed:22

let test_snark_under_equivocation () =
  run_with_strategy snark ~label:"snark+equiv"
    ~strategy:Strategy.equivocate ~n:72 ~t:7 ~seed:23

let test_owf_under_equivocation () =
  run_with_strategy owf ~label:"owf+equiv"
    ~strategy:Strategy.equivocate ~n:72 ~t:7 ~seed:24

(* The aggregation-tree attack aims at exactly the phase the SRDS range
   checks defend; the certified output must be unaffected. *)
let test_snark_under_bad_aggregate () =
  run_with_strategy snark ~label:"snark+bad-aggregate"
    ~strategy:Strategy.bad_aggregate ~n:72 ~t:7 ~seed:25

(* Tree-aware starvation of the kill-leaves victim set, plus a budgeted
   composite of every traffic-injecting primitive — the combinators under
   end-to-end load. *)
let test_owf_under_withhold () =
  let strategy =
    Strategy.withhold
      ~victims:
        (Strategy.tree_victims ~n:72 ~seed:26
           ~strategy:Repro_aetree.Attacks.Kill_leaves ~budget:9)
  in
  run_with_strategy owf ~label:"owf+withhold" ~strategy ~n:72 ~t:7
    ~seed:26

let test_snark_under_budgeted_composite () =
  let strategy =
    Strategy.budgeted 64
      (Strategy.compose
         [ Strategy.equivocate; Strategy.replay_chaff (); Strategy.bad_aggregate ])
  in
  run_with_strategy snark ~label:"snark+composite" ~strategy ~n:72 ~t:7
    ~seed:27

let suite =
  [
    Alcotest.test_case "owf vs chaff adversary" `Slow test_owf_under_chaff;
    Alcotest.test_case "snark vs chaff adversary" `Slow test_snark_under_chaff;
    Alcotest.test_case "snark vs equivocator" `Slow test_snark_under_equivocation;
    Alcotest.test_case "owf vs equivocator" `Slow test_owf_under_equivocation;
    Alcotest.test_case "snark vs bad-aggregate" `Slow test_snark_under_bad_aggregate;
    Alcotest.test_case "owf vs withhold" `Slow test_owf_under_withhold;
    Alcotest.test_case "snark vs budgeted composite" `Slow
      test_snark_under_budgeted_composite;
  ]
