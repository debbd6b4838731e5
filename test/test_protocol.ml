(* End-to-end tests of the Fig. 3 balanced BA protocol, the broadcast
   corollary, the boost experiment, and the baselines. Small n keeps these
   quick; the benches sweep larger n. *)

open Repro_core
module Rng = Repro_util.Rng
module Metrics = Repro_net.Metrics

module Ba_owf = Balanced_ba.Make (Srds_owf)
module Ba_snark = Balanced_ba.Make (Srds_snark)
module Ba_multisig = Balanced_ba.Make (Baseline_multisig)

(* Each run builds its own network, whose mask is the corrupt set, and its
   own phase-A setup, as a single-cell caller does, and returns the
   protocol's result with its judged outcome. *)
let net_of ?sinks ~n corrupt = Repro_net.Network.create ?sinks ~n ~corrupt ()

let judged run setup ~corrupt (cfg : Balanced_ba.config) =
  let n = Array.length cfg.inputs in
  let net = net_of ~n corrupt in
  let r = run ~net ~setup:(setup ~n ~seed:cfg.seed) cfg in
  (r, Balanced_ba.outcome net cfg r)

let run_owf = judged Ba_owf.run Ba_owf.setup
let run_snark = judged Ba_snark.run Ba_snark.setup
let run_multisig = judged Ba_multisig.run Ba_multisig.setup

let corrupt_of rng ~n ~count = Rng.subset rng ~n ~size:count

let check_ba run_fn ~label ~n ~t ~seed ~inputs =
  let rng = Rng.create seed in
  let corrupt = corrupt_of rng ~n ~count:t in
  let cfg = Balanced_ba.default_config ~inputs:(Array.init n inputs) ~seed () in
  let (r : Balanced_ba.result), (o : Outcome.t) = run_fn ~corrupt cfg in
  Alcotest.(check bool) (label ^ ": tree good") true r.Balanced_ba.tree_good;
  Alcotest.(check bool) (label ^ ": agreed") true o.agreed;
  Alcotest.(check bool)
    (Printf.sprintf "%s: all decided (%.2f)" label o.decided_fraction)
    true
    (o.decided_fraction > 0.99);
  Alcotest.(check bool) (label ^ ": valid") true o.valid;
  r

let test_ba_owf_mixed_inputs () =
  ignore (check_ba run_owf ~label:"owf" ~n:72 ~t:7 ~seed:5 ~inputs:(fun i -> i mod 2 = 0))

let test_ba_owf_unanimous () =
  let r = check_ba run_owf ~label:"owf-unanimous" ~n:72 ~t:7 ~seed:6 ~inputs:(fun _ -> true) in
  Alcotest.(check (option bool)) "y = 1" (Some true) r.Balanced_ba.y

let test_ba_snark_mixed_inputs () =
  ignore
    (check_ba run_snark ~label:"snark" ~n:72 ~t:7 ~seed:7 ~inputs:(fun i -> i mod 3 = 0))

let test_ba_snark_unanimous_zero () =
  let r =
    check_ba run_snark ~label:"snark-zero" ~n:72 ~t:7 ~seed:8 ~inputs:(fun _ -> false)
  in
  Alcotest.(check (option bool)) "y = 0" (Some false) r.Balanced_ba.y

let test_ba_multisig_pipeline () =
  ignore
    (check_ba run_multisig ~label:"multisig" ~n:72 ~t:7 ~seed:9
       ~inputs:(fun i -> i mod 2 = 1))

let test_ba_no_corruption () =
  ignore (check_ba run_owf ~label:"clean" ~n:64 ~t:0 ~seed:10 ~inputs:(fun i -> i < 32))

let test_ba_communication_balanced () =
  (* balance: max per-party within a small factor of the mean — no central
     party doing Theta(n) of the work (the paper's core claim) *)
  let rng = Rng.create 11 in
  let n = 96 in
  let corrupt = corrupt_of rng ~n ~count:9 in
  let cfg =
    Balanced_ba.default_config ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed:11 ()
  in
  let _, o = run_snark ~corrupt cfg in
  Alcotest.(check bool) "agreed" true o.Outcome.agreed;
  let ratio =
    float_of_int o.Outcome.report.Metrics.max_bytes /. o.Outcome.report.Metrics.mean_bytes
  in
  Alcotest.(check bool) (Printf.sprintf "balanced (max/mean = %.1f)" ratio) true (ratio < 12.0)

let test_ba_snark_cheaper_than_owf () =
  (* the succinct-proof scheme's certificates are ~kappa, the OWF scheme's
     are ~polylog WOTS signatures: communication must reflect it *)
  let run run_fn seed =
    let rng = Rng.create seed in
    let n = 72 in
    let corrupt = corrupt_of rng ~n ~count:7 in
    let cfg =
      Balanced_ba.default_config ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed ()
    in
    let _, (o : Outcome.t) = run_fn ~corrupt cfg in
    o.report.Metrics.max_bytes
  in
  let owf = run run_owf 12 and snark = run run_snark 12 in
  Alcotest.(check bool)
    (Printf.sprintf "snark (%d) << owf (%d)" snark owf)
    true
    (snark * 4 < owf)

(* --- broadcast corollary --- *)

module Bc = Broadcast.Make (Srds_snark)

let test_broadcast_honest_senders () =
  let n = 72 in
  let rng = Rng.create 13 in
  let corrupt = corrupt_of rng ~n ~count:7 in
  let cfg = Balanced_ba.default_config ~inputs:(Array.make n false) ~seed:13 () in
  let honest_senders =
    List.filter (fun p -> not (List.mem p corrupt)) [ 0; 5; 11 ]
  in
  let messages =
    List.map (fun p -> (p, Bytes.of_string (Printf.sprintf "block-%d" p))) honest_senders
  in
  let net = net_of ~n corrupt in
  List.iter
    (fun (e : Broadcast.exec) ->
      let o = Outcome.of_outputs net ~outputs:e.outputs ~expected:(Some e.value) in
      Alcotest.(check bool)
        (Printf.sprintf "sender %d consistent" e.sender)
        true o.agreed;
      Alcotest.(check bool)
        (Printf.sprintf "sender %d delivered (%.2f decided)" e.sender
           o.decided_fraction)
        true (Broadcast.delivered net e o))
    (Bc.run ~net cfg ~messages)

let test_broadcast_amortization () =
  (* more executions must amortize: per-execution max cost decreases *)
  let n = 64 in
  let cfg = Balanced_ba.default_config ~inputs:(Array.make n false) ~seed:14 () in
  let run l =
    let messages = List.init l (fun k -> (k, Bytes.of_string (Printf.sprintf "m%d" k))) in
    let net = net_of ~n [] in
    ignore (Bc.run ~net cfg ~messages);
    float_of_int (Outcome.report net).max_bytes /. float_of_int l
  in
  let one = run 1 and four = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "amortized: %.0f -> %.0f" one four)
    true (four < one)

let test_broadcast_corrupt_sender_consistent () =
  (* a corrupt, silent sender must still leave honest parties consistent *)
  let n = 64 in
  let corrupt = [ 3 ] in
  let cfg = Balanced_ba.default_config ~inputs:(Array.make n false) ~seed:15 () in
  let net = net_of ~n corrupt in
  match Bc.run ~net cfg ~messages:[ (3, Bytes.of_string "never-sent") ] with
  | [ e ] ->
    let o = Outcome.of_outputs net ~outputs:e.outputs ~expected:(Some e.value) in
    Alcotest.(check bool) "consistent" true o.agreed
  | _ -> Alcotest.fail "one exec expected"

(* --- boost experiment (E11) and the Thm 1.3 illustration --- *)

module Boost_owf = Boost.Make (Srds_owf)

let test_boost_recovers_isolated () =
  let cfg = { Boost.isolated_fraction = 0.1; degree = 16; seed = 16 } in
  let r = Boost_owf.run ~net:(net_of ~n:120 [ 1; 2; 3 ]) cfg in
  Alcotest.(check bool)
    (Printf.sprintf "recovered %.2f" r.Boost.recovered_fraction)
    true
    (r.Boost.recovered_fraction > 0.95);
  Alcotest.(check (float 0.0001)) "none fooled" 0.0 r.Boost.fooled_fraction

let test_boost_degree_zero_fails () =
  let cfg = { Boost.isolated_fraction = 0.2; degree = 1; seed = 17 } in
  let r = Boost_owf.run ~net:(net_of ~n:120 []) cfg in
  (* degree 1 cannot cover everyone *)
  Alcotest.(check bool)
    (Printf.sprintf "partial recovery %.2f" r.Boost.recovered_fraction)
    true
    (r.Boost.recovered_fraction < 1.0)

let test_boost_unauthenticated_attackable () =
  (* without SRDS verification the conflict-flooding adversary fools
     isolated parties — the Thm 1.3 attack surface *)
  let cfg = { Boost.isolated_fraction = 0.15; degree = 16; seed = 18 } in
  let net () = net_of ~n:120 [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let r = Boost_owf.run_unauthenticated ~net:(net ()) cfg in
  Alcotest.(check bool)
    (Printf.sprintf "some isolated fooled (%.2f)" r.Boost.fooled_fraction)
    true
    (r.Boost.fooled_fraction > 0.0);
  (* and the authenticated version shrugs the same adversary off *)
  let r' = Boost_owf.run ~net:(net ()) cfg in
  Alcotest.(check (float 0.0001)) "authenticated unfooled" 0.0 r'.Boost.fooled_fraction

(* --- baselines --- *)

let test_sqrt_baseline () =
  let n = 144 in
  let rng = Rng.create 19 in
  let corrupt = corrupt_of rng ~n ~count:14 in
  let holders =
    List.filter (fun p -> not (List.mem p corrupt)) (List.init n (fun p -> p))
    |> List.filteri (fun i _ -> i mod 10 <> 0)
  in
  let net = net_of ~n corrupt in
  let outputs = Baseline_sqrt.run ~net { holders; value = true } in
  let o = Outcome.of_outputs net ~outputs ~expected:(Some true) in
  Alcotest.(check bool) "agreed" true o.agreed;
  Alcotest.(check bool)
    (Printf.sprintf "correct %.2f" o.correct_fraction)
    true
    (o.correct_fraction > 0.99);
  (* per-party communication ~ sqrt(n) messages of ~6 bytes *)
  let max_b = o.report.Metrics.max_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "sqrt-scale bytes (%d)" max_b)
    true
    (max_b < 40 * Repro_util.Mathx.isqrt n)

let test_naive_baseline () =
  let n = 100 in
  let rng = Rng.create 20 in
  let corrupt = corrupt_of rng ~n ~count:10 in
  let holders =
    List.filter (fun p -> not (List.mem p corrupt)) (List.init n (fun p -> p))
  in
  let net = net_of ~n corrupt in
  let outputs = Baseline_naive.run ~net { holders; value = false } in
  let o = Outcome.of_outputs net ~outputs ~expected:(Some false) in
  Alcotest.(check bool) "agreed" true o.agreed;
  Alcotest.(check bool) "correct" true (o.correct_fraction > 0.99);
  (* per-party cost is Theta(n) *)
  Alcotest.(check bool) "linear bytes" true (o.report.Metrics.max_bytes > 5 * n)

(* --- phase A as a value: shared setups --- *)

(* One Dolev-Strong PKI backs several runs: each signs with unused copies
   of the keys, so sharing it changes no transcript, whether the runs
   follow one another or overlap on two domains. A run that consumed the
   shared keys' leaves would shift the next run's signatures. *)
let test_dolev_shared_pki () =
  let n = 16 and seed = 3 in
  let cfgs =
    [
      ([], { Baseline_dolev.value = true; seed });
      ([ 2; 7; 11 ], { Baseline_dolev.value = false; seed });
    ]
  in
  let run pki (corrupt, cfg) =
    let tap, digest = Runner.digest_sink () in
    let net = net_of ~sinks:[ tap ] ~n corrupt in
    let outputs = Baseline_dolev.run ~net ~pki cfg in
    (digest (), outputs, (Outcome.report net).Metrics.total_bytes)
  in
  let fresh = List.map (fun cfg -> run (Baseline_dolev.pki ~n ~seed) cfg) cfgs in
  let pki = Baseline_dolev.pki ~n ~seed in
  let check what got =
    List.iter2
      (fun (d0, o0, b0) (d, o, b) ->
        Alcotest.(check string) (what ^ ": transcript") d0 d;
        Alcotest.(check bool) (what ^ ": outputs") true (o0 = o);
        Alcotest.(check int) (what ^ ": bytes") b0 b)
      fresh got
  in
  check "back to back" (List.map (run pki) cfgs);
  check "back to back, again" (List.map (run pki) cfgs);
  let saved = Repro_util.Parallel.domains () in
  Repro_util.Parallel.set_domains 2;
  let concurrent = Repro_util.Parallel.map_list ~chunk:1 (run pki) cfgs in
  Repro_util.Parallel.set_domains saved;
  check "concurrent on 2 domains" concurrent

(* A run refuses a setup or a PKI built for another run, and inputs for a
   network of another n. *)
let test_setup_rejects_other_run () =
  let cfg ~n ~seed = Balanced_ba.default_config ~inputs:(Array.make n true) ~seed () in
  let setup = Ba_owf.setup ~n:32 ~seed:1 in
  let net32 = net_of ~n:32 [] and net40 = net_of ~n:40 [] in
  let rejects what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": accepted")
    | exception Invalid_argument _ -> ()
  in
  rejects "other seed" (fun () ->
      ignore (Ba_owf.make_ctx ~net:net32 ~setup (cfg ~n:32 ~seed:2)));
  rejects "other n" (fun () ->
      ignore (Ba_owf.make_ctx ~net:net40 ~setup (cfg ~n:40 ~seed:1)));
  rejects "inputs of another n" (fun () ->
      ignore (Ba_owf.make_ctx ~net:net32 ~setup (cfg ~n:40 ~seed:1)));
  let pki = Baseline_dolev.pki ~n:8 ~seed:1 in
  rejects "dolev-strong, other seed" (fun () ->
      ignore
        (Baseline_dolev.run ~net:(net_of ~n:8 []) ~pki
           { Baseline_dolev.value = true; seed = 2 }));
  rejects "dolev-strong, PKI of another n" (fun () ->
      ignore
        (Baseline_dolev.run ~net:(net_of ~n:9 []) ~pki
           { Baseline_dolev.value = true; seed = 1 }));
  ignore (Ba_owf.make_ctx ~net:net32 ~setup (cfg ~n:32 ~seed:1))

(* --- runner rows --- *)

let test_runner_rows_all_ok () =
  List.iter
    (fun protocol ->
      let row = Runner.run ~protocol ~n:64 ~beta:0.08 ~seed:21 () in
      Alcotest.(check bool)
        (row.Runner.r_protocol ^ " ok: " ^ row.Runner.r_note)
        true row.Runner.r_ok)
    Runner.all_protocols

let test_runner_sqrt_vs_naive_shape () =
  (* sqrt baseline must be cheaper than naive flooding at moderate n *)
  let sqrt_row = Runner.run ~protocol:Runner.Sqrt_boost ~n:256 ~beta:0.1 ~seed:22 () in
  let naive_row = Runner.run ~protocol:Runner.Naive_boost ~n:256 ~beta:0.1 ~seed:22 () in
  Alcotest.(check bool) "sqrt < naive" true
    (sqrt_row.Runner.r_max_bytes < naive_row.Runner.r_max_bytes)

let suite =
  [
    Alcotest.test_case "ba owf mixed" `Slow test_ba_owf_mixed_inputs;
    Alcotest.test_case "ba owf unanimous" `Slow test_ba_owf_unanimous;
    Alcotest.test_case "ba snark mixed" `Slow test_ba_snark_mixed_inputs;
    Alcotest.test_case "ba snark zero" `Slow test_ba_snark_unanimous_zero;
    Alcotest.test_case "ba multisig pipeline" `Slow test_ba_multisig_pipeline;
    Alcotest.test_case "ba no corruption" `Slow test_ba_no_corruption;
    Alcotest.test_case "ba balanced" `Slow test_ba_communication_balanced;
    Alcotest.test_case "ba snark cheaper" `Slow test_ba_snark_cheaper_than_owf;
    Alcotest.test_case "broadcast honest" `Slow test_broadcast_honest_senders;
    Alcotest.test_case "broadcast amortize" `Slow test_broadcast_amortization;
    Alcotest.test_case "broadcast corrupt sender" `Slow test_broadcast_corrupt_sender_consistent;
    Alcotest.test_case "boost recovery" `Quick test_boost_recovers_isolated;
    Alcotest.test_case "boost low degree" `Quick test_boost_degree_zero_fails;
    Alcotest.test_case "boost thm1.3 attack" `Quick test_boost_unauthenticated_attackable;
    Alcotest.test_case "baseline sqrt" `Quick test_sqrt_baseline;
    Alcotest.test_case "baseline naive" `Quick test_naive_baseline;
    Alcotest.test_case "dolev-strong shared pki" `Quick test_dolev_shared_pki;
    Alcotest.test_case "setup rejects other (n, seed)" `Quick test_setup_rejects_other_run;
    Alcotest.test_case "runner all ok" `Slow test_runner_rows_all_ok;
    Alcotest.test_case "runner shapes" `Slow test_runner_sqrt_vs_naive_shape;
  ]
