(* The Experiment outcomes: what bench and ba_sim print, write and gate. *)

open Repro_core

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let has_failure (o : Experiment.outcome) sub =
  List.exists (fun f -> contains f sub) o.failures

(* The phase column of every table row in an outcome's text. *)
let table_tags text =
  let rec rows in_table = function
    | [] -> []
    | l :: rest when String.length l >= 3 && String.sub l 0 3 = "---" -> rows true rest
    | l :: rest when in_table && l <> "" && l.[0] <> '=' && l.[0] <> ' ' ->
      List.hd (String.split_on_char ' ' l) :: rows true rest
    | _ :: rest -> rows false rest
  in
  rows false (String.split_on_char '\n' text)

(* E13 renders each protocol's own cell: the table's phases are exactly
   that protocol's tags above 1% of its traffic (Dolev-Strong included,
   whose single tag no pipeline phase shares). *)
let test_breakdown_per_protocol () =
  List.iter
    (fun protocol ->
      let name = Runner.protocol_name protocol in
      let r = Runner.run ~protocol ~n:40 ~beta:0.1 ~seed:8 () in
      let total = List.fold_left (fun acc (_, b) -> acc + b) 0 r.Runner.r_breakdown in
      let expected =
        List.filter_map
          (fun (g, b) -> if b * 100 > total then Some g else None)
          r.Runner.r_breakdown
      in
      Alcotest.(check bool) (name ^ " sends traffic") true (expected <> []);
      let o = Experiment.breakdown ~protocols:[ protocol ] ~n:40 () in
      Alcotest.(check bool) (name ^ " titles its table") true
        (contains o.Experiment.text ("== " ^ name));
      Alcotest.(check (list string)) (name ^ " phases") expected
        (table_tags o.Experiment.text))
    Runner.all_protocols

(* An attack matrix whose sanity rows all pass proves nothing: the gate
   must call it toothless. *)
let test_attack_toothless () =
  let o =
    Experiment.attack ~n:40 ~betas:[] ~sanity_betas:[ 0.0 ] ~strategies:[ "silent" ] ()
  in
  Alcotest.(check bool) "toothless failure" true (has_failure o "toothless");
  Alcotest.(check int) "the only failure" 1 (List.length o.Experiment.failures)

(* E17 with no baseline in the sweep cannot show the separation. *)
let test_scale_needs_a_baseline () =
  let o = Experiment.scale ~protocols:[ Runner.This_work_owf ] ~ns:[ 64 ] () in
  Alcotest.(check bool) "no-baseline failure" true
    (has_failure o "no baseline exceeded its curve");
  Alcotest.(check int) "the only failure" 1 (List.length o.Experiment.failures);
  Alcotest.(check bool) "the report is still written" true (o.Experiment.report <> None);
  (* Dolev-Strong's polylog declaration is exceeded by design, so it shows
     no separation: only a sqrt-n or linear baseline over its curve does. *)
  let o =
    Experiment.scale ~protocols:[ Runner.This_work_owf; Runner.Dolev_strong ] ~ns:[ 64 ] ()
  in
  Alcotest.(check bool) "dolev-strong is no baseline" true
    (has_failure o "no baseline exceeded its curve");
  Alcotest.(check int) "the only failure with dolev-strong" 1
    (List.length o.Experiment.failures)

(* An experiment's counters are a function of its parameters alone: run
   twice in one process, each of these reads the same, however warm the
   previous run left the domain-local [Wots.verify] memo. Two domains, so the games trials land on a pool worker; the
   pool is reset afterwards, so no worker outlives the test. *)
let test_counters_independent_of_history () =
  let module Counters = Repro_obs.Counters in
  let module Parallel = Repro_util.Parallel in
  let was = Counters.is_enabled () and domains = Parallel.domains () in
  Counters.enable ();
  Parallel.set_domains 2;
  let snapshot run =
    Counters.reset ();
    ignore (run () : Experiment.outcome);
    Counters.snapshot ()
  in
  List.iter
    (fun (name, run) ->
      let first = snapshot run in
      let hashes = Option.value ~default:0 (List.assoc_opt "hashx.hash" first) in
      Alcotest.(check bool) (name ^ " hashes") true (hashes > 0);
      Alcotest.(check (list (pair string int))) name first (snapshot run))
    [
      ("games", fun () -> Experiment.games ~n:64 ~trials:3 ());
      ("boost", fun () -> Experiment.boost ~n:64 ());
      ("thm14", Experiment.thm14);
      ("vrf_grinding", Experiment.vrf_grinding);
      ("succinctness", Experiment.succinctness);
    ];
  Counters.reset ();
  if not was then Counters.disable ();
  Parallel.set_domains domains

let suite =
  [
    Alcotest.test_case "counters independent of run history" `Quick
      test_counters_independent_of_history;
    Alcotest.test_case "breakdown per protocol" `Quick test_breakdown_per_protocol;
    Alcotest.test_case "attack toothless" `Quick test_attack_toothless;
    Alcotest.test_case "scale needs a baseline" `Quick test_scale_needs_a_baseline;
  ]
