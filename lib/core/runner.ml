(* Experiment cells: runs every protocol of Table 1 under identical
   conditions on the metered network and returns the measured records and
   their JSON objects. The experiments that sweep, render and gate these
   cells live in Experiment; EXPERIMENTS.md records their outputs. *)

module Rng = Repro_util.Rng
module Mathx = Repro_util.Mathx
module Parallel = Repro_util.Parallel
module Json = Repro_util.Json
module Metrics = Repro_net.Metrics
module Audit = Repro_obs.Audit
module Sched = Repro_net.Sched

type protocol =
  | This_work_owf (* Fig. 3 over the OWF/trusted-PKI SRDS *)
  | This_work_snark (* Fig. 3 over the SNARK/bare-PKI SRDS *)
  | Multisig_boost (* same pipeline over Theta(n) multisignature certs [13] *)
  | Sqrt_boost (* KS'09-style quorums, Theta~(sqrt n)/party *)
  | Naive_boost (* flooding, Theta(n)/party *)
  | Dolev_strong (* authenticated Dolev-Strong broadcast, Theta(n^2) msgs *)

let all_protocols =
  [
    This_work_owf; This_work_snark; Multisig_boost; Sqrt_boost; Naive_boost;
    Dolev_strong;
  ]

let protocol_name = function
  | This_work_owf -> "this-work-owf"
  | This_work_snark -> "this-work-snark"
  | Multisig_boost -> "multisig-boost"
  | Sqrt_boost -> "sqrt-quorum"
  | Naive_boost -> "naive-flood"
  | Dolev_strong -> "dolev-strong"

let protocol_of_name = function
  | "this-work-owf" | "owf" -> Some This_work_owf
  | "this-work-snark" | "snark" -> Some This_work_snark
  | "multisig-boost" | "multisig" -> Some Multisig_boost
  | "sqrt-quorum" | "sqrt" -> Some Sqrt_boost
  | "naive-flood" | "naive" -> Some Naive_boost
  | "dolev-strong" | "ds" -> Some Dolev_strong
  | _ -> None

(* Declared audit budgets, all of the paper's polylog form c*log^k(n)*kappa^j.

   The two this-work instantiations declare curves calibrated against their
   own measured costs over the whole swept range (n = 64 .. 4096, headroom
   ~2x at the tightest point): the acceptance bar is that they PASS their
   polylog budgets at every swept n. The baselines declare the budget a
   polylog-per-party protocol would have to meet. Naive flooding touches
   n-1 peers in one round and exceeds every check already at n = 64 — the
   auditor provably has teeth. sqrt-quorum and multisig-boost breach their
   curves only as n grows (at simulation scale sqrt(n) and 2 log n are
   comparable), which is itself the honest asymptotic picture.

   Locality calibration note: per-round distinct peers on the tree are
   (level-2 memberships) x branching x leaf_size — a party on m level-2
   committees forwards to m*branching child leaves in one dissemination
   round. branching and leaf_size are Theta(log n) in the scaled profile
   and the max membership count m grows like a balls-in-bins max load, so
   the honest curve is Theta~(log^3 n): 2*log^3 covers the measured maxima
   (457 @ 512, 860 @ 1024, 1844 @ 4096) with ~2x headroom. A log^2 curve —
   the per-membership cost — sits under the measured values from n = 512
   on, which is what the audit caught when the sparse engine first made
   those n reachable. *)
let budgets_of = function
  | This_work_owf ->
    (* WOTS-chain certificates: kappa^2-heavy rounds; the single biggest
       round is the G-phase certificate dissemination (~33 Mbit at n=64,
       ~708 Mbit at n=4096), so round-bits and total-bits ride the same
       curve: one dissemination round carries almost the whole budget. *)
    {
      Audit.round_bits = Some (Audit.curve ~c:48.0 ~log_exp:3 ~kappa_exp:2);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:3 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:48.0 ~log_exp:3 ~kappa_exp:2);
    }
  | This_work_snark ->
    (* Succinct certificates; the dominant single round is the committee
       coin toss (Shamir share fan-out, ~0.66 Mbit at n=64). *)
    {
      Audit.round_bits = Some (Audit.curve ~c:4.0 ~log_exp:2 ~kappa_exp:2);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:3 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:128.0 ~log_exp:3 ~kappa_exp:1);
    }
  | Multisig_boost ->
    (* Same pipeline and budget as the snark instantiation; the Theta(n)
       bitmask certificates outgrow the total-bits curve as n rises
       (footnote 8), which is exactly what the audit should surface. *)
    {
      Audit.round_bits = Some (Audit.curve ~c:4.0 ~log_exp:2 ~kappa_exp:2);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:3 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:128.0 ~log_exp:3 ~kappa_exp:1);
    }
  | Sqrt_boost ->
    {
      Audit.round_bits = Some (Audit.curve ~c:4.0 ~log_exp:1 ~kappa_exp:1);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:1 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:8.0 ~log_exp:1 ~kappa_exp:1);
    }
  | Naive_boost ->
    {
      Audit.round_bits = Some (Audit.curve ~c:4.0 ~log_exp:1 ~kappa_exp:1);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:1 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:8.0 ~log_exp:1 ~kappa_exp:1);
    }
  | Dolev_strong ->
    (* The authenticated reference point: Theta(n^2) messages carrying
       O(t)-deep signature chains. Declared against the same polylog bar
       as the flooding baseline — it exceeds every check, which is the
       Table 1 separation the audit should exhibit. *)
    {
      Audit.round_bits = Some (Audit.curve ~c:4.0 ~log_exp:1 ~kappa_exp:1);
      round_locality = Some (Audit.curve ~c:2.0 ~log_exp:1 ~kappa_exp:0);
      total_bits = Some (Audit.curve ~c:8.0 ~log_exp:1 ~kappa_exp:1);
    }

let make_auditor ~protocol ~n =
  Audit.create ~label:(protocol_name protocol) ~n ~budgets:(budgets_of protocol)
    ()

type row = {
  r_protocol : string;
  r_n : int;
  r_beta : float;
  r_rounds : int;
  r_max_bytes : int; (* max per-party sent+received *)
  r_mean_bytes : float;
  r_p50_bytes : float;
  r_p95_bytes : float;
  r_p99_bytes : float;
  r_stddev_bytes : float;
  r_total_bytes : int;
  r_locality : int;
  r_ok : bool; (* protocol-specific success: agreement/validity held *)
  r_note : string;
  r_breakdown : (string * int) list; (* sent bytes per tag group *)
}

(* All row construction flows through this, so a new report statistic lands
   in every experiment's row at once. *)
let row_of_report ~protocol ~n ~beta ~(report : Metrics.report) ~ok ~note
    ~breakdown =
  {
    r_protocol = protocol;
    r_n = n;
    r_beta = beta;
    r_rounds = report.Metrics.rounds;
    r_max_bytes = report.Metrics.max_bytes;
    r_mean_bytes = report.Metrics.mean_bytes;
    r_p50_bytes = report.Metrics.p50_bytes;
    r_p95_bytes = report.Metrics.p95_bytes;
    r_p99_bytes = report.Metrics.p99_bytes;
    r_stddev_bytes = report.Metrics.stddev_bytes;
    r_total_bytes = report.Metrics.total_bytes;
    r_locality = report.Metrics.max_locality;
    r_ok = ok;
    r_note = note;
    r_breakdown = breakdown;
  }

(* One JSON object per record type below, shared by every report that
   carries the record (ba_sim's artifacts and BENCH_results.json alike).
   A float's decimals are part of its schema: see {!Json.fixed}. *)
let row_fields r =
  Json.
    [
      "protocol", Str r.r_protocol; "n", int r.r_n; "beta", fixed 3 r.r_beta;
      "rounds", int r.r_rounds; "max_bytes", int r.r_max_bytes;
      "mean_bytes", fixed 1 r.r_mean_bytes; "p50_bytes", fixed 1 r.r_p50_bytes;
      "p95_bytes", fixed 1 r.r_p95_bytes; "p99_bytes", fixed 1 r.r_p99_bytes;
      "stddev_bytes", fixed 1 r.r_stddev_bytes;
      "total_bytes", int r.r_total_bytes; "locality", int r.r_locality;
      "ok", Bool r.r_ok; "note", Str r.r_note;
      "tag_breakdown", Metrics.breakdown_json r.r_breakdown;
    ]

let row_json r = Json.Obj (row_fields r)

module Ba_owf = Balanced_ba.Make (Srds_owf)
module Ba_snark = Balanced_ba.Make (Srds_snark)
module Ba_multisig = Balanced_ba.Make (Baseline_multisig)

let corrupt_set rng ~n ~beta =
  Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n))

(* Holders for boost-only baselines: the almost-everywhere precondition,
   all honest parties except a small isolated fraction. *)
let holders rng ~n ~corrupt =
  let honest = List.filter (fun p -> not (List.mem p corrupt)) (List.init n (fun p -> p)) in
  let arr = Array.of_list honest in
  Rng.shuffle rng arr;
  let iso = max 1 (Array.length arr / 20) in
  Array.sub arr iso (Array.length arr - iso) |> Array.to_list

let run_full_ba name run_fn ~n ~beta ~seed : row =
  let rng = Rng.create seed in
  let corrupt = corrupt_set rng ~n ~beta in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let cfg = Balanced_ba.default_config ~n ~corrupt ~inputs ~seed () in
  let (r : Balanced_ba.result) = run_fn ~n ~seed cfg in
  row_of_report ~protocol:name ~n ~beta ~report:r.Balanced_ba.report
    ~ok:(r.Balanced_ba.agreed && r.Balanced_ba.decided_fraction > 0.99)
    ~note:
      (Printf.sprintf "decided=%.2f%s" r.Balanced_ba.decided_fraction
         (if r.Balanced_ba.tree_good then "" else " tree-degraded"))
    ~breakdown:r.Balanced_ba.breakdown

(* Every cell starts from cold per-domain crypto caches. A cell must not
   inherit what its domain verified before: a [Wots.verify] memo hit skips
   the chain steps and the vk hash that the deterministic [hashx.hash]
   counter counts, so a warm cache would make a cell's counters depend on
   which cells its domain ran first. *)
let cold_caches () =
  Repro_crypto.Hashx.clear_cache ();
  Repro_crypto.Wots.clear_cache ()

(* [sinks] subscribe to the protocol's own network, [backend] configures
   its executor and [condition] is attached to it; callers that want the
   auditor's verdict use {!run_audited}, callers that want the
   flight-recorded log use {!run_recorded}, callers pinning transcripts
   use {!run_digest}. *)
let run_with ?sinks ?backend ?condition ~protocol ~n ~beta ~seed () : row =
  cold_caches ();
  match protocol with
  | This_work_owf ->
    run_full_ba "this-work-owf"
      (fun ~n ~seed cfg ->
        Ba_owf.run ?sinks ?backend ?condition ~setup:(Ba_owf.setup ~n ~seed) cfg)
      ~n ~beta ~seed
  | This_work_snark ->
    run_full_ba "this-work-snark"
      (fun ~n ~seed cfg ->
        Ba_snark.run ?sinks ?backend ?condition ~setup:(Ba_snark.setup ~n ~seed) cfg)
      ~n ~beta ~seed
  | Multisig_boost ->
    run_full_ba "multisig-boost"
      (fun ~n ~seed cfg ->
        Ba_multisig.run ?sinks ?backend ?condition
          ~setup:(Ba_multisig.setup ~n ~seed) cfg)
      ~n ~beta ~seed
  | Sqrt_boost ->
    let rng = Rng.create seed in
    let corrupt = corrupt_set rng ~n ~beta in
    let holders = holders rng ~n ~corrupt in
    let r =
      Baseline_sqrt.run ?sinks ?backend ?condition
        { n; corrupt; holders; value = true; seed }
    in
    row_of_report ~protocol:"sqrt-quorum" ~n ~beta ~report:r.Baseline_sqrt.report
      ~ok:(r.Baseline_sqrt.agreed && r.Baseline_sqrt.correct_fraction > 0.99)
      ~note:(Printf.sprintf "correct=%.2f" r.Baseline_sqrt.correct_fraction)
      ~breakdown:r.Baseline_sqrt.breakdown
  | Naive_boost ->
    let rng = Rng.create seed in
    let corrupt = corrupt_set rng ~n ~beta in
    let holders = holders rng ~n ~corrupt in
    let r =
      Baseline_naive.run ?sinks ?backend ?condition
        { n; corrupt; holders; value = true; seed }
    in
    row_of_report ~protocol:"naive-flood" ~n ~beta ~report:r.Baseline_naive.report
      ~ok:(r.Baseline_naive.agreed && r.Baseline_naive.correct_fraction > 0.99)
      ~note:(Printf.sprintf "correct=%.2f" r.Baseline_naive.correct_fraction)
      ~breakdown:r.Baseline_naive.breakdown
  | Dolev_strong ->
    let rng = Rng.create seed in
    let corrupt = corrupt_set rng ~n ~beta in
    let r =
      Baseline_dolev.run ?sinks ?backend ?condition
        ~pki:(Baseline_dolev.pki ~n ~seed)
        { n; corrupt; value = true; seed }
    in
    (* Broadcast validity is vacuous under a corrupt designated sender:
       the corrupt set is a uniform draw, so the sender lands in it with
       probability beta — agreement (on the default) must still hold. *)
    let sender_corrupt = List.mem 0 corrupt in
    row_of_report ~protocol:"dolev-strong" ~n ~beta
      ~report:r.Baseline_dolev.report
      ~ok:
        (r.Baseline_dolev.agreed
        && (sender_corrupt || r.Baseline_dolev.correct_fraction > 0.99))
      ~note:
        (Printf.sprintf "correct=%.2f%s" r.Baseline_dolev.correct_fraction
           (if sender_corrupt then " sender-corrupt" else ""))
      ~breakdown:r.Baseline_dolev.breakdown

let run_audited ?backend ~protocol ~n ~beta ~seed () : row * Audit.t =
  let a = make_auditor ~protocol ~n in
  let row = run_with ?backend ~sinks:[ Audit.observe a ] ~protocol ~n ~beta ~seed () in
  Audit.finalize a;
  (row, a)

(* In global audit mode every run carries an auditor; its violations reach
   the [audit.violations] registry counter even though the instance itself
   is dropped here. *)
let run ?backend ~protocol ~n ~beta ~seed () : row =
  if Audit.global_enabled () then
    fst (run_audited ?backend ~protocol ~n ~beta ~seed ())
  else run_with ?backend ~protocol ~n ~beta ~seed ()

(* --- E14: the full protocol under setup-aware corruption ---

   The adversary corrupts after seeing the public slot assignment (the
   Fig. 3 idmap). We rebuild exactly the assignment the protocol will use
   (same seed derivation as Balanced_ba.make_ctx), hand it to the chosen
   Attacks strategy, and run the protocol against the resulting corrupt
   set. Committees are elected after corruption, so leaf-killing is the
   strongest in-model strategy. *)

module Attacks = Repro_aetree.Attacks
module Aetree_params = Repro_aetree.Params
module Aetree_tree = Repro_aetree.Tree

let corrupt_by_strategy ~strategy ~n ~beta ~seed =
  let rng = Rng.create seed in
  let params = Aetree_params.default n in
  let slot_party = Aetree_tree.assignment params (Rng.of_label rng "assignment") in
  (* provisional committees: the strategy may only rely on the assignment
     (committees are elected post-corruption) *)
  let tree =
    Aetree_tree.build params ~slot_party ~committee_rng:(Rng.of_label rng "provisional")
  in
  Attacks.corrupt_set tree ~strategy
    ~budget:(int_of_float (beta *. float_of_int n))
    ~rng:(Rng.of_label rng "attack")

let run_under_attack ~strategy ~n ~beta ~seed : row =
  cold_caches ();
  let corrupt = corrupt_by_strategy ~strategy ~n ~beta ~seed in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let cfg = Balanced_ba.default_config ~n ~corrupt ~inputs ~seed () in
  let r = Ba_snark.run ~setup:(Ba_snark.setup ~n ~seed) cfg in
  row_of_report
    ~protocol:("this-work-snark/" ^ Attacks.strategy_name strategy)
    ~n ~beta ~report:r.Balanced_ba.report
    ~ok:(r.Balanced_ba.agreed && r.Balanced_ba.decided_fraction > 0.99)
    ~note:
      (Printf.sprintf "decided=%.2f%s" r.Balanced_ba.decided_fraction
         (if r.Balanced_ba.tree_good then "" else " tree-degraded"))
    ~breakdown:r.Balanced_ba.breakdown

(* --- E16: the seeded attack matrix ---

   Sweeps the Fig. 3 pipeline protocols against every strategy of the
   composable adversary portfolio (lib/adversary) at several corruption
   rates and seeds, asserting agreement + validity on every honest output.
   Cells at beta >= 1/3 are sanity rows annotated expected-fail: the
   protocol is outside its corruption model there, and at least one such
   cell breaking is the harness's proof that its checks have teeth. *)

module Strategy = Repro_adversary.Strategy
module Condition = Repro_adversary.Condition

type attack_cell = {
  ac_protocol : string;
  ac_strategy : string;
  ac_n : int;
  ac_beta : float;
  ac_seed : int;
  ac_agreed : bool;
  ac_decided : float;
  ac_valid : bool;
  ac_ok : bool; (* agreed, >95% of honest parties decided, validity held *)
  ac_expect_fail : bool; (* sanity row / planted condition: may fail *)
  ac_condition : string; (* "none": content-only cell under [backend] *)
  ac_gated : bool; (* counts toward the matrix gate (reference rows do not) *)
  ac_rounds : int;
  ac_vt : int; (* final virtual time (= rounds under lock-step) *)
  ac_pre_gst_lost : int; (* condition cells: pre-GST slow deliveries *)
  ac_post_gst_late : int; (* 0 by the partial-synchrony contract *)
}

type attack_matrix = {
  am_n : int;
  am_betas : float list; (* cells that must pass *)
  am_sanity_betas : float list; (* annotated beta >= 1/3 rows *)
  am_seeds : int list;
  am_protocols : string list;
  am_strategies : string list;
  am_conditions : string list; (* network conditions swept (may be empty) *)
  am_cells : attack_cell list; (* deterministic input order *)
  am_gate_ok : bool; (* every gated non-sanity cell is ok *)
  am_teeth : bool; (* some sanity cell actually failed *)
  am_condition_teeth : bool;
      (* the planted never-healing partition and unbounded adaptive rows
         exist and both actually failed: the condition checks have teeth *)
}

(* The content-only matrix covers the protocols whose adversary hook
   threads through every phase of the pipeline (Balanced_ba's
   [config.adversary]). *)
let attack_protocols = [ This_work_owf; This_work_snark ]

(* The condition sweep adds the authenticated Dolev-Strong baseline as an
   ungated reference row: its round-exact chain-depth discipline is
   brittle under reordering (a relay deferred past its round arrives with
   the wrong depth and is discarded), so its cells inform the separation
   story without gating the matrix. *)
let condition_protocols = [ This_work_owf; This_work_snark; Dolev_strong ]

let default_chaos ~seed : Sched.async_cfg =
  { Sched.a_seed = seed; a_delta = 2; a_jitter = 3; a_loss = 0.1; a_gst = 24 }

let c_attack_cells = Repro_obs.Counters.make "attack.cells"

(* A cell's one-time setup: the SRDS keys of a pipeline protocol or the
   Dolev-Strong PKI. It is a function of (protocol, n, seed) only, so a
   matrix builds one per distinct triple and hands it to every cell that
   shares it; a cell run alone builds its own. *)
type cell_setup =
  | Owf_keys of Ba_owf.setup
  | Snark_keys of Ba_snark.setup
  | Ds_pki of Baseline_dolev.pki

let cell_setup ~protocol ~n ~seed =
  match protocol with
  | This_work_owf -> Owf_keys (Ba_owf.setup ~n ~seed)
  | This_work_snark -> Snark_keys (Ba_snark.setup ~n ~seed)
  | Dolev_strong -> Ds_pki (Baseline_dolev.pki ~n ~seed)
  | _ -> invalid_arg "cell_setup: owf/snark pipelines or dolev-strong only"

(* One setup per distinct (protocol, n, seed) among [keys], as an
   association list. Built on the calling domain before a matrix fans its
   cells out; each keygen fans out on the pool itself. *)
let cell_setups keys =
  List.map
    (fun ((protocol, n, seed) as k) -> (k, cell_setup ~protocol ~n ~seed))
    (List.sort_uniq compare keys)

let run_cell ~setup ?sinks ?backend ?condition_name ?(gated = true)
    ~protocol ~strategy_name ~n ~beta ~seed ~expect_fail () =
  cold_caches ();
  let strategy =
    match Strategy.find ~n ~seed strategy_name with
    | Some s -> s
    | None -> invalid_arg ("attack matrix: unknown strategy " ^ strategy_name)
  in
  let adversary = Strategy.instantiate strategy ~seed in
  let condition =
    match condition_name with
    | None -> None
    | Some cn -> (
      match Condition.find cn with
      | Some c -> Some c
      | None -> invalid_arg ("attack matrix: unknown condition " ^ cn))
  in
  (* A condition cell runs under the caller's executor configuration, or
     {!default_chaos} if none is given; without a condition the executor
     stays whatever the caller chose (default lock-step), so the legacy
     matrix is byte-identical to repro-attack/1. *)
  let backend, cond_inst =
    match condition with
    | None -> (backend, None)
    | Some c ->
      let cfg =
        match backend with Some b -> Sched.cfg_of b | None -> default_chaos ~seed
      in
      (Some (Sched.Async cfg), Some (Condition.prepare c ~n ~beta ~seed ~cfg))
  in
  let rng = Rng.create seed in
  (* The static corrupt set stays the run's first RNG draw; an adaptive
     condition reserves part of the beta budget for mid-run upgrades, so
     static + upgrades never exceed floor(beta * n). *)
  let corrupt =
    match condition with
    | None -> corrupt_set rng ~n ~beta
    | Some c -> Rng.subset rng ~n ~size:(Condition.static_size c ~n ~beta)
  in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let pipeline (r : Balanced_ba.result) =
    ( r.Balanced_ba.agreed,
      r.Balanced_ba.decided_fraction,
      r.Balanced_ba.valid,
      r.Balanced_ba.report.Metrics.rounds,
      r.Balanced_ba.net )
  in
  let cfg = Balanced_ba.default_config ~adversary ~n ~corrupt ~inputs ~seed () in
  let agreed, decided, valid, rounds, net =
    match (protocol, setup) with
    | This_work_owf, Owf_keys setup ->
      pipeline (Ba_owf.run ?sinks ?backend ?condition:cond_inst ~setup cfg)
    | This_work_snark, Snark_keys setup ->
      pipeline (Ba_snark.run ?sinks ?backend ?condition:cond_inst ~setup cfg)
    | Dolev_strong, Ds_pki pki ->
      let (r : Baseline_dolev.result) =
        Baseline_dolev.run ?sinks ?backend ?condition:cond_inst
          ~adversary ~pki { n; corrupt; value = true; seed }
      in
      (* broadcast validity is vacuous under a corrupt designated sender *)
      let valid =
        List.mem 0 corrupt || r.Baseline_dolev.correct_fraction > 0.99
      in
      ( r.Baseline_dolev.agreed,
        r.Baseline_dolev.decided_fraction,
        valid,
        r.Baseline_dolev.report.Metrics.rounds,
        r.Baseline_dolev.net )
    | _ -> invalid_arg "attack matrix: cell setup built for another protocol"
  in
  let stats = Repro_net.Network.async_stats net in
  let ok =
    agreed && decided > 0.95 && valid
    && (Option.is_none condition || stats.Sched.st_post_gst_late = 0)
  in
  Repro_obs.Counters.bump c_attack_cells;
  if (not ok) && gated && not expect_fail then
    Repro_obs.Counters.bump
      (Repro_obs.Counters.make ("attack.violations." ^ strategy_name));
  {
    ac_protocol = protocol_name protocol;
    ac_strategy = strategy_name;
    ac_n = n;
    ac_beta = beta;
    ac_seed = seed;
    ac_agreed = agreed;
    ac_decided = decided;
    ac_valid = valid;
    ac_ok = ok;
    ac_expect_fail = expect_fail;
    ac_condition = (match condition_name with Some c -> c | None -> "none");
    ac_gated = gated;
    ac_rounds = rounds;
    ac_vt = Repro_net.Network.virtual_time net;
    ac_pre_gst_lost = stats.Sched.st_pre_gst_lost;
    ac_post_gst_late = stats.Sched.st_post_gst_late;
  }

let run_attack_cell ?sinks ?backend ?condition_name ?gated ~protocol
    ~strategy_name ~n ~beta ~seed ~expect_fail () =
  run_cell ~setup:(cell_setup ~protocol ~n ~seed) ?sinks ?backend
    ?condition_name ?gated ~protocol ~strategy_name ~n ~beta ~seed ~expect_fail ()

let attack_matrix ?(betas = [ 0.0; 0.0625; 0.125 ]) ?(sanity_betas = [ 0.45 ])
    ?(seeds = [ 1 ]) ?strategies ?(conditions = []) ~n () =
  let strategies =
    match strategies with
    | Some ss -> ss
    | None -> List.map Strategy.name (Strategy.catalogue ~n ~seed:1)
  in
  (* Deterministic cell order: seed-major, then beta (required before
     sanity), strategy, protocol. Cells are independent simulations keyed
     only by their own parameters, so they fan out on the domain pool with
     bit-identical results at any pool size. A cell spec is
     (protocol, strategy, beta, seed, expect_fail, condition, gated). *)
  let cells =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun (beta, expect_fail) ->
            List.concat_map
              (fun strategy_name ->
                List.map
                  (fun protocol ->
                    (protocol, strategy_name, beta, seed, expect_fail, None, true))
                  attack_protocols)
              strategies)
          (List.map (fun b -> (b, false)) betas
          @ List.map (fun b -> (b, true)) sanity_betas))
      seeds
  in
  (* Condition cells extend the sweep with the network-condition axis at
     the gate betas (a condition is orthogonal to the sanity rows — those
     prove the *content* checks have teeth; the planted condition rows
     below prove the condition checks do). The Dolev-Strong reference rows
     ride along ungated. *)
  let condition_cells =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun beta ->
            List.concat_map
              (fun condition ->
                List.concat_map
                  (fun strategy_name ->
                    List.map
                      (fun protocol ->
                        ( protocol, strategy_name, beta, seed, false,
                          Some condition, protocol <> Dolev_strong ))
                      condition_protocols)
                  strategies)
              conditions)
          betas)
      seeds
  in
  (* Planted teeth rows: a never-healing bidirectional half-split must
     break liveness, and an adaptive adversary with no corruption budget
     must break agreement/validity. Both are expect-fail; the matrix's
     [am_condition_teeth] verdict is that they exist and actually failed. *)
  let teeth_cells =
    if conditions = [] then []
    else
      let seed = match seeds with s :: _ -> s | [] -> 1 in
      [
        ( This_work_owf, "silent", 0.125, seed, true, Some "partition-forever",
          true );
        ( This_work_owf, "silent", 0.125, seed, true,
          Some "adaptive-unbounded", true );
      ]
  in
  let specs = cells @ condition_cells @ teeth_cells in
  let setups =
    cell_setups (List.map (fun (protocol, _, _, seed, _, _, _) -> (protocol, n, seed)) specs)
  in
  let results =
    Parallel.map_list ~chunk:1
      (fun (protocol, strategy_name, beta, seed, expect_fail, condition_name, gated) ->
        run_cell ~setup:(List.assoc (protocol, n, seed) setups) ?condition_name ~gated
          ~protocol ~strategy_name ~n ~beta ~seed ~expect_fail ())
      specs
  in
  let condition_teeth_cells =
    List.filter
      (fun c -> c.ac_expect_fail && c.ac_condition <> "none")
      results
  in
  {
    am_n = n;
    am_betas = betas;
    am_sanity_betas = sanity_betas;
    am_seeds = seeds;
    am_protocols = List.map protocol_name attack_protocols;
    am_strategies = strategies;
    am_conditions = conditions;
    am_cells = results;
    am_gate_ok =
      List.for_all
        (fun c -> c.ac_ok || c.ac_expect_fail || not c.ac_gated)
        results;
    am_teeth =
      List.exists
        (fun c -> c.ac_expect_fail && c.ac_condition = "none" && not c.ac_ok)
        results;
    am_condition_teeth =
      condition_teeth_cells <> []
      && List.for_all (fun c -> not c.ac_ok) condition_teeth_cells;
  }

let attack_cell_json c =
  Json.(
    Obj
      [
        "protocol", Str c.ac_protocol; "strategy", Str c.ac_strategy;
        "condition", Str c.ac_condition; "n", int c.ac_n;
        "beta", fixed 4 c.ac_beta; "seed", int c.ac_seed;
        "agreed", Bool c.ac_agreed; "decided", fixed 3 c.ac_decided;
        "valid", Bool c.ac_valid; "rounds", int c.ac_rounds; "vt", int c.ac_vt;
        "pre_gst_lost", int c.ac_pre_gst_lost;
        "post_gst_late", int c.ac_post_gst_late; "ok", Bool c.ac_ok;
        "gated", Bool c.ac_gated;
        "expect", Str (if c.ac_expect_fail then "may-fail" else "pass");
      ])

(* schema repro-attack/2, readable back via Repro_util.Json. /2 adds the
   condition axis: a "conditions" header, per-cell condition/gated fields,
   the scheduler observables (rounds, vt, pre/post-GST counts) and the
   "condition_teeth" verdict for the planted expect-fail condition rows. *)
let attack_matrix_json (m : attack_matrix) =
  let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
  Json.(
    Obj
      [
        "schema", Str "repro-attack/2"; "n", int m.am_n;
        "betas", List (List.map (fixed 4) m.am_betas);
        "sanity_betas", List (List.map (fixed 4) m.am_sanity_betas);
        "seeds", List (List.map int m.am_seeds);
        "protocols", strs m.am_protocols; "strategies", strs m.am_strategies;
        "conditions", strs m.am_conditions;
        "cells", List (List.map attack_cell_json m.am_cells);
        "gate_ok", Bool m.am_gate_ok; "teeth", Bool m.am_teeth;
        "condition_teeth", Bool m.am_condition_teeth;
      ])

(* --- scaling sweep: per-party communication vs n, with fitted growth
   exponents (the shape that distinguishes polylog / sqrt / linear) --- *)

(* One pool task per (protocol, n) cell, regrouped per protocol in input
   order. Flattened so no per-protocol barrier idles the pool (nested
   fan-outs run sequentially) on the long tail of the largest n; every cell
   is keyed only by its own parameters, so results are bit-identical for
   any REPRO_DOMAINS pool size. *)
let per_protocol ~ns_of protocols cell =
  let cells = List.concat_map (fun p -> List.map (fun n -> (p, n)) (ns_of p)) protocols in
  let results = Parallel.map_list ~chunk:1 (fun (p, n) -> cell p n) cells in
  let rec regroup protocols results =
    match protocols with
    | [] -> []
    | p :: rest ->
      let k = List.length (ns_of p) in
      (p, List.filteri (fun i _ -> i < k) results)
      :: regroup rest (List.filteri (fun i _ -> i >= k) results)
  in
  regroup protocols results

type sweep_result = {
  s_protocol : string;
  s_points : (int * row) list;
  s_slope_max : float; (* fitted d log(max bytes) / d log n *)
  s_slope_mean : float;
  s_slope_locality : float;
}

let sweep_rows ?(ns = [ 64; 128; 256; 512 ]) ?(beta = 0.1) ?(seed = 1)
    ?(protocols = all_protocols) () =
  List.map
    (fun (protocol, rows) ->
      let fit f =
        Mathx.loglog_slope (List.map (fun r -> (float_of_int r.r_n, f r)) rows)
      in
      {
        s_protocol = protocol_name protocol;
        s_points = List.map (fun r -> (r.r_n, r)) rows;
        s_slope_max = fit (fun r -> float_of_int r.r_max_bytes);
        s_slope_mean = fit (fun r -> r.r_mean_bytes);
        s_slope_locality = fit (fun r -> float_of_int r.r_locality);
      })
    (per_protocol ~ns_of:(fun _ -> ns) protocols (fun protocol n ->
         run ~protocol ~n ~beta ~seed ()))

(* --- E17: large-n scale sweep ---

   The sparse execution engine (active-set rounds, shared decode) makes the
   Fig. 3 pipeline itself tractable at n = 4096 and beyond; what stops a
   uniform sweep is the *baselines*, whose simulation cost is quadratic in n
   (Theta(n) bytes per party times n parties). Each protocol therefore
   carries an explicit cap — the largest n it is swept to — calibrated so
   the full default sweep stays in the minutes, and reported in the output
   so a capped curve is never mistaken for a complete one.

   Every point is run *audited*: alongside the usual row it records the
   honest per-party p99 (99th-percentile sent+received bits), the
   protocol's declared total-bits budget curve evaluated at that n, whether
   p99 stays under the curve, and the auditor's violation count. This is
   the paper's headline claim as a measurement: the this-work p99 hugs a
   polylog curve while sqrt-quorum and the Theta(n) baselines cross their
   (identical-shape) declared budgets as n grows. *)

type scale_point = {
  sp_row : row;
  sp_p99_bits : float; (* honest per-party p99, in bits (8 * r_p99_bytes) *)
  sp_budget_bits : float option; (* declared total-bits curve at this n *)
  sp_within : bool; (* p99 under the declared curve (true if none) *)
  sp_violations : int; (* auditor violations over the whole run *)
}

type scale_result = {
  sc_protocol : string;
  sc_cap : int option; (* sweep ceiling; None = swept every requested n *)
  sc_points : scale_point list;
  sc_slope_p99 : float; (* fitted d log(p99 bits) / d log n *)
}

let scale_ns_default = [ 256; 512; 1024; 2048; 4096 ]

(* Caps bound *simulation* cost, not protocol cost. multisig-boost runs the
   full pipeline over Theta(n) bitmask certificates: total traffic (and
   hence simulation time) grows ~quadratically, minutes already at n = 1024.
   naive-flood is n^2 messages per round by construction. The this-work
   snark instantiation is polylog per party but round-heavy (its committee
   coin tosses dominate); 2048 keeps the default sweep under ~2 min for
   that curve while still spanning 3 doublings. Re-timed with the C
   SHA-256 kernel on the SHA extensions (2-vCPU Xeon): a snark cell takes
   12.6-14.5 s at n = 2048 (22.2-22.3 s with the OCaml compression loop)
   and 49 s at n = 4096, so the cap is now a choice about sweep length,
   not a wall. *)
let scale_cap = function
  | This_work_owf | Sqrt_boost -> None
  | This_work_snark -> Some 2048
  | Naive_boost -> Some 2048
  | Multisig_boost -> Some 512
  (* quadratic messages x O(t)-deep chain verification: the costliest
     simulation per byte of the whole landscape *)
  | Dolev_strong -> Some 256

let scale_point ~protocol ~n ~beta ~seed =
  let row, a = run_audited ~protocol ~n ~beta ~seed () in
  let p99_bits = 8.0 *. row.r_p99_bytes in
  let budget =
    Option.map
      (fun cv -> Audit.eval cv ~n ~kappa:(Audit.kappa a))
      (budgets_of protocol).Audit.total_bits
  in
  {
    sp_row = row;
    sp_p99_bits = p99_bits;
    sp_budget_bits = budget;
    sp_within = (match budget with None -> true | Some b -> p99_bits <= b);
    sp_violations = Audit.violation_count a;
  }

let scale_rows ?(ns = scale_ns_default) ?(beta = 0.1) ?(seed = 1)
    ?(protocols = all_protocols) () =
  let kept p =
    match scale_cap p with
    | None -> ns
    | Some cap -> List.filter (fun n -> n <= cap) ns
  in
  let max_requested = List.fold_left max 0 ns in
  List.map
    (fun (p, points) ->
      let slope =
        Mathx.loglog_slope
          (List.map (fun sp -> (float_of_int sp.sp_row.r_n, sp.sp_p99_bits)) points)
      in
      let cap =
        match scale_cap p with
        | Some c when c < max_requested -> Some c
        | _ -> None
      in
      { sc_protocol = protocol_name p; sc_cap = cap; sc_points = points;
        sc_slope_p99 = slope })
    (per_protocol ~ns_of:kept protocols (fun p n -> scale_point ~protocol:p ~n ~beta ~seed))

(* A scale point is a Table-1 row plus the audit-vs-budget fields and the
   sweep's cap: flat, so readers treat it as a row with extras. *)
let scale_point_json ~cap sp =
  Json.(
    Obj
      (row_fields sp.sp_row
      @ [
          "p99_bits", fixed 1 sp.sp_p99_bits;
          "budget_bits", option (fixed 1) sp.sp_budget_bits;
          "within", Bool sp.sp_within; "violations", int sp.sp_violations;
          "cap", option int cap;
        ]))

(* schema repro-scale/2: the standalone artifact `ba_sim scale --report`
   writes (BENCH_results.json carries the same points inline under
   "scale"). /2 makes each point the full {!scale_point_json} object. *)
let scale_json results =
  let protocol sc =
    Json.(
      Obj
        [
          "protocol", Str sc.sc_protocol; "cap", option int sc.sc_cap;
          "slope_p99", fixed 3 sc.sc_slope_p99;
          "points", List (List.map (scale_point_json ~cap:sc.sc_cap) sc.sc_points);
        ])
  in
  Json.(
    Obj [ "schema", Str "repro-scale/2"; "protocols", List (List.map protocol results) ])

(* --- self-profiling (ba_sim profile) ---

   One cell with full observability on: counters, spans with Gc capture,
   pool utilization. Mutable observability state is reset up front so the
   resulting report covers exactly this run; [run_with] starts it with
   cold domain-local digest caches, so the cache counters/probes start cold
   too (reruns then produce identical deterministic sections). Collection
   is left enabled on
   return: the caller reads the trace buffer and counter registry to build
   the report. *)

let run_profiled ~protocol ~n ~beta ~seed =
  Repro_obs.Counters.enable ();
  Repro_obs.Trace.set_enabled true;
  Repro_obs.Trace.set_gc_capture true;
  Repro_obs.Counters.reset ();
  Repro_obs.Trace.reset ();
  Parallel.reset_utilization ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let row = run_with ~protocol ~n ~beta ~seed () in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  let gc =
    {
      Repro_obs.Trace.g_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      g_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      g_major_words = g1.Gc.major_words -. g0.Gc.major_words;
      g_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      g_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  (row, wall, gc)

(* Regression gate over the deterministic half of two repro-profile/1
   documents. Deterministic metrics are supposed to be *exact* across
   reruns, so the gate is symmetric: any relative drift past [threshold]
   (in either direction) is a regression — a drop in cache hits and a jump
   in dispatched messages both mean the logical run changed. Structural
   mismatches (unparseable file, wrong schema, missing sections — e.g. a
   previous report predating a schema bump) are [Error]: not comparable,
   never a false failure. *)

let profile_compare ~prev ~cur ~threshold =
  let obj_ints = function
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (Json.to_int v))
        kvs
    | _ -> []
  in
  let gate kind name p c acc =
    let fp = float_of_int p and fc = float_of_int c in
    let base = Float.max 1.0 (abs_float fp) in
    if abs_float (fc -. fp) /. base > threshold then
      Printf.sprintf "%s %s: %d -> %d (%+.1f%%)" kind name p c
        (100.0 *. (fc -. fp) /. base)
      :: acc
    else acc
  in
  (* Shared keys only: a counter that exists on one side is a code change,
     not a regression the gate can quantify. *)
  let gate_assoc kind prev_kvs cur_kvs acc =
    List.fold_left
      (fun acc (name, p) ->
        match List.assoc_opt name cur_kvs with
        | Some c -> gate kind name p c acc
        | None -> acc)
      acc prev_kvs
  in
  match (Json.parse prev, Json.parse cur) with
  | Error e, _ -> Error ("previous report unparseable: " ^ e)
  | _, Error e -> Error ("current report unparseable: " ^ e)
  | Ok pj, Ok cj -> (
    let schema j = Option.bind (Json.member "schema" j) Json.to_string in
    let bad side = function
      | None -> Error (side ^ " report has no schema field: not comparable")
      | Some s ->
        Error
          (Printf.sprintf "%s report schema \"%s\" (want repro-profile/1): not comparable"
             side s)
    in
    match (schema pj, schema cj) with
    | Some "repro-profile/1", Some "repro-profile/1" -> (
      match (Json.member "deterministic" pj, Json.member "deterministic" cj) with
      | None, _ ->
        Error "previous report has no \"deterministic\" section: not comparable"
      | _, None ->
        Error "current report has no \"deterministic\" section: not comparable"
      | Some dp, Some dc ->
        let regressions =
          gate_assoc "counter"
            (obj_ints (Json.member "counters" dp))
            (obj_ints (Json.member "counters" dc))
            []
        in
        (* Histograms: count and sum carry the distribution identity. *)
        let hist j =
          match Json.member "histograms" j with
          | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (name, h) ->
                match
                  ( Option.bind (Json.member "count" h) Json.to_int,
                    Option.bind (Json.member "sum" h) Json.to_int )
                with
                | Some count, Some sum -> Some (name, (count, sum))
                | _ -> None)
              kvs
          | _ -> []
        in
        let regressions =
          List.fold_left
            (fun acc (name, (pc, ps)) ->
              match List.assoc_opt name (hist dc) with
              | Some (cc, cs) ->
                gate "histogram" (name ^ ".count") pc cc acc
                |> fun acc -> gate "histogram" (name ^ ".sum") ps cs acc
              | None -> acc)
            regressions (hist dp)
        in
        let spans j =
          match Json.member "spans" j with
          | Some l -> (
            match Json.to_list l with
            | Some items ->
              List.filter_map
                (fun it ->
                  match
                    ( Option.bind (Json.member "path" it) Json.to_string,
                      Option.bind (Json.member "count" it) Json.to_int )
                  with
                  | Some path, Some count -> Some (path, count)
                  | _ -> None)
                items
            | None -> [])
          | None -> []
        in
        let regressions =
          gate_assoc "span" (spans dp) (spans dc) regressions
        in
        Ok (List.rev regressions))
    | (Some "repro-profile/1" | None), other when other <> Some "repro-profile/1"
      ->
      bad "current" other
    | other, _ -> bad "previous" other)

(* --- Forensics: flight-recorded runs, causal cones, equivocation evidence

   Three consumers share the flight recorder (Repro_obs.Recorder) riding the
   network's send choke point:

   - explain: per-decider causal cones, each per-round slice checked against
     the protocol's *declared* round-locality budget curve. The this-work
     pipelines must explain every decision within their polylog locality;
     naive flooding's cone is Theta(n) and visibly blows the same check.
   - evidence: conflicting same-(src, round, tag) sends by corrupt parties,
     packaged as verifiable equivocation-evidence bundles for failing (and
     may-fail sanity) attack-matrix cells.
   - replay: Repro_net.Replay re-drives the recorded log and byte-compares;
     the harness in bin/ba_sim exposes it as [explain --replay-check]. *)

module Recorder = Repro_obs.Recorder

let run_recorded ?(keep_payloads = false) ?backend ~protocol ~n ~beta ~seed () :
    row * Recorder.t * int list =
  let r = Recorder.create ~keep_payloads () in
  let row =
    run_with ?backend ~sinks:[ Recorder.observe r ] ~protocol ~n ~beta ~seed ()
  in
  (* The corrupt set is every run's first RNG draw (see the run_with
     branches), so it is recomputable here without touching protocol code;
     replay and evidence consumers get the ground truth alongside the log. *)
  let corrupt = corrupt_set (Rng.create seed) ~n ~beta in
  (row, r, corrupt)

type explain_report = {
  ex_protocol : string;
  ex_n : int;
  ex_beta : float;
  ex_seed : int;
  ex_budget : float option; (* declared per-round locality curve at this n *)
  ex_cones : (Recorder.cone * int) list; (* cone, slices over budget *)
  ex_violations : int; (* total over-budget slices across all cones *)
  ex_dropped : int; (* events the recorder's full ring dropped *)
}

let locality_budget ~protocol ~n =
  Option.map
    (fun cv -> Audit.eval cv ~n ~kappa:Audit.kappa_default)
    (budgets_of protocol).Audit.round_locality

(* Cones for every recorded decider, extracted over one shared send index;
   a slice (distinct senders feeding the cone in one round) above the
   declared locality curve is a violation — the cone-size analogue of the
   auditor's per-round locality check. *)
let explain_cones ~protocol ~n ~beta ~seed (rec_ : Recorder.t) : explain_report =
  let budget = locality_budget ~protocol ~n in
  let cones = Recorder.causal_cones rec_ (Recorder.deciders rec_) in
  let over (c : Recorder.cone) =
    match budget with
    | None -> 0
    | Some b ->
      List.length
        (List.filter (fun (_, size) -> float_of_int size > b) c.Recorder.cone_per_round)
  in
  let checked = List.map (fun c -> (c, over c)) cones in
  {
    ex_protocol = protocol_name protocol;
    ex_n = n;
    ex_beta = beta;
    ex_seed = seed;
    ex_budget = budget;
    ex_cones = checked;
    ex_violations = List.fold_left (fun a (_, v) -> a + v) 0 checked;
    ex_dropped = Recorder.dropped rec_;
  }

let cone_json ((c : Recorder.cone), over) =
  let per_round (r, s) = Json.(List [ int r; int s ]) in
  Json.(
    Obj
      [
        "party", int c.cone_party; "round", int c.cone_round;
        "value", Str c.cone_value; "events", int c.cone_events;
        "parties", int c.cone_parties; "max_slice", int c.cone_max_round_size;
        "over_budget", int over;
        "per_round", List (List.map per_round c.cone_per_round);
      ])

(* Forensics reports. /2 adds "dropped": the events the recorder's full
   ring dropped before the log was read (top level for kind "explain", per
   bundle for kind "attack"). Non-zero means the cones and evidence were
   computed on the log's tail only. *)
let forensics_schema = "repro-forensics/2"

let dropped_note ~what dropped =
  if dropped = 0 then []
  else
    [
      Printf.sprintf
        "recorder: ring overflowed, %d oldest event(s) dropped: %s cover only \
         the log's tail (lower bound)"
        dropped what;
    ]

let explain_json (ex : explain_report) =
  Json.(
    Obj
      [
        "schema", Str forensics_schema; "kind", Str "explain";
        "protocol", Str ex.ex_protocol; "n", int ex.ex_n;
        "beta", fixed 4 ex.ex_beta; "seed", int ex.ex_seed;
        "locality_budget", option (fixed 1) ex.ex_budget;
        "violations", int ex.ex_violations; "dropped", int ex.ex_dropped;
        "cones", List (List.map cone_json ex.ex_cones);
      ])

(* --- attack forensics: evidence bundles for interesting matrix cells --- *)

type forensic_bundle = {
  fb_protocol : string;
  fb_strategy : string;
  fb_condition : string; (* the cell's network condition ("none" = legacy) *)
  fb_beta : float;
  fb_seed : int;
  fb_cell_ok : bool; (* the triggering cell's gate verdict *)
  fb_expect_fail : bool;
  fb_evidence : Recorder.evidence list; (* corrupt-only, verified *)
  fb_dropped : int; (* events the re-run's recorder dropped *)
}

let strategy_equivocates name =
  (* composed strategy names keep each component's name as a substring *)
  let sub = "equivocate" in
  let nl = String.length name and sl = String.length sub in
  let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
  at 0

let cell_protocol (c : attack_cell) =
  match protocol_of_name c.ac_protocol with
  | Some p -> p
  | None -> invalid_arg ("cell_forensics: unknown protocol " ^ c.ac_protocol)

(* Which matrix cells earn a forensic re-run: everything that failed its
   gate (broken non-sanity cells and sanity rows that actually broke), plus
   every equivocate cell at beta > 0 — the strategy provably equivocates,
   so extraction coming back empty there would mean the extractor is blind
   (the teeth self-check below turns that into a hard failure). *)
let forensic_worthy (c : attack_cell) =
  (not c.ac_ok) || (strategy_equivocates c.ac_strategy && c.ac_beta > 0.0)

(* Re-run one cell with a recorder attached and extract verified
   accountable evidence. The re-run is bit-identical to the original cell
   (same parameters, deterministic simulation); recording changes no
   traffic, only observes it. *)
let forensics_with ~setup (c : attack_cell) : forensic_bundle =
  let protocol = cell_protocol c in
  let r = Recorder.create () in
  let (_ : attack_cell) =
    run_cell ~setup ~sinks:[ Recorder.observe r ]
      ?condition_name:
        (if c.ac_condition = "none" then None else Some c.ac_condition)
      ~gated:c.ac_gated ~protocol ~strategy_name:c.ac_strategy ~n:c.ac_n
      ~beta:c.ac_beta ~seed:c.ac_seed ~expect_fail:c.ac_expect_fail ()
  in
  (* [corrupt_only]: honest protocols legitimately send distinct payloads
     under one tag (per-recipient Shamir shares in the coin toss), so only
     conflicts sourced at ground-truth corrupt parties are *accountable*
     equivocation. Each bundle is re-verified against the log before it is
     reported. *)
  let evidence =
    List.filter (Recorder.verify_evidence r)
      (Recorder.conflicts ~corrupt_only:true r)
  in
  {
    fb_protocol = c.ac_protocol;
    fb_strategy = c.ac_strategy;
    fb_condition = c.ac_condition;
    fb_beta = c.ac_beta;
    fb_seed = c.ac_seed;
    fb_cell_ok = c.ac_ok;
    fb_expect_fail = c.ac_expect_fail;
    fb_evidence = evidence;
    fb_dropped = Recorder.dropped r;
  }

let setup_key c = (cell_protocol c, c.ac_n, c.ac_seed)

let cell_forensics c =
  let protocol, n, seed = setup_key c in
  forensics_with ~setup:(cell_setup ~protocol ~n ~seed) c

(* The re-run cells share one setup per (protocol, n, seed), like the
   matrix that produced them. *)
let attack_forensics (m : attack_matrix) : forensic_bundle list =
  let worthy = List.filter forensic_worthy m.am_cells in
  let setups = cell_setups (List.map setup_key worthy) in
  Parallel.map_list ~chunk:1
    (fun c -> forensics_with ~setup:(List.assoc (setup_key c) setups) c)
    worthy

(* Teeth self-check: the equivocate strategy *always* equivocates at
   beta > 0, so every one of its bundles must carry evidence. An extractor
   that misses a planted equivocation is worse than none. *)
let forensics_teeth bundles =
  let planted =
    List.filter
      (fun b -> strategy_equivocates b.fb_strategy && b.fb_beta > 0.0)
      bundles
  in
  planted <> [] && List.for_all (fun b -> b.fb_evidence <> []) planted

let evidence_json (e : Recorder.evidence) =
  let variant (digest, count, dsts) =
    Json.(
      Obj
        [ "digest", Str digest; "count", int count; "dsts", List (List.map int dsts) ])
  in
  Json.(
    Obj
      [
        "src", int e.ev_src; "round", int e.ev_round; "tag", Str e.ev_tag;
        "src_corrupt", Bool e.ev_src_corrupt;
        "variants", List (List.map variant e.ev_variants);
      ])

let forensic_bundle_json b =
  Json.(
    Obj
      [
        "protocol", Str b.fb_protocol; "strategy", Str b.fb_strategy;
        "condition", Str b.fb_condition; "beta", fixed 4 b.fb_beta;
        "seed", int b.fb_seed; "cell_ok", Bool b.fb_cell_ok;
        "expect", Str (if b.fb_expect_fail then "may-fail" else "pass");
        "dropped", int b.fb_dropped;
        "evidence", List (List.map evidence_json b.fb_evidence);
      ])

let attack_forensics_json ~n bundles =
  Json.(
    Obj
      [
        "schema", Str forensics_schema; "kind", Str "attack"; "n", int n;
        "teeth", Bool (forensics_teeth bundles);
        "bundles", List (List.map forensic_bundle_json bundles);
      ])

(* The schema rule [ba_sim validate] applies beyond parsing: a forensics
   report must be the current schema and carry its drop counts. Other
   documents pass unchecked. *)
let check_forensics_report doc =
  let dropped_ok o =
    match Option.bind (Json.member "dropped" o) Json.to_int with
    | Some d -> d >= 0
    | None -> false
  in
  let field what = Option.bind (Json.member what doc) Json.to_string in
  let missing where = Error (where ^ ": missing or negative \"dropped\" count") in
  match field "schema" with
  | Some sch when sch = forensics_schema -> (
    match field "kind" with
    | Some "explain" -> if dropped_ok doc then Ok () else missing sch
    | Some "attack" ->
      let bundles = Option.bind (Json.member "bundles" doc) Json.to_list in
      if List.for_all dropped_ok (Option.value ~default:[] bundles) then Ok ()
      else missing (sch ^ " bundle")
    | _ -> Error (sch ^ ": unknown kind"))
  | Some sch when String.starts_with ~prefix:"repro-forensics/" sch ->
    Error (Printf.sprintf "%s: superseded by %s" sch forensics_schema)
  | _ -> Ok ()

(* --- E18: conformance of the executor's two paths + async partial
   synchrony ---

   The conformance suite is the contract that makes the lock-step
   shortcut safe: the same (protocol, n, beta, seed) cell runs at zero
   knobs on the shortcut and on the general (time, seq) path, forced by
   attaching {!Sched.pass_condition}, and every send of every round is
   hashed through the per-instance transcript tap. Both digests — and the
   measured rows behind them — must be identical. The async matrix then
   turns the chaos knobs on (latency jitter, pre-GST loss, a GST horizon)
   against live adversary strategies and checks that agreement, validity
   and the post-GST delivery bound all hold, deterministically on any
   domain-pool size. *)

module Sha256 = Repro_crypto.Sha256

let digest_sink () =
  let ctx = Sha256.init () in
  let feed_bytes b = Sha256.feed ctx b 0 (Bytes.length b) in
  let feed_str s = feed_bytes (Bytes.unsafe_of_string s) in
  let sink : Repro_obs.Event.sink = function
    | Send { round; src; dst; tag; payload; _ } ->
      feed_str (Printf.sprintf "%d|%d|%d|%s|" round src dst tag);
      feed_bytes payload;
      feed_str "\n"
    | _ -> ()
  in
  (sink, fun () -> Sha256.hex (Sha256.finish ctx))

let run_digest ?backend ?condition ~protocol ~n ~beta ~seed () : row * string =
  let sink, digest = digest_sink () in
  let row = run_with ?backend ?condition ~sinks:[ sink ] ~protocol ~n ~beta ~seed () in
  (row, digest ())

type conform_cell = {
  cf_protocol : string;
  cf_n : int;
  cf_beta : float;
  cf_seed : int;
  cf_digests : (string * string) list; (* path -> transcript digest *)
  cf_rows_ok : bool; (* both paths' rows reached agreement/validity *)
  cf_match : bool; (* digests and measured rows identical on both paths *)
}

let conformance_cell ~protocol ~n ~beta ~seed : conform_cell =
  let runs =
    List.map
      (fun (path, condition) ->
        let row, digest = run_digest ?condition ~protocol ~n ~beta ~seed () in
        (path, row, digest))
      [ ("shortcut", None); ("general", Some Sched.pass_condition) ]
  in
  let digests = List.map (fun (path, _, d) -> (path, d)) runs in
  let all_equal eq = function
    | [] -> true
    | x0 :: rest -> List.for_all (eq x0) rest
  in
  {
    cf_protocol = protocol_name protocol;
    cf_n = n;
    cf_beta = beta;
    cf_seed = seed;
    cf_digests = digests;
    cf_rows_ok = List.for_all (fun (_, r, _) -> r.r_ok) runs;
    cf_match =
      all_equal (fun (_, d0) (_, d) -> d = d0) digests
      (* the rows too: identical metrics, not just identical bytes *)
      && all_equal (fun (_, r0, _) (_, r, _) -> r = r0) runs;
  }

let conformance_cells ?(protocols = [ This_work_owf; This_work_snark ])
    ?(ns = [ 64; 256 ]) ?(beta = 0.1) ?(seed = 1) () : conform_cell list =
  let cells =
    List.concat_map (fun n -> List.map (fun p -> (p, n)) protocols) ns
  in
  Parallel.map_list ~chunk:1
    (fun (protocol, n) -> conformance_cell ~protocol ~n ~beta ~seed)
    cells

(* --- the async chaos matrix --- *)

type async_cell = {
  ay_protocol : string;
  ay_strategy : string;
  ay_n : int;
  ay_beta : float;
  ay_seed : int;
  ay_cfg : Sched.async_cfg;
  ay_rounds : int;
  ay_vt : int; (* final virtual time (> rounds once jitter/loss bite) *)
  ay_max_latency : int;
  ay_pre_gst_lost : int;
  ay_post_gst_late : int; (* 0 by the partial-synchrony contract *)
  ay_agreed : bool;
  ay_decided : float;
  ay_valid : bool;
  ay_digest : string; (* transcript digest: rerun-determinism witness *)
  ay_ok : bool;
}

let run_async_cell ~setup ~protocol ~strategy_name ~n ~beta ~seed ~cfg () :
    async_cell =
  cold_caches ();
  let strategy =
    match Strategy.find ~n ~seed strategy_name with
    | Some s -> s
    | None -> invalid_arg ("async matrix: unknown strategy " ^ strategy_name)
  in
  let adversary = Strategy.instantiate strategy ~seed in
  let rng = Rng.create seed in
  let corrupt = corrupt_set rng ~n ~beta in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let bcfg = Balanced_ba.default_config ~adversary ~n ~corrupt ~inputs ~seed () in
  let sink, digest = digest_sink () in
  let backend = Sched.Async cfg in
  let (r : Balanced_ba.result) =
    match (protocol, setup) with
    | This_work_owf, Owf_keys setup -> Ba_owf.run ~sinks:[ sink ] ~backend ~setup bcfg
    | This_work_snark, Snark_keys setup ->
      Ba_snark.run ~sinks:[ sink ] ~backend ~setup bcfg
    | _ -> invalid_arg "async matrix: pipeline protocols only (owf/snark)"
  in
  let net = r.Balanced_ba.net in
  let stats = Repro_net.Network.async_stats net in
  let ok =
    r.Balanced_ba.agreed
    && r.Balanced_ba.decided_fraction > 0.95
    && r.Balanced_ba.valid
    && stats.Sched.st_post_gst_late = 0
  in
  {
    ay_protocol = protocol_name protocol;
    ay_strategy = strategy_name;
    ay_n = n;
    ay_beta = beta;
    ay_seed = seed;
    ay_cfg = cfg;
    ay_rounds = r.Balanced_ba.report.Metrics.rounds;
    ay_vt = Repro_net.Network.virtual_time net;
    ay_max_latency = stats.Sched.st_max_latency;
    ay_pre_gst_lost = stats.Sched.st_pre_gst_lost;
    ay_post_gst_late = stats.Sched.st_post_gst_late;
    ay_agreed = r.Balanced_ba.agreed;
    ay_decided = r.Balanced_ba.decided_fraction;
    ay_valid = r.Balanced_ba.valid;
    ay_digest = digest ();
    ay_ok = ok;
  }

let async_cells ?(strategies = [ "silent"; "equivocate" ]) ?(beta = 0.1)
    ?(seed = 1) ?cfg ?(cells = [ (This_work_owf, 256); (This_work_snark, 64) ])
    () : async_cell list =
  let cfg = match cfg with Some c -> c | None -> default_chaos ~seed in
  let jobs =
    List.concat_map
      (fun (protocol, n) ->
        List.map (fun strategy_name -> (protocol, n, strategy_name)) strategies)
      cells
  in
  let setups = cell_setups (List.map (fun (protocol, n) -> (protocol, n, seed)) cells) in
  Parallel.map_list ~chunk:1
    (fun (protocol, n, strategy_name) ->
      run_async_cell ~setup:(List.assoc (protocol, n, seed) setups) ~protocol
        ~strategy_name ~n ~beta ~seed ~cfg ())
    jobs

let conform_cell_json c =
  let digest (p, d) = Json.(Obj [ "path", Str p; "digest", Str d ]) in
  Json.(
    Obj
      [
        "protocol", Str c.cf_protocol; "n", int c.cf_n;
        "beta", fixed 4 c.cf_beta; "seed", int c.cf_seed;
        "rows_ok", Bool c.cf_rows_ok; "match", Bool c.cf_match;
        "digests", List (List.map digest c.cf_digests);
      ])

let async_cell_json a =
  let cfg = a.ay_cfg in
  Json.(
    Obj
      [
        "protocol", Str a.ay_protocol; "strategy", Str a.ay_strategy;
        "n", int a.ay_n; "beta", fixed 4 a.ay_beta; "seed", int a.ay_seed;
        "delta", int cfg.Sched.a_delta; "jitter", int cfg.Sched.a_jitter;
        "loss", fixed 4 cfg.Sched.a_loss; "gst", int cfg.Sched.a_gst;
        "rounds", int a.ay_rounds; "vt", int a.ay_vt;
        "max_latency", int a.ay_max_latency;
        "pre_gst_lost", int a.ay_pre_gst_lost;
        "post_gst_late", int a.ay_post_gst_late; "agreed", Bool a.ay_agreed;
        "decided", fixed 3 a.ay_decided; "valid", Bool a.ay_valid;
        "digest", Str a.ay_digest; "ok", Bool a.ay_ok;
      ])
