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
   on, which is what the audit caught when the active-set stepper first made
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
module Network = Repro_net.Network
module Attacks = Repro_aetree.Attacks
module Strategy = Repro_adversary.Strategy
module Condition = Repro_adversary.Condition

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

(* E14's adversary corrupts after seeing the public slot assignment (the
   Fig. 3 idmap): {!Strategy.tree_victims} rebuilds exactly the assignment
   the protocol will use and hands it to the chosen Attacks strategy.
   Committees are elected after corruption, so leaf-killing is the
   strongest in-model strategy. *)
let corrupt_by_strategy ~strategy ~n ~beta ~seed =
  Strategy.tree_victims ~n ~seed ~strategy
    ~budget:(int_of_float (beta *. float_of_int n))

(* A cell's one-time setup: the SRDS keys of a pipeline protocol or the
   Dolev-Strong PKI. It is a function of (protocol, n, seed) only, so a
   matrix builds one per distinct triple and hands it to every cell that
   shares it; a cell run alone builds its own. *)
type cell_setup =
  | Owf_keys of Ba_owf.setup
  | Snark_keys of Ba_snark.setup
  | Multisig_keys of Ba_multisig.setup
  | Ds_pki of Baseline_dolev.pki
  | No_setup (* sqrt-quorum and naive-flood have no phase A *)

let cell_setup ~protocol ~n ~seed =
  match protocol with
  | This_work_owf -> Owf_keys (Ba_owf.setup ~n ~seed)
  | This_work_snark -> Snark_keys (Ba_snark.setup ~n ~seed)
  | Multisig_boost -> Multisig_keys (Ba_multisig.setup ~n ~seed)
  | Dolev_strong -> Ds_pki (Baseline_dolev.pki ~n ~seed)
  | Sqrt_boost | Naive_boost -> No_setup

let network ?sinks ?cfg ?condition ~n ~corrupt () =
  let backend = Option.map (fun cfg -> Sched.Async cfg) cfg in
  let net = Network.create ?backend ?sinks ~n ~corrupt () in
  Option.iter (Network.set_condition net) condition;
  net

(* How a cell picks its corrupt set: floor(beta * n) parties as the run's
   first RNG draw; the static share of that budget a network condition
   leaves (adaptive conditions reserve the rest for mid-run upgrades, so
   static + upgrades never exceed floor(beta * n)), drawn the same way; or
   the set an E14 strategy picks after seeing the slot assignment. *)
type draw = Uniform | Static of Condition.t | Setup_aware of Attacks.strategy

type outcome = {
  o_row : row;
  o_verdict : Outcome.t;
  o_valid : bool; (* the protocol's validity rule over [o_verdict] *)
  o_corrupt : int list;
  o_net : Network.t;
}

(* The one cell runner: every experiment's cell comes from here, so every
   protocol of Table 1 runs under identical conditions. It clears the
   domain's [Wots.verify] memo, draws the corrupt set, builds the cell's one network
   ([sinks] subscribe to it, [cfg] sets its executor knobs, [condition] is
   attached to it), builds the setup unless the caller shares one, and
   runs the protocol on that network. *)
let run_cell ?setup ?sinks ?cfg ?condition ?adversary ?(draw = Uniform)
    ~protocol ~n ~beta ~seed () : outcome =
  Repro_crypto.Wots.clear_cache ();
  let rng = Rng.create seed in
  let corrupt =
    match draw with
    | Uniform -> corrupt_set rng ~n ~beta
    | Static c -> Rng.subset rng ~n ~size:(Condition.static_size c ~n ~beta)
    | Setup_aware strategy -> corrupt_by_strategy ~strategy ~n ~beta ~seed
  in
  let setup =
    match setup with Some s -> s | None -> cell_setup ~protocol ~n ~seed
  in
  let net = network ?sinks ?cfg ?condition ~n ~corrupt () in
  let inputs = Array.init n (fun i -> (i + seed) mod 2 = 0) in
  let ba_cfg = Balanced_ba.default_config ?adversary ~inputs ~seed () in
  (* Each protocol's policy over its one judged outcome: what ok asks for,
     which validity counts, and the note. *)
  let judged (o : Outcome.t) ~ok ~valid ~note =
    ( row_of_report ~protocol:(protocol_name protocol) ~n ~beta ~report:o.report
        ~ok ~note ~breakdown:o.breakdown,
      o, valid )
  in
  let pipeline (r : Balanced_ba.result) =
    let o = Balanced_ba.outcome net ba_cfg r in
    judged o ~ok:(o.agreed && o.decided_fraction > 0.99) ~valid:o.valid
      ~note:
        (Printf.sprintf "decided=%.2f%s" o.decided_fraction
           (if r.tree_good then "" else " tree-degraded"))
  in
  (* The boost baselines and Dolev-Strong deliver the value [true]; an
     output of it is correct. Broadcast validity is vacuous under a
     corrupt designated sender (party 0 of Dolev-Strong, in the drawn
     corrupt set with probability beta): agreement, on the default, must
     still hold. *)
  let delivery ?(sender_corrupt = false) outputs =
    let o = Outcome.of_outputs net ~outputs ~expected:(Some true) in
    let valid = sender_corrupt || o.correct_fraction > 0.99 in
    judged o ~ok:(o.agreed && valid) ~valid
      ~note:
        (Printf.sprintf "correct=%.2f%s" o.correct_fraction
           (if sender_corrupt then " sender-corrupt" else ""))
  in
  let row, verdict, valid =
    match (protocol, setup) with
    | This_work_owf, Owf_keys setup -> pipeline (Ba_owf.run ~net ~setup ba_cfg)
    | This_work_snark, Snark_keys setup -> pipeline (Ba_snark.run ~net ~setup ba_cfg)
    | Multisig_boost, Multisig_keys setup ->
      pipeline (Ba_multisig.run ~net ~setup ba_cfg)
    | (Sqrt_boost | Naive_boost), No_setup when Option.is_some adversary ->
      invalid_arg "Runner.run_cell: the boost baselines take no adversary"
    | Sqrt_boost, No_setup ->
      delivery (Baseline_sqrt.run ~net { holders = holders rng ~n ~corrupt; value = true })
    | Naive_boost, No_setup ->
      delivery (Baseline_naive.run ~net { holders = holders rng ~n ~corrupt; value = true })
    | Dolev_strong, Ds_pki pki ->
      delivery ~sender_corrupt:(List.mem 0 corrupt)
        (Baseline_dolev.run ?adversary ~net ~pki { value = true; seed })
    | _ -> invalid_arg "Runner.run_cell: cell setup built for another protocol"
  in
  { o_row = row; o_verdict = verdict; o_valid = valid; o_corrupt = corrupt;
    o_net = net }

(* Callers that want the auditor's verdict use {!run_audited}, callers
   that want the flight-recorded log use {!run_recorded}, callers pinning
   transcripts use {!run_digest}. *)
let run_with ?sinks ?cfg ?condition ~protocol ~n ~beta ~seed () : row =
  (run_cell ?sinks ?cfg ?condition ~protocol ~n ~beta ~seed ()).o_row

let run_audited ?cfg ~protocol ~n ~beta ~seed () : row * Audit.t =
  let a = make_auditor ~protocol ~n in
  let row = run_with ?cfg ~sinks:[ Audit.observe a ] ~protocol ~n ~beta ~seed () in
  Audit.finalize a;
  (row, a)

(* In global audit mode every run carries an auditor; its violations reach
   the [audit.violations] registry counter even though the instance itself
   is dropped here. *)
let run ?cfg ~protocol ~n ~beta ~seed () : row =
  if Audit.global_enabled () then fst (run_audited ?cfg ~protocol ~n ~beta ~seed ())
  else run_with ?cfg ~protocol ~n ~beta ~seed ()

(* --- E14: the full protocol under setup-aware corruption --- *)

let run_under_attack ~strategy ~n ~beta ~seed : row =
  let o =
    run_cell ~draw:(Setup_aware strategy) ~protocol:This_work_snark ~n ~beta ~seed ()
  in
  { o.o_row with r_protocol = "this-work-snark/" ^ Attacks.strategy_name strategy }

(* --- E16: the seeded attack matrix ---

   Sweeps the Fig. 3 pipeline protocols against every strategy of the
   composable adversary portfolio (lib/adversary) at several corruption
   rates and seeds, asserting agreement + validity on every honest output.
   Cells at beta >= 1/3 are sanity rows annotated expected-fail: the
   protocol is outside its corruption model there, and at least one such
   cell breaking is the harness's proof that its checks have teeth. *)

type attack_cell = {
  ac_protocol : string;
  ac_strategy : string;
  ac_n : int;
  ac_beta : float;
  ac_seed : int;
  ac_agreed : bool;
  ac_decided : float;
  ac_valid : bool;
  ac_ok : bool; (* agreed, >95% decided, valid, no post-GST late delivery *)
  ac_expect_fail : bool; (* sanity row / planted condition: may fail *)
  ac_condition : string; (* "none": no condition, under the caller's [cfg] *)
  ac_gated : bool; (* counts toward the matrix gate (reference rows do not) *)
  ac_rounds : int;
  ac_vt : int; (* final virtual time (= rounds under lock-step) *)
  ac_max_latency : int; (* slowest delivery, in ticks *)
  ac_pre_gst_lost : int; (* pre-GST slow deliveries *)
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

let find_strategy ~n ~seed name =
  match Strategy.find ~n ~seed name with
  | Some s -> s
  | None -> invalid_arg ("Runner: unknown strategy " ^ name)

(* The one adversarial cell body: one instantiated strategy against one
   protocol under one executor configuration, optionally with a network
   condition. It bumps no counter: E18's chaos cells call it directly,
   while {!matrix_cell} counts the cells of the attack matrix. *)
let attack_cell ~setup ?sinks ?cfg ?condition_name ?(gated = true) ~protocol
    ~strategy_name ~n ~beta ~seed ~expect_fail () =
  let adversary = Strategy.instantiate (find_strategy ~n ~seed strategy_name) ~seed in
  let condition =
    Option.map
      (fun cn ->
        match Condition.find cn with
        | Some c -> c
        | None -> invalid_arg ("attack matrix: unknown condition " ^ cn))
      condition_name
  in
  (* A condition cell runs under the caller's executor configuration, or
     {!default_chaos} if none is given; without a condition the executor
     stays whatever the caller chose (default lock-step), so the legacy
     matrix is byte-identical to repro-attack/1. *)
  let cfg, hook, draw =
    match condition with
    | None -> (cfg, None, Uniform)
    | Some c ->
      let cfg = Option.value cfg ~default:(default_chaos ~seed) in
      (Some cfg, Some (Condition.prepare c ~n ~beta ~seed ~cfg), Static c)
  in
  let o =
    run_cell ~setup ?sinks ?cfg ?condition:hook ~adversary ~draw ~protocol ~n
      ~beta ~seed ()
  in
  let stats = Network.async_stats o.o_net in
  {
    ac_protocol = protocol_name protocol;
    ac_strategy = strategy_name;
    ac_n = n;
    ac_beta = beta;
    ac_seed = seed;
    ac_agreed = o.o_verdict.agreed;
    ac_decided = o.o_verdict.decided_fraction;
    ac_valid = o.o_valid;
    (* Without a condition no delivery is late: lock-step records none,
       and the executor's knobs keep every post-GST one within 1 + delta. *)
    ac_ok =
      o.o_verdict.agreed && o.o_verdict.decided_fraction > 0.95 && o.o_valid
      && stats.Sched.st_post_gst_late = 0;
    ac_expect_fail = expect_fail;
    ac_condition = Option.value condition_name ~default:"none";
    ac_gated = gated;
    ac_rounds = o.o_row.r_rounds;
    ac_vt = Network.virtual_time o.o_net;
    ac_max_latency = stats.Sched.st_max_latency;
    ac_pre_gst_lost = stats.Sched.st_pre_gst_lost;
    ac_post_gst_late = stats.Sched.st_post_gst_late;
  }

(* A matrix cell: {!attack_cell}, counted in [attack.cells], and in
   [attack.violations.<strategy>] if it is a gated non-sanity failure. *)
let matrix_cell ~setup ?sinks ?cfg ?condition_name ?gated ~protocol
    ~strategy_name ~n ~beta ~seed ~expect_fail () =
  let c =
    attack_cell ~setup ?sinks ?cfg ?condition_name ?gated ~protocol
      ~strategy_name ~n ~beta ~seed ~expect_fail ()
  in
  Repro_obs.Counters.bump c_attack_cells;
  if (not c.ac_ok) && c.ac_gated && not expect_fail then
    Repro_obs.Counters.bump
      (Repro_obs.Counters.make ("attack.violations." ^ strategy_name));
  c

let run_attack_cell ?sinks ?cfg ?condition_name ?gated ~protocol
    ~strategy_name ~n ~beta ~seed ~expect_fail () =
  matrix_cell ~setup:(cell_setup ~protocol ~n ~seed) ?sinks ?cfg
    ?condition_name ?gated ~protocol ~strategy_name ~n ~beta ~seed ~expect_fail ()

(* The fan-out every cell matrix shares: one setup per distinct
   (protocol, n, seed) among the specs' [key]s, built on the calling
   domain (each keygen fans out on the pool itself), then
   [cell ~setup spec] for each spec on the domain pool, in input order.
   Cells are keyed only by their own parameters, so results are
   bit-identical at any pool size. *)
let fan_out ~key cell specs =
  let setups =
    List.map
      (fun ((protocol, n, seed) as k) -> (k, cell_setup ~protocol ~n ~seed))
      (List.sort_uniq compare (List.map key specs))
  in
  Parallel.map_list ~chunk:1
    (fun spec -> cell ~setup:(List.assoc (key spec) setups) spec)
    specs

let attack_matrix ?(betas = [ 0.0; 0.0625; 0.125 ]) ?(sanity_betas = [ 0.45 ])
    ?(seeds = [ 1 ]) ?strategies ?(conditions = []) ~n () =
  let strategies =
    match strategies with
    | Some ss -> ss
    | None -> List.map Strategy.name (Strategy.catalogue ~n ~seed:1)
  in
  (* Deterministic cell order: seed-major, then beta (required before
     sanity), strategy, protocol. A cell spec is
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
  let results =
    fan_out
      ~key:(fun (protocol, _, _, seed, _, _, _) -> (protocol, n, seed))
      (fun ~setup (protocol, strategy_name, beta, seed, expect_fail, condition_name, gated) ->
        matrix_cell ~setup ?condition_name ~gated ~protocol ~strategy_name ~n ~beta
          ~seed ~expect_fail ())
      (cells @ condition_cells @ teeth_cells)
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

   The active-set stepper (with shared decode) makes the
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
   resulting report covers exactly this run; [run_with] starts it with a
   cold [Wots.verify] memo, so reruns produce identical deterministic
   sections. Collection is left enabled on return: the caller reads the
   trace buffer and counter registry to build the report. *)

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

(* Replay and evidence consumers get the cell's ground-truth corrupt set
   alongside the log. *)
let run_recorded ?(keep_payloads = false) ?cfg ~protocol ~n ~beta ~seed () :
    row * Recorder.t * int list =
  let r = Recorder.create ~keep_payloads () in
  let o = run_cell ?cfg ~sinks:[ Recorder.observe r ] ~protocol ~n ~beta ~seed () in
  (o.o_row, r, o.o_corrupt)

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
  | None -> invalid_arg ("Runner: unknown protocol " ^ c.ac_protocol)

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
    matrix_cell ~setup ~sinks:[ Recorder.observe r ]
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

(* The re-run cells share one setup per (protocol, n, seed), like the
   matrix that produced them. *)
let attack_forensics (m : attack_matrix) : forensic_bundle list =
  fan_out ~key:setup_key forensics_with (List.filter forensic_worthy m.am_cells)

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

(* Each send feeds [round|src|dst|tag|], its payload and a newline. The
   header is built in one buffer reused across sends: formatting it with
   [Printf] cost more than hashing a small payload. *)
let digest_sink () =
  let ctx = Sha256.init () in
  let feed b = Sha256.feed ctx b 0 (Bytes.length b) in
  let hdr = Buffer.create 64 in
  let rec add_digits v =
    if v >= 10 then add_digits (v / 10);
    Buffer.add_char hdr (Char.chr (Char.code '0' + (v mod 10)))
  in
  let add_field v =
    if v < 0 then Buffer.add_string hdr (string_of_int v) else add_digits v;
    Buffer.add_char hdr '|'
  in
  let newline = Bytes.of_string "\n" in
  let sink : Repro_obs.Event.sink = function
    | Send { round; src; dst; tag; payload; _ } ->
      Buffer.clear hdr;
      add_field round;
      add_field src;
      add_field dst;
      Buffer.add_string hdr tag;
      Buffer.add_char hdr '|';
      feed (Buffer.to_bytes hdr);
      feed payload;
      feed newline
    | _ -> ()
  in
  (sink, fun () -> Sha256.hex (Sha256.finish ctx))

let run_digest ?cfg ?condition ~protocol ~n ~beta ~seed () : row * string =
  let sink, digest = digest_sink () in
  let row = run_with ?cfg ?condition ~sinks:[ sink ] ~protocol ~n ~beta ~seed () in
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

(* E18's chaos cells are attack cells with no condition under the chaos
   knobs, each with its transcript digest. They call {!attack_cell}
   directly: the attack-matrix counters count no E18 cell. All knob
   settings go through one fan-out, so settings that share a seed share
   its setups. *)
let async_cells ?(strategies = [ "silent"; "equivocate" ]) ?(beta = 0.1)
    ?(chaos = [ default_chaos ~seed:1 ])
    ?(cells = [ (This_work_owf, 256); (This_work_snark, 64) ]) () :
    (Sched.async_cfg * attack_cell * string) list =
  fan_out
    ~key:(fun ((cfg : Sched.async_cfg), protocol, n, _) -> (protocol, n, cfg.a_seed))
    (fun ~setup ((cfg : Sched.async_cfg), protocol, n, strategy_name) ->
      let sink, digest = digest_sink () in
      let c =
        attack_cell ~setup ~sinks:[ sink ] ~cfg ~protocol ~strategy_name ~n ~beta
          ~seed:cfg.a_seed ~expect_fail:false ()
      in
      (cfg, c, digest ()))
    (List.concat_map
       (fun cfg ->
         List.concat_map
           (fun (protocol, n) -> List.map (fun s -> (cfg, protocol, n, s)) strategies)
           cells)
       chaos)

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

let async_cell_json ~(cfg : Sched.async_cfg) ~digest c =
  Json.(
    Obj
      [
        "protocol", Str c.ac_protocol; "strategy", Str c.ac_strategy;
        "n", int c.ac_n; "beta", fixed 4 c.ac_beta; "seed", int c.ac_seed;
        "delta", int cfg.a_delta; "jitter", int cfg.a_jitter;
        "loss", fixed 4 cfg.a_loss; "gst", int cfg.a_gst;
        "rounds", int c.ac_rounds; "vt", int c.ac_vt;
        "max_latency", int c.ac_max_latency;
        "pre_gst_lost", int c.ac_pre_gst_lost;
        "post_gst_late", int c.ac_post_gst_late; "agreed", Bool c.ac_agreed;
        "decided", fixed 3 c.ac_decided; "valid", Bool c.ac_valid;
        "digest", Str digest; "ok", Bool c.ac_ok;
      ])
