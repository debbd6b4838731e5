(* Benchmark harness: regenerates every table/figure-level claim of the
   paper (see DESIGN.md section 4 for the experiment index) and runs the
   Bechamel timing microbenches.

     dune exec bench/main.exe            # standard run (~ a few minutes)
     BENCH_FULL=1 dune exec bench/main.exe   # adds larger sweep points

   Experiment map:
     T1/E1   Table 1, measured          E7  certificate-size ablation
     E2-E4   scaling sweep + exponents  E8  succinctness vs batch size
     E5/F1   robustness games           E9  broadcast amortization (Cor 1.2)
     E6/F2   forgery games + ablation   E10 tree quality vs beta
     E11     one-shot boost             B*  Bechamel microbenches           *)

open Repro_core
module Rng = Repro_util.Rng
module Tablefmt = Repro_util.Tablefmt
module Parallel = Repro_util.Parallel
module Metrics = Repro_net.Metrics
module Json = Repro_util.Json

let full = Sys.getenv_opt "BENCH_FULL" <> None

(* BENCH_SMOKE=1: a <30s subset (Table 1 at one n + the timing microbenches)
   that still exercises the whole JSON pipeline; `make bench-smoke` uses it
   to validate the output parses. BENCH_FULL wins if both are set. *)
let smoke = (not full) && Sys.getenv_opt "BENCH_SMOKE" <> None
let mode = if full then "full" else if smoke then "smoke" else "standard"

let section title =
  Printf.printf "\n############ %s ############\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_results.json                        *)
(* ------------------------------------------------------------------ *)

(* Collected as experiments run; written once at exit as one Json.t value.
   Each experiment carries its wall time, the full crypto-operation counter
   snapshot accumulated while it ran (the registry is reset between
   experiments), separately the deterministic subset — the counters
   [--compare] gates regressions on, stable across pool sizes and
   machines — and (schema /5) a GC allocation profile: machine context like
   wall time, never gated. Schema /6 adds the E18 scheduler arrays:
   `conform` (cross-backend transcript digests) and `async` (partial-
   synchrony chaos cells). Schema /7 adds the E19 `conditions` array: one
   object per network-condition attack cell (agreement/validity, rounds to
   decide, final virtual time, pre/post-GST loss counts). [--compare]
   skips any section the older file lacks, so /6 and earlier files stay
   comparable. Every row object is the Runner serializer ba_sim's reports
   use for the same record. *)
let experiments : Json.t list ref = ref [] (* newest first *)
let table1_rows : Runner.row list ref = ref []
let scale_results : Runner.scale_result list ref = ref []
let conform_cells : Runner.conform_cell list ref = ref []
let async_cells : Runner.async_cell list ref = ref []
let condition_cells : Runner.attack_cell list ref = ref []

let write_results ~total_wall_s =
  let rows f l = Json.List (List.map f l) in
  (* schema /4: one scale point object per (protocol, n) *)
  let scale_points sc =
    List.map (Runner.scale_point_json ~cap:sc.Runner.sc_cap) sc.Runner.sc_points
  in
  let doc =
    Json.(
      Obj
        [
          "schema", Str "repro-bench/7"; "mode", Str mode;
          "domains", int (Parallel.domains ());
          "total_wall_s", fixed 2 total_wall_s;
          "experiments", List (List.rev !experiments);
          "table1", rows Runner.row_json !table1_rows;
          "scale", List (List.concat_map scale_points !scale_results);
          "conform", rows Runner.conform_cell_json !conform_cells;
          "async", rows Runner.async_cell_json !async_cells;
          "conditions", rows Runner.attack_cell_json !condition_cells;
        ])
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.pretty doc);
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%s mode, %d domains)\n" mode
    (Parallel.domains ())

let timed_experiment name f =
  Repro_obs.Counters.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  (* Caller-domain GC delta over the experiment (worker-domain allocation is
     not included; Gc.quick_stat minor counters are per-domain). *)
  let words f = Json.fixed 0 (f g1 -. f g0) and count f = Json.int (f g1 - f g0) in
  let profile =
    Json.Obj
      [
        "minor_words", words (fun g -> g.Gc.minor_words);
        "promoted_words", words (fun g -> g.Gc.promoted_words);
        "major_words", words (fun g -> g.Gc.major_words);
        "minor_collections", count (fun g -> g.Gc.minor_collections);
        "major_collections", count (fun g -> g.Gc.major_collections);
      ]
  in
  experiments :=
    Json.(
      Obj
        [
          "name", Str name; "wall_s", fixed 2 dt;
          "counters", of_counts (Repro_obs.Counters.snapshot ());
          "det_counters", of_counts (Repro_obs.Counters.deterministic_snapshot ());
          "profile", profile;
        ])
    :: !experiments

(* ------------------------------------------------------------------ *)
(* T1/E1: Table 1, measured                                            *)
(* ------------------------------------------------------------------ *)

let bench_table1 () =
  section "T1/E1: Table 1 (measured rows)";
  let ns =
    if full then [ 64; 128; 256 ] else if smoke then [ 64 ] else [ 64; 128 ]
  in
  (* Compute the cells once (in parallel on the domain pool), then reuse the
     same rows for the printed table and the JSON report. *)
  let rows = Runner.table1_rows ~ns ~beta:0.1 ~seed:1 () in
  table1_rows := rows;
  Tablefmt.print (Runner.table1_of_rows ~beta:0.1 rows)

(* ------------------------------------------------------------------ *)
(* E2-E4: scaling sweep, growth exponents                              *)
(* ------------------------------------------------------------------ *)

let bench_sweep () =
  section "E2-E4: scaling sweep (max KiB/party per n; fitted exponents)";
  let ns = if full then [ 64; 128; 256; 512; 1024 ] else [ 64; 128; 256; 512 ] in
  (* Dolev–Strong stays out of the sweep: its Theta(n^2) signature-chain
     traffic makes the large-n points cost minutes of simulation for a
     curve whose shape Table 1 already shows at n <= 256. *)
  let protocols =
    List.filter (fun p -> p <> Runner.Dolev_strong) Runner.all_protocols
  in
  Tablefmt.print (Runner.sweep_table ~ns ~beta:0.1 ~seed:1 ~protocols ());
  (* visual: the shapes on one log-log chart *)
  let series =
    List.mapi
      (fun i protocol ->
        let sw = Runner.sweep ~protocol ~ns ~beta:0.1 ~seed:1 in
        Repro_util.Ascii_plot.make_series
          ~glyph:Repro_util.Ascii_plot.default_glyphs.(i mod 6)
          ~label:sw.Runner.s_protocol
          (List.map
             (fun (n, r) ->
               (float_of_int n, float_of_int r.Runner.r_max_bytes /. 1024.))
             sw.Runner.s_points))
      protocols
  in
  Repro_util.Ascii_plot.print ~title:"max KiB per party vs n" ~x_label:"n"
    ~y_label:"KiB/party" series;
  print_endline
    "  (slope ~0.5 = sqrt(n) shape, ~1.0 = linear; see EXPERIMENTS.md for";
  print_endline "   the asymptotic-crossover discussion at simulation scale)";
  (* rounds and locality detail for the two SRDS protocols *)
  let t =
    Tablefmt.create ~title:"E3/E4: rounds and locality vs n (this work)"
      ~headers:[ "protocol"; "n"; "rounds"; "max locality"; "mean KiB"; "p50 KiB"; "p95 KiB" ]
      ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Right; Right ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun protocol ->
          let r = Runner.run ~protocol ~n ~beta:0.1 ~seed:1 () in
          Tablefmt.add_row t
            [
              r.Runner.r_protocol;
              string_of_int n;
              string_of_int r.Runner.r_rounds;
              string_of_int r.Runner.r_locality;
              Tablefmt.fkib (int_of_float r.Runner.r_mean_bytes);
              Tablefmt.fkib (int_of_float r.Runner.r_p50_bytes);
              Tablefmt.fkib (int_of_float r.Runner.r_p95_bytes);
            ])
        [ Runner.This_work_owf; Runner.This_work_snark ])
    ns;
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E17: large-n scale sweep                                            *)
(* ------------------------------------------------------------------ *)

let bench_scale () =
  section "E17: large-n scale sweep (sparse engine; quadratic baselines capped)";
  let ns =
    if full then Runner.scale_ns_default
    else if smoke then [ 64; 128 ]
    else [ 256; 512; 1024 ]
  in
  let results = Runner.scale_rows ~ns ~beta:0.1 ~seed:1 () in
  scale_results := results;
  Tablefmt.print (Runner.scale_table results);
  print_endline
    "  (honest per-party p99 vs each protocol's declared total-bits curve;";
  print_endline
    "   the this-work curves stay under budget as n doubles while the";
  print_endline
    "   baselines cross their identical-shape declarations - E17)"

(* ------------------------------------------------------------------ *)
(* E5/F1 and E6/F2: security games                                     *)
(* ------------------------------------------------------------------ *)

let bench_games () =
  section "E5/F1: robustness games (Fig. 1) - adversary wins iff root rejects";
  let n = 128 and t = 16 in
  let trials = if full then 5 else 3 in
  let module G_owf = Srds_experiments.Make (Srds_owf) in
  let module G_snark = Srds_experiments.Make (Srds_snark) in
  let module G_abl = Srds_experiments.Make (Srds_snark_ablated) in
  let tbl =
    Tablefmt.create ~title:(Printf.sprintf "robustness, n=%d t=%d, %d seeds" n t trials)
      ~headers:[ "scheme"; "adversary"; "robust held"; "trials" ]
      ~aligns:[ Tablefmt.Left; Left; Right; Right ]
  in
  (* Trials are independent (each derives its own seed), so run them on the
     domain pool; the per-seed outcomes are identical to the sequential run. *)
  let count_true = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 in
  let run_owf name adv =
    let ok =
      count_true
        (Parallel.init trials (fun i ->
             (G_owf.robustness ~n ~t ~seed:(i + 1) (adv ())).G_owf.r_accepted))
    in
    Tablefmt.add_row tbl [ "owf"; name; string_of_int ok; string_of_int trials ]
  in
  run_owf "passive" (fun () -> G_owf.passive_adversary ~t);
  run_owf "silent" (fun () -> G_owf.silent_adversary ~t);
  run_owf "garbage" (fun () -> G_owf.garbage_adversary ~t);
  run_owf "duplicate" (fun () -> G_owf.duplicate_adversary ~t);
  run_owf "isolating" (fun () -> G_owf.isolating_adversary ~t);
  let run_snark name adv =
    let ok =
      count_true
        (Parallel.init trials (fun i ->
             (G_snark.robustness ~n ~t ~seed:(i + 1) (adv ())).G_snark.r_accepted))
    in
    Tablefmt.add_row tbl [ "snark"; name; string_of_int ok; string_of_int trials ]
  in
  run_snark "passive" (fun () -> G_snark.passive_adversary ~t);
  run_snark "silent" (fun () -> G_snark.silent_adversary ~t);
  run_snark "garbage" (fun () -> G_snark.garbage_adversary ~t);
  run_snark "duplicate" (fun () -> G_snark.duplicate_adversary ~t);
  run_snark "isolating" (fun () -> G_snark.isolating_adversary ~t);
  Tablefmt.print tbl;

  section "E6/F2: forgery games (Fig. 2) - adversary wins iff forgery accepted";
  let s_count = 10 in
  let tbl =
    Tablefmt.create ~title:(Printf.sprintf "forgery, n=%d t=%d, %d seeds" n t trials)
      ~headers:[ "scheme"; "adversary"; "forgeries"; "trials" ]
      ~aligns:[ Tablefmt.Left; Left; Right; Right ]
  in
  let run_f_owf name adv =
    let wins =
      count_true
        (Parallel.init trials (fun i ->
             (G_owf.forgery ~n ~t ~seed:(i + 1) (adv ())).G_owf.f_win))
    in
    Tablefmt.add_row tbl [ "owf"; name; string_of_int wins; string_of_int trials ]
  in
  run_f_owf "replay" (fun () -> G_owf.replay_adversary ~t ~s_count);
  run_f_owf "minority" (fun () -> G_owf.minority_adversary ~t ~s_count);
  run_f_owf "dup-inflate" (fun () ->
      G_owf.duplicate_inflation_adversary ~t ~s_count ~copies:6);
  let run_f_snark name adv =
    let wins =
      count_true
        (Parallel.init trials (fun i ->
             (G_snark.forgery ~n ~t ~seed:(i + 1) (adv ())).G_snark.f_win))
    in
    Tablefmt.add_row tbl [ "snark"; name; string_of_int wins; string_of_int trials ]
  in
  run_f_snark "replay" (fun () -> G_snark.replay_adversary ~t ~s_count);
  run_f_snark "minority" (fun () -> G_snark.minority_adversary ~t ~s_count);
  run_f_snark "dup-inflate" (fun () ->
      G_snark.duplicate_inflation_adversary ~t ~s_count ~copies:6);
  let wins =
    count_true
      (Parallel.init trials (fun i ->
           (G_abl.forgery ~n ~t ~seed:(i + 1)
              (G_abl.duplicate_inflation_adversary ~t ~s_count ~copies:8))
             .G_abl
             .f_win))
  in
  Tablefmt.add_row tbl
    [ "ABLATED (no ranges)"; "dup-inflate"; string_of_int wins; string_of_int trials ];
  Tablefmt.print tbl;
  print_endline
    "  (the ablated row validates the mechanism: removing the CRH/range";
  print_endline "   defense makes the Sec. 2.2 duplicate-replay attack succeed)"

(* ------------------------------------------------------------------ *)
(* E7: certificate size ablation                                       *)
(* ------------------------------------------------------------------ *)

module Cert_size (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)
  module B = Srds_intf.Batch (S)

  let measure ~n ~seed =
    let rng = Rng.create seed in
    let pp, master = S.setup rng ~n in
    let keys = B.keygen_all pp master rng ~count:n in
    let vks = Array.map fst keys in
    let msg = Bytes.of_string "cert" in
    let sigs =
      List.filter_map Fun.id
        (Array.to_list (B.sign_all pp (Array.map snd keys) ~msg))
    in
    let rec aggregate sigs =
      match sigs with
      | [] -> None
      | [ sg ] -> Some sg
      | _ ->
        let rec chunk = function
          | [] -> []
          | l ->
            let rec take k acc = function
              | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
              | rest -> (List.rev acc, rest)
            in
            let h, r = take 16 [] l in
            h :: chunk r
        in
        let next =
          List.filter_map
            (fun c -> S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg c))
            (chunk sigs)
        in
        if List.length next >= List.length sigs then None else aggregate next
    in
    match aggregate sigs with Some sg -> W.size sg | None -> -1
end

module Cs_owf = Cert_size (Srds_owf)
module Cs_snark = Cert_size (Srds_snark)
module Cs_vrf = Cert_size (Srds_vrf)
module Cs_ms = Cert_size (Baseline_multisig)

(* ------------------------------------------------------------------ *)
(* scheme-op exercise (real counter rows for every scheme)             *)
(* ------------------------------------------------------------------ *)

(* The counter snapshot attached to each experiment in BENCH_results.json
   only carries what that experiment actually executed; the srds-vrf rows
   were all zeros because neither the smoke nor the standard list drove
   its keygen/sign/aggregate/verify path (ROADMAP item 5 blemish). This
   experiment runs the full scheme-op contract once per scheme — setup,
   n keygens, n sign attempts, one aggregate chain, one verify — so every
   "<scheme>.{keygen,sign,aggregate,verify}" counter carries real values
   and the --compare regression gate can diff them. *)
module Scheme_ops (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)

  (* signers, aggregate wire bytes (-1 on failure), verified *)
  let run ~n ~seed =
    let rng = Rng.create seed in
    let pp, master = S.setup rng ~n in
    let keys = Array.init n (fun i -> S.keygen pp master rng ~index:i) in
    let vks = Array.map fst keys in
    let msg = Bytes.of_string "srds-ops" in
    let sigs =
      List.filter_map
        (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg)
        (List.init n (fun i -> i))
    in
    let signers = List.length sigs in
    match S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg sigs) with
    | Some agg -> (signers, W.size agg, S.verify pp ~vks ~msg agg)
    | None -> (signers, -1, false)
end

module Ops_owf = Scheme_ops (Srds_owf)
module Ops_snark = Scheme_ops (Srds_snark)
module Ops_vrf = Scheme_ops (Srds_vrf)
module Ops_ms = Scheme_ops (Baseline_multisig)

let bench_srds_ops () =
  section "scheme-op exercise (keygen/sign/aggregate/verify counters)";
  Repro_crypto.Wots.clear_cache ();
  let n = if smoke then 48 else 96 in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "one full signing flow per scheme, n=%d" n)
      ~headers:[ "scheme"; "signers"; "agg bytes"; "verified" ]
      ~aligns:[ Tablefmt.Left; Right; Right; Right ]
  in
  let row name (signers, bytes, ok) =
    Tablefmt.add_row t
      [ name; string_of_int signers; string_of_int bytes;
        (if ok then "yes" else "NO") ];
    if not ok then failwith (name ^ ": aggregate failed to verify")
  in
  row "srds-owf" (Ops_owf.run ~n ~seed:18);
  row "srds-snark" (Ops_snark.run ~n ~seed:18);
  row "srds-vrf" (Ops_vrf.run ~n ~seed:18);
  row "baseline-multisig" (Ops_ms.run ~n ~seed:18);
  Tablefmt.print t;
  print_endline
    "  (exists so the per-experiment counter snapshot in BENCH_results.json";
  print_endline
    "   has non-zero <scheme>.{keygen,sign,aggregate,verify} rows for all";
  print_endline "   four schemes, srds-vrf included)"

(* ------------------------------------------------------------------ *)
(* E18: scheduler backends — conformance + async partial synchrony     *)
(* ------------------------------------------------------------------ *)

let bench_async () =
  section
    "E18: scheduler backends - conformance + async partial synchrony";
  (* One transcript per (protocol, n, seed), whatever executes it. *)
  let ns = if smoke then [ 64 ] else [ 64; 256 ] in
  let conform = Runner.conformance_cells ~ns () in
  Tablefmt.print (Runner.conformance_table conform);
  if not (List.for_all (fun c -> c.Runner.cf_match && c.Runner.cf_rows_ok) conform)
  then failwith "E18: cross-backend conformance failed";
  (* The chaos sweep: latency jitter and pre-GST loss against live
     adversaries, over several GST horizons and seeds. Every cell must
     reach agreement + validity with zero post-GST stragglers. *)
  let knob_grid =
    if smoke then [ (2, 3, 0.1, 24) ]
    else [ (1, 1, 0.05, 16); (2, 3, 0.1, 24); (3, 5, 0.2, 64) ]
  in
  let seeds = if smoke then [ 1 ] else [ 1; 2 ] in
  let cells =
    List.concat_map
      (fun (delta, jitter, loss, gst) ->
        List.concat_map
          (fun seed ->
            Runner.async_cells ~seed
              ~cfg:
                { Repro_net.Sched.a_seed = seed; a_delta = delta;
                  a_jitter = jitter; a_loss = loss; a_gst = gst }
              ~cells:[ (Runner.This_work_owf, (if smoke then 64 else 128)) ]
              ())
          seeds)
      knob_grid
  in
  Tablefmt.print (Runner.async_table cells);
  print_endline
    "  (vt > rounds: jitter and retransmitted pre-GST losses stretch the";
  print_endline
    "   virtual clock; post-GST every delivery lands within 1+delta, so the";
  print_endline "   late column must be all zero)";
  if not (List.for_all (fun a -> a.Runner.ay_ok) cells) then
    failwith "E18: an async chaos cell broke agreement/validity";
  conform_cells := conform;
  async_cells := cells;
  (* E19 slice: the network-condition matrix at gate beta, including the
     two planted teeth rows (partition-forever, adaptive-unbounded). *)
  let conditions =
    if smoke then [ "delay"; "partition" ]
    else
      List.map Repro_adversary.Condition.name
        (Repro_adversary.Condition.catalogue ())
  in
  let strategies = if smoke then [ "silent" ] else [ "silent"; "equivocate" ] in
  let m =
    Runner.attack_matrix ~betas:[ 0.125 ] ~sanity_betas:[] ~seeds:[ 1 ]
      ~strategies ~conditions ~n:40 ()
  in
  Tablefmt.print (Runner.condition_table m);
  if not m.Runner.am_gate_ok then
    failwith "E19: a gated network-condition cell broke agreement/validity";
  if not m.Runner.am_condition_teeth then
    failwith "E19: a planted never-healing/unbounded row passed silently";
  condition_cells :=
    List.filter (fun c -> c.Runner.ac_condition <> "none") m.Runner.am_cells

let bench_certificates () =
  section "E7: certificate size - SRDS aggregate vs multisig(+bitmask) vs n";
  let t =
    Tablefmt.create
      ~title:"final certificate bytes (majority attestation on one message)"
      ~headers:[ "n"; "srds-owf"; "srds-snark"; "srds-vrf"; "multisig+mask" ]
      ~aligns:[ Tablefmt.Right; Right; Right; Right; Right ]
  in
  let ns =
    if full then [ 128; 256; 512; 1024; 2048; 4096; 8192 ]
    else [ 128; 256; 512; 1024; 2048; 4096 ]
  in
  List.iter
    (fun n ->
      Repro_crypto.Wots.clear_cache ();
      Tablefmt.add_row t
        [
          string_of_int n;
          string_of_int (Cs_owf.measure ~n ~seed:3);
          string_of_int (Cs_snark.measure ~n ~seed:3);
          string_of_int (Cs_vrf.measure ~n ~seed:3);
          string_of_int (Cs_ms.measure ~n ~seed:3);
        ])
    ns;
  Tablefmt.print t;
  print_endline
    "  (srds certificates are flat in n; the multisig bitmask grows as n/8";
  print_endline "   bytes - footnote 8's Theta(n) identity-vector cost)"

(* ------------------------------------------------------------------ *)
(* E8: succinctness vs batch size / tree depth                         *)
(* ------------------------------------------------------------------ *)

let bench_succinctness () =
  section "E8: aggregate size vs aggregation batch size (must stay flat)";
  let n = 512 in
  let module W = Srds_intf.Wire (Srds_snark) in
  let rng = Rng.create 4 in
  let pp, master = Srds_snark.setup rng ~n in
  let keys = Array.init n (fun i -> Srds_snark.keygen pp master rng ~index:i) in
  let vks = Array.map fst keys in
  let msg = Bytes.of_string "succinct" in
  let sigs =
    List.filter_map
      (fun i -> Srds_snark.sign pp (snd keys.(i)) ~index:i ~msg)
      (List.init n (fun i -> i))
  in
  let t =
    Tablefmt.create ~title:(Printf.sprintf "srds-snark, n=%d" n)
      ~headers:[ "batch"; "tree depth"; "aggregate bytes" ]
      ~aligns:[ Tablefmt.Right; Right; Right ]
  in
  List.iter
    (fun batch ->
      let depth = ref 0 in
      let rec aggregate sigs =
        match sigs with
        | [] -> None
        | [ sg ] -> Some sg
        | _ ->
          incr depth;
          let rec chunk = function
            | [] -> []
            | l ->
              let rec take k acc = function
                | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
                | rest -> (List.rev acc, rest)
              in
              let h, r = take batch [] l in
              h :: chunk r
          in
          aggregate
            (List.filter_map
               (fun c ->
                 Srds_snark.aggregate2 pp ~msg (Srds_snark.aggregate1 pp ~vks ~msg c))
               (chunk sigs))
      in
      match aggregate sigs with
      | Some sg ->
        Tablefmt.add_row t
          [ string_of_int batch; string_of_int !depth; string_of_int (W.size sg) ]
      | None -> ())
    [ 2; 4; 8; 16; 64; 256 ];
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E9: broadcast amortization (Cor. 1.2)                               *)
(* ------------------------------------------------------------------ *)

let bench_broadcast () =
  section "E9/Cor-1.2: broadcast amortization over l executions";
  let module Bc = Broadcast.Make (Srds_snark) in
  let n = if full then 128 else 96 in
  let rng = Rng.create 5 in
  let corrupt = Rng.subset rng ~n ~size:(n / 10) in
  let cfg = Balanced_ba.default_config ~n ~corrupt ~inputs:(Array.make n false) ~seed:5 () in
  let t =
    Tablefmt.create ~title:(Printf.sprintf "n=%d, beta=0.10" n)
      ~headers:[ "l"; "max KiB/party/exec"; "all consistent"; "all delivered" ]
      ~aligns:[ Tablefmt.Right; Right; Left; Left ]
  in
  List.iter
    (fun l ->
      let senders =
        List.filteri (fun k _ -> k < l)
          (List.filter (fun p -> not (List.mem p corrupt)) (List.init n (fun p -> p)))
      in
      let messages =
        List.map (fun p -> (p, Bytes.of_string (Printf.sprintf "m%d" p))) senders
      in
      let r = Bc.run cfg ~messages in
      Tablefmt.add_row t
        [
          string_of_int l;
          Printf.sprintf "%.1f" (r.Broadcast.amortized_max_bytes /. 1024.);
          string_of_bool
            (List.for_all (fun e -> e.Broadcast.consistent) r.Broadcast.execs);
          string_of_bool
            (List.for_all (fun e -> e.Broadcast.delivered) r.Broadcast.execs);
        ])
    [ 1; 2; 4; 8 ];
  Tablefmt.print t;
  print_endline "  (flat per-execution cost: l broadcasts cost l * polylog, Cor. 1.2)"

(* ------------------------------------------------------------------ *)
(* E10: tree quality vs corruption rate                                *)
(* ------------------------------------------------------------------ *)

let bench_tree_quality () =
  section "E10: almost-everywhere tree quality vs corruption rate";
  let open Repro_aetree in
  let n = 1024 in
  let params = Params.default n in
  let trials = if full then 5 else 3 in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "n=%d, %d random trees/point" n trials)
      ~headers:[ "beta"; "good-path leaves"; "connected parties"; "root good" ]
      ~aligns:[ Tablefmt.Right; Right; Right; Right ]
  in
  List.iter
    (fun beta ->
      let glf = ref 0.0 and conn = ref 0.0 and root_ok = ref 0 in
      for seed = 1 to trials do
        let rng = Rng.create (seed * 37) in
        let tree = Tree.random params rng in
        let corrupt_set =
          Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n))
        in
        let corrupt p = List.mem p corrupt_set in
        glf := !glf +. Tree.good_leaf_fraction tree ~corrupt;
        conn := !conn +. Tree.connected_fraction tree ~corrupt;
        if Tree.is_good tree ~corrupt ~level:params.Params.height ~idx:0 then
          incr root_ok
      done;
      let f = float_of_int trials in
      Tablefmt.add_row t
        [
          Printf.sprintf "%.2f" beta;
          Printf.sprintf "%.3f" (!glf /. f);
          Printf.sprintf "%.3f" (!conn /. f);
          Printf.sprintf "%d/%d" !root_ok trials;
        ])
    [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ];
  Tablefmt.print t;
  print_endline
    "  (the paper's Def. 2.3 guarantees hold up to beta < 1/3 asymptotically;";
  print_endline
    "   scaled polylog committees degrade earlier - DESIGN.md, substitutions)"

(* ------------------------------------------------------------------ *)
(* E11: one-shot boost                                                 *)
(* ------------------------------------------------------------------ *)

let bench_boost () =
  section "E11: one-shot boost - isolated-party recovery vs PRF degree";
  let module B = Boost.Make (Srds_owf) in
  let n = if full then 512 else 256 in
  let rng = Rng.create 6 in
  let corrupt = Rng.subset rng ~n ~size:(n / 10) in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "n=%d, beta=0.10, isolated=15%%" n)
      ~headers:[ "degree"; "recovered"; "fooled"; "max KiB/party" ]
      ~aligns:[ Tablefmt.Right; Right; Right; Right ]
  in
  List.iter
    (fun degree ->
      let r = B.run { Boost.n; corrupt; isolated_fraction = 0.15; degree; seed = 6 } in
      Tablefmt.add_row t
        [
          string_of_int degree;
          Printf.sprintf "%.3f" r.Boost.recovered_fraction;
          Printf.sprintf "%.3f" r.Boost.fooled_fraction;
          Tablefmt.fkib r.Boost.report.Metrics.max_bytes;
        ])
    [ 2; 4; 8; 16; 32; 64 ];
  Tablefmt.print t;
  let r =
    B.run_unauthenticated
      { Boost.n; corrupt; isolated_fraction = 0.15; degree = 16; seed = 6 }
  in
  Printf.printf "  unauthenticated (Thm 1.3 attack): recovered=%.3f FOOLED=%.3f\n"
    r.Boost.recovered_fraction r.Boost.fooled_fraction

(* ------------------------------------------------------------------ *)
(* B1-B6: Bechamel timing microbenches                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  section "B1-B6: Bechamel timing microbenches (OLS estimate per op)";
  let open Bechamel in
  let open Toolkit in
  (* fixtures *)
  let data4k = Bytes.make 4096 'x' in
  let digest = Repro_crypto.Hashx.hash_string ~tag:"bench" "message" in
  let wots_vk, wots_sk = Repro_crypto.Wots.keygen (Bytes.of_string "bench-seed") in
  let wots_sig = Repro_crypto.Wots.sign wots_sk digest in
  let n_srds = 256 in
  let rng = Rng.create 9 in
  let pp_owf, master_owf = Srds_owf.setup rng ~n:n_srds in
  let keys_owf =
    Array.init n_srds (fun i -> Srds_owf.keygen pp_owf master_owf rng ~index:i)
  in
  let vks_owf = Array.map fst keys_owf in
  let msg = Bytes.of_string "bench-msg" in
  let sigs_owf =
    List.filter_map
      (fun i -> Srds_owf.sign pp_owf (snd keys_owf.(i)) ~index:i ~msg)
      (List.init n_srds (fun i -> i))
  in
  let pp_sn, master_sn = Srds_snark.setup rng ~n:n_srds in
  let keys_sn =
    Array.init n_srds (fun i -> Srds_snark.keygen pp_sn master_sn rng ~index:i)
  in
  let vks_sn = Array.map fst keys_sn in
  let sigs_sn =
    List.filter_map
      (fun i -> Srds_snark.sign pp_sn (snd keys_sn.(i)) ~index:i ~msg)
      (List.init n_srds (fun i -> i))
  in
  let params = Repro_aetree.Params.default 1024 in
  let tests =
    [
      Test.make ~name:"B1 sha256/4KiB"
        (Staged.stage (fun () -> ignore (Repro_crypto.Sha256.digest data4k)));
      Test.make ~name:"B2 wots/sign"
        (Staged.stage (fun () -> ignore (Repro_crypto.Wots.sign wots_sk digest)));
      Test.make ~name:"B2 wots/verify"
        (Staged.stage (fun () ->
             ignore (Repro_crypto.Wots.verify_uncached wots_vk digest wots_sig)));
      Test.make ~name:"B3 srds-owf/agg+verify"
        (Staged.stage (fun () ->
             let filtered = Srds_owf.aggregate1 pp_owf ~vks:vks_owf ~msg sigs_owf in
             match Srds_owf.aggregate2 pp_owf ~msg filtered with
             | Some sg -> ignore (Srds_owf.verify pp_owf ~vks:vks_owf ~msg sg)
             | None -> ()));
      Test.make ~name:"B4 srds-snark/agg+verify"
        (Staged.stage (fun () ->
             let filtered = Srds_snark.aggregate1 pp_sn ~vks:vks_sn ~msg sigs_sn in
             match Srds_snark.aggregate2 pp_sn ~msg filtered with
             | Some sg -> ignore (Srds_snark.verify pp_sn ~vks:vks_sn ~msg sg)
             | None -> ()));
      Test.make ~name:"B5 tree/build-1024"
        (Staged.stage (fun () ->
             ignore (Repro_aetree.Tree.random params (Rng.create 1))));
      Test.make ~name:"B6 field/shamir-33"
        (Staged.stage (fun () ->
             let rng = Rng.create 2 in
             let shares =
               Repro_crypto.Shamir.share rng
                 ~secret:(Repro_crypto.Field.of_int 7)
                 ~threshold:10 ~num_shares:33
             in
             ignore (Repro_crypto.Shamir.reconstruct shares)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"repro" tests) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let t =
    Tablefmt.create ~title:"timing (monotonic clock)"
      ~headers:[ "bench"; "time/op" ]
      ~aligns:[ Tablefmt.Left; Tablefmt.Right ]
  in
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) ->
          if e > 1e9 then Printf.sprintf "%.2f s" (e /. 1e9)
          else if e > 1e6 then Printf.sprintf "%.2f ms" (e /. 1e6)
          else if e > 1e3 then Printf.sprintf "%.2f us" (e /. 1e3)
          else Printf.sprintf "%.0f ns" e
        | _ -> "n/a"
      in
      Tablefmt.add_row t [ name; est ])
    (List.sort compare rows);
  Tablefmt.print t

(* ------------------------------------------------------------------ *)
(* E13: per-phase communication breakdown                              *)
(* ------------------------------------------------------------------ *)

let bench_breakdown () =
  section "E13: where the bytes go - per-phase breakdown of one BA run";
  let module Ba = Balanced_ba.Make (Srds_snark) in
  let module Ba_ms = Balanced_ba.Make (Baseline_multisig) in
  let n = 256 in
  let rng = Rng.create 8 in
  let corrupt = Rng.subset rng ~n ~size:(n / 10) in
  let cfg =
    Balanced_ba.default_config ~n ~corrupt
      ~inputs:(Array.init n (fun i -> i mod 2 = 0))
      ~seed:8 ()
  in
  let show label (r : Balanced_ba.result) =
    let total =
      List.fold_left (fun acc (_, b) -> acc + b) 0 r.Balanced_ba.breakdown
    in
    let t =
      Tablefmt.create
        ~title:(Printf.sprintf "%s, n=%d (total %.1f MiB sent)" label n
                  (float_of_int total /. 1048576.))
        ~headers:[ "phase"; "MiB"; "%" ]
        ~aligns:[ Tablefmt.Left; Right; Right ]
    in
    List.iter
      (fun (g, b) ->
        if b * 100 > total then
          Tablefmt.add_row t
            [
              g;
              Printf.sprintf "%.2f" (float_of_int b /. 1048576.);
              Printf.sprintf "%.1f" (100. *. float_of_int b /. float_of_int total);
            ])
      r.Balanced_ba.breakdown;
    Tablefmt.print t
  in
  show "this-work-snark" (Ba.run cfg);
  show "multisig-boost (same pipeline)" (Ba_ms.run cfg);
  print_endline
    "  (with SRDS the cost is spread over committee machinery; with Theta(n)";
  print_endline
    "   certificates the sig/up/dissemination phases blow up - footnote 8)"

(* ------------------------------------------------------------------ *)
(* E14: the full protocol under setup-aware corruption                 *)
(* ------------------------------------------------------------------ *)

let bench_protocol_under_attack () =
  section "E14: full BA under setup-aware corruption strategies";
  let n = 128 in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "this-work-snark, n=%d, beta sweep" n)
      ~headers:[ "strategy"; "beta"; "ok"; "note" ]
      ~aligns:[ Tablefmt.Left; Right; Left; Left ]
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun beta ->
          let r = Runner.run_under_attack ~strategy ~n ~beta ~seed:9 in
          Tablefmt.add_row t
            [
              Repro_aetree.Attacks.strategy_name strategy;
              Printf.sprintf "%.2f" beta;
              (if r.Runner.r_ok then "yes" else "NO");
              r.Runner.r_note;
            ])
        [ 0.05; 0.10; 0.15 ])
    [ Repro_aetree.Attacks.Random; Repro_aetree.Attacks.Kill_leaves ];
  Tablefmt.print t;
  print_endline
    "  (the informed leaf-killing adversary; Def. 3.4's repeated parties and";
  print_endline "   the boost round absorb it at the rates the protocol targets)"

(* ------------------------------------------------------------------ *)
(* E6b: the VRF grinding attack (Sec. 2.2's model caveat)              *)
(* ------------------------------------------------------------------ *)

let bench_vrf_grinding () =
  section "E6b: VRF sortition - key-after-CRS grinding attack (Sec. 2.2 caveat)";
  let n = 150 in
  let rng = Rng.create 4 in
  let pp, master = Srds_vrf.setup rng ~n in
  let keys = Array.init n (fun i -> Srds_vrf.keygen pp master rng ~index:i) in
  let m' = Bytes.of_string "forged" in
  let t = Srds_vrf.threshold pp + 2 in
  (* registered ordering: corrupt parties keep their pre-CRS keys *)
  let honest_vks = Array.map fst keys in
  let corrupt_sigs =
    List.filter_map
      (fun k -> Srds_vrf.sign pp (snd keys.(k)) ~index:k ~msg:m')
      (List.init t (fun k -> k))
  in
  let registered_forged =
    match
      Srds_vrf.aggregate2 pp ~msg:m'
        (Srds_vrf.aggregate1 pp ~vks:honest_vks ~msg:m' corrupt_sigs)
    with
    | Some agg -> Srds_vrf.verify pp ~vks:honest_vks ~msg:m' agg
    | None -> false
  in
  (* bare ordering: the adversary grinds replacement keys after the CRS *)
  let vks = Array.map fst keys in
  let ground =
    List.init t (fun k ->
        match Srds_vrf.grind_key pp rng with
        | Some (vk, sk) ->
          vks.(k) <- vk;
          (k, sk)
        | None -> failwith "grind failed")
  in
  let forged_sigs =
    List.filter_map (fun (k, sk) -> Srds_vrf.sign pp sk ~index:k ~msg:m') ground
  in
  let bare_forged =
    match
      Srds_vrf.aggregate2 pp ~msg:m' (Srds_vrf.aggregate1 pp ~vks ~msg:m' forged_sigs)
    with
    | Some agg -> Srds_vrf.verify pp ~vks ~msg:m' agg
    | None -> false
  in
  Printf.printf "  n=%d, %d corrupt parties (< n/3), signer threshold %d
" n t
    (Srds_vrf.threshold pp);
  Printf.printf "  keys registered BEFORE the CRS: forgery accepted = %b
" registered_forged;
  Printf.printf "  keys replaced AFTER the CRS:    forgery accepted = %b
" bare_forged;
  print_endline
    "  (the paper's point: the Algorand-style VRF approach needs a CRS";
  print_endline "   independent of corrupted parties' public keys)"

(* ------------------------------------------------------------------ *)
(* E11b: Thm 1.4 - boost with an inverted one-way function             *)
(* ------------------------------------------------------------------ *)

let bench_thm14 () =
  section "E11b: Thm 1.4 - one-shot boost when the adversary inverts the OWF";
  let module B = Boost.Make (Srds_owf) in
  let n = 200 in
  let cfg =
    {
      Boost.n;
      corrupt = List.init (n / 10) (fun i -> i);
      isolated_fraction = 0.15;
      degree = 16;
      seed = 7;
    }
  in
  let sound = B.run cfg in
  let broken = B.run_with_inverted_owf cfg in
  Printf.printf "  OWF intact:   recovered=%.3f fooled=%.3f
"
    sound.Boost.recovered_fraction sound.Boost.fooled_fraction;
  Printf.printf "  OWF inverted: recovered=%.3f FOOLED=%.3f
"
    broken.Boost.recovered_fraction broken.Boost.fooled_fraction;
  print_endline
    "  (with signing keys recoverable from public keys the adversary's";
  print_endline
    "   conflicting certificate is genuinely valid - OWFs are necessary)"

(* ------------------------------------------------------------------ *)
(* E12: targeted tree corruption vs repeated parties (Def. 3.4)        *)
(* ------------------------------------------------------------------ *)

let bench_targeted_corruption () =
  section "E12: setup-aware corruption vs Def. 3.4's repeated parties";
  let open Repro_aetree in
  let n = 512 in
  let lg = max 2 (Repro_util.Mathx.log2_ceil n) in
  let p_z1 =
    Params.make ~n ~z:1 ~leaf_size:(3 * lg) ~committee_size:(max 8 (3 * lg))
      ~branching:(max 2 lg)
  in
  let p_z = Params.default n in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "n=%d, budget=n/8 corruptions" n)
      ~headers:
        [ "assignment"; "strategy"; "good-path leaves"; "connected"; "root good" ]
      ~aligns:[ Tablefmt.Left; Left; Right; Right; Right ]
  in
  List.iter
    (fun (label, params) ->
      let tree = Tree.random params (Rng.create 13) in
      List.iter
        (fun strategy ->
          let d =
            Attacks.measure tree ~strategy ~budget:(n / 8) ~rng:(Rng.create 14)
          in
          Tablefmt.add_row t
            [
              label;
              d.Attacks.d_strategy;
              Printf.sprintf "%.3f" d.Attacks.d_good_leaf_fraction;
              Printf.sprintf "%.3f" d.Attacks.d_connected_fraction;
              string_of_bool d.Attacks.d_root_good;
            ])
        [ Attacks.Random; Attacks.Kill_leaves; Attacks.Target_root ])
    [ ("z=1 (Def 2.3)", p_z1); (Printf.sprintf "z=%d (Def 3.4)" p_z.Params.z, p_z) ];
  Tablefmt.print t;
  print_endline
    "  (an informed adversary kills far more leaves than random corruption,";
  print_endline
    "   but repeated parties keep the connected fraction high - the Def. 3.4";
  print_endline "   mechanism measured.";
  print_endline
    "   NOTE: target-root is OUT OF MODEL - the paper's adversary corrupts";
  print_endline
    "   before committees are elected, so it cannot aim at the supreme";
  print_endline "   committee; the row shows why that ordering matters)"

(* ------------------------------------------------------------------ *)
(* --compare: regression diffing of two BENCH_results.json files       *)
(* ------------------------------------------------------------------ *)

module Compare = struct
  let load path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Json.parse s with
    | Ok v -> v
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)

  (* A file written by an older harness predates some sections (schema /3
     added det_counters, /4 scale, /5 profile). A missing section makes that
     comparison "not comparable" — noted and skipped, never a crash and
     never a false regression. *)
  let section path key j =
    match Json.member key j with
    | Some v -> Some v
    | None ->
      Printf.printf "  (%s: no \"%s\" section; not comparable, skipped)\n"
        path key;
      None

  let schema_of j =
    Option.value ~default:"pre-schema/1"
      (Option.bind (Json.member "schema" j) Json.to_string)

  (* name -> (wall_s, det counter assoc or None for pre-schema/3 files,
     profile minor_words or None for pre-schema/5 files) *)
  let experiments path j =
    section path "experiments" j
    |> Fun.flip Option.bind Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun e ->
           match (Json.member "name" e, Json.member "wall_s" e) with
           | Some name, Some wall ->
             let det =
               match Json.member "det_counters" e with
               | Some (Json.Obj kvs) ->
                 Some
                   (List.filter_map
                      (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_int v))
                      kvs)
               | _ -> None
             in
             let alloc =
               Option.bind (Json.member "profile" e) (fun p ->
                   Option.bind (Json.member "minor_words" p) Json.to_float)
             in
             Some
               ( Option.value ~default:"?" (Json.to_string name),
                 Option.value ~default:0.0 (Json.to_float wall),
                 det,
                 alloc )
           | _ -> None)

  (* (protocol, n) -> (total_bytes, max_bytes) *)
  let table1 path j =
    section path "table1" j
    |> Fun.flip Option.bind Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun r ->
           match
             ( Option.bind (Json.member "protocol" r) Json.to_string,
               Option.bind (Json.member "n" r) Json.to_int,
               Option.bind (Json.member "total_bytes" r) Json.to_int,
               Option.bind (Json.member "max_bytes" r) Json.to_int )
           with
           | Some p, Some n, Some total, Some mx -> Some ((p, n), (total, mx))
           | _ -> None)

  (* (protocol, strategy, condition, n, beta-in-1e-4, seed)
     -> (ok, gated, rounds, vt); schema /7 files only. *)
  let conditions path j =
    section path "conditions" j
    |> Fun.flip Option.bind Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun r ->
           match
             ( Option.bind (Json.member "protocol" r) Json.to_string,
               Option.bind (Json.member "strategy" r) Json.to_string,
               Option.bind (Json.member "condition" r) Json.to_string,
               Option.bind (Json.member "n" r) Json.to_int,
               Option.bind (Json.member "beta" r) Json.to_float,
               Option.bind (Json.member "seed" r) Json.to_int )
           with
           | Some p, Some s, Some c, Some n, Some b, Some seed ->
             let flag k d =
               Option.value ~default:d (Option.bind (Json.member k r) Json.to_bool)
             in
             let int k =
               Option.value ~default:0 (Option.bind (Json.member k r) Json.to_int)
             in
             Some
               ( (p, s, c, n, int_of_float (b *. 1e4), seed),
                 (flag "ok" false, flag "gated" true, int "rounds", int "vt")
               )
           | _ -> None)

  (* Sign convention: positive = the current run costs more. *)
  let delta_pct prev cur =
    if prev = 0 then if cur = 0 then Some 0.0 else None
    else Some (100.0 *. float_of_int (cur - prev) /. float_of_int prev)

  let fmt_delta = function
    | Some d -> Printf.sprintf "%+.1f%%" d
    | None -> "new"

  (* Exit code 1 iff per-party bytes or a deterministic counter regress by
     more than [threshold] percent. Wall times are printed for context but
     never gated: they are machine/load noise; the gated quantities are
     bit-exact functions of the logical work. *)
  let run ~prev_path ~cur_path ~threshold =
    let prev = load prev_path and cur = load cur_path in
    let regressions = ref [] in
    let gate what = function
      | Some d when d > threshold -> regressions := what :: !regressions
      | None -> regressions := what :: !regressions (* appeared from zero *)
      | Some _ -> ()
    in
    Printf.printf "bench compare: %s -> %s (threshold %.1f%%)\n" prev_path
      cur_path threshold;
    Printf.printf "  schemas: %s -> %s\n" (schema_of prev) (schema_of cur);

    (* Table 1 rows: the per-party and total byte costs. *)
    let t1_prev = table1 prev_path prev and t1_cur = table1 cur_path cur in
    let tbl =
      Tablefmt.create ~title:"communication (table1 rows present in both files)"
        ~headers:
          [ "protocol"; "n"; "total prev"; "total cur"; "d total";
            "max/party prev"; "max/party cur"; "d max" ]
        ~aligns:
          [ Tablefmt.Left; Right; Right; Right; Right; Right; Right; Right ]
    in
    List.iter
      (fun ((proto, n), (total_p, max_p)) ->
        match List.assoc_opt (proto, n) t1_cur with
        | None -> ()
        | Some (total_c, max_c) ->
          let d_total = delta_pct total_p total_c in
          let d_max = delta_pct max_p max_c in
          gate (Printf.sprintf "%s n=%d total_bytes" proto n) d_total;
          gate (Printf.sprintf "%s n=%d max_bytes" proto n) d_max;
          Tablefmt.add_row tbl
            [
              proto; string_of_int n; string_of_int total_p;
              string_of_int total_c; fmt_delta d_total; string_of_int max_p;
              string_of_int max_c; fmt_delta d_max;
            ])
      t1_prev;
    Tablefmt.print tbl;

    (* Experiments: wall time and GC allocation (context) + deterministic
       counters (gated). *)
    let ex_prev = experiments prev_path prev
    and ex_cur = experiments cur_path cur in
    let tbl =
      Tablefmt.create ~title:"experiments"
        ~headers:
          [ "experiment"; "wall prev"; "wall cur"; "d wall"; "d alloc";
            "det counters regressed" ]
        ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Left ]
    in
    List.iter
      (fun (name, wall_p, det_p, alloc_p) ->
        match
          List.find_opt (fun (n, _, _, _) -> n = name) ex_cur
        with
        | None -> ()
        | Some (_, wall_c, det_c, alloc_c) ->
          let counter_note =
            match (det_p, det_c) with
            | Some dp, Some dc ->
              let regressed =
                List.filter_map
                  (fun (k, pv) ->
                    match List.assoc_opt k dc with
                    | None -> None
                    | Some cv -> (
                      let what = Printf.sprintf "%s %s" name k in
                      match delta_pct pv cv with
                      | Some d when d > threshold ->
                        regressions := what :: !regressions;
                        Some (Printf.sprintf "%s %s" k (fmt_delta (Some d)))
                      | None ->
                        regressions := what :: !regressions;
                        Some (Printf.sprintf "%s new=%d" k cv)
                      | Some _ -> None))
                  dp
              in
              if regressed = [] then "-" else String.concat ", " regressed
            | _ -> "(no det_counters; pre-schema/3 file)"
          in
          let d_wall =
            if wall_p > 0.0 then
              Printf.sprintf "%+.1f%%" (100.0 *. (wall_c -. wall_p) /. wall_p)
            else "-"
          in
          let d_alloc =
            match (alloc_p, alloc_c) with
            | Some ap, Some ac when ap > 0.0 ->
              Printf.sprintf "%+.1f%%" (100.0 *. (ac -. ap) /. ap)
            | _ -> "-" (* pre-schema/5 file on either side *)
          in
          Tablefmt.add_row tbl
            [
              name;
              Printf.sprintf "%.2fs" wall_p;
              Printf.sprintf "%.2fs" wall_c;
              d_wall;
              d_alloc;
              counter_note;
            ])
      ex_prev;
    Tablefmt.print tbl;

    (* E19 condition cells (schema /7): gate only a gated cell flipping from
       ok to broken — rounds/vt drift is printed for context. Pre-/7 files
       have no "conditions" section and skip via [section]. *)
    let cond_prev = conditions prev_path prev
    and cond_cur = conditions cur_path cur in
    (if cond_prev <> [] && cond_cur <> [] then begin
       let tbl =
         Tablefmt.create ~title:"condition cells (present in both files)"
           ~headers:
             [ "protocol"; "strategy"; "condition"; "ok prev"; "ok cur";
               "d rounds"; "d vt" ]
           ~aligns:[ Tablefmt.Left; Left; Left; Right; Right; Right; Right ]
       in
       List.iter
         (fun (key, (ok_p, gated, rounds_p, vt_p)) ->
           match List.assoc_opt key cond_cur with
           | None -> ()
           | Some (ok_c, _, rounds_c, vt_c) ->
             let proto, strat, cond, _, _, _ = key in
             if gated && ok_p && not ok_c then
               regressions :=
                 Printf.sprintf "condition %s/%s/%s ok -> broken" proto strat
                   cond
                 :: !regressions;
             Tablefmt.add_row tbl
               [
                 proto; strat; cond;
                 (if ok_p then "ok" else "x");
                 (if ok_c then "ok" else "x");
                 fmt_delta (delta_pct rounds_p rounds_c);
                 fmt_delta (delta_pct vt_p vt_c);
               ])
         cond_prev;
       Tablefmt.print tbl
     end);

    match List.rev !regressions with
    | [] ->
      print_endline "no regressions beyond threshold";
      0
    | rs ->
      Printf.printf "REGRESSIONS (%d):\n" (List.length rs);
      List.iter (fun r -> Printf.printf "  %s\n" r) rs;
      1
end

(* Minimal flag parsing: the harness keeps its env-var interface for mode
   selection; flags cover the two tool-style entry points. *)
let parse_args () =
  let compare_paths = ref [] and threshold = ref 5.0 and audit = ref false in
  let rec go = function
    | [] -> ()
    | "--compare" :: prev :: rest when String.length prev > 0 && prev.[0] <> '-'
      ->
      let cur, rest =
        match rest with
        | c :: r when String.length c > 0 && c.[0] <> '-' -> (c, r)
        | _ -> ("BENCH_results.json", rest)
      in
      compare_paths := [ prev; cur ];
      go rest
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some f -> threshold := f
      | None -> failwith ("--threshold: bad number " ^ v));
      go rest
    | "--audit" :: rest ->
      audit := true;
      go rest
    | arg :: _ ->
      failwith
        (Printf.sprintf
           "unknown argument %s (usage: bench [--audit] [--compare PREV.json \
            [CUR.json]] [--threshold PCT])"
           arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!compare_paths, !threshold, !audit)

let () =
  (* The harness always meters crypto work: the per-experiment counter
     objects in BENCH_results.json are what before/after perf comparisons
     diff. (A few ns per op; the protocol wall times stay dominated by the
     protocols themselves.) *)
  let compare_paths, threshold, audit = parse_args () in
  (match compare_paths with
  | [ prev_path; cur_path ] ->
    exit (Compare.run ~prev_path ~cur_path ~threshold)
  | _ -> ());
  if audit then Repro_obs.Audit.enable_global ();
  Repro_obs.Counters.enable ();
  let t0 = Unix.gettimeofday () in
  print_endline "Reproduction benchmark harness:";
  print_endline
    "\"Breaking the O(sqrt n)-Bit Barrier: BA with Polylog Bits Per Party\"";
  Printf.printf
    "(mode: %s; BENCH_FULL=1 for larger sweeps, BENCH_SMOKE=1 for a <30s \
     subset; REPRO_DOMAINS=%d)\n"
    mode (Parallel.domains ());
  let experiments =
    if smoke then
      [ ("table1", bench_table1); ("breakdown", bench_breakdown);
        ("scale", bench_scale); ("async", bench_async);
        ("srds_ops", bench_srds_ops) ]
    else
      [
        ("table1", bench_table1);
        ("sweep", bench_sweep);
        ("scale", bench_scale);
        ("async", bench_async);
        ("games", bench_games);
        ("certificates", bench_certificates);
        ("srds_ops", bench_srds_ops);
        ("succinctness", bench_succinctness);
        ("broadcast", bench_broadcast);
        ("breakdown", bench_breakdown);
        ("tree_quality", bench_tree_quality);
        ("targeted_corruption", bench_targeted_corruption);
        ("protocol_under_attack", bench_protocol_under_attack);
        ("boost", bench_boost);
        ("thm14", bench_thm14);
        ("vrf_grinding", bench_vrf_grinding);
        ("bechamel", bechamel_benches);
      ]
  in
  List.iter (fun (name, f) -> timed_experiment name f) experiments;
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench wall time: %.1fs\n" total;
  write_results ~total_wall_s:total
