(* One definition per reproduced experiment. Each function below runs one
   experiment at its fixture (the parameters EXPERIMENTS.md quotes) and
   returns what it found as one [outcome]; the benchmark harness
   (bench/main.ml) and the CLI (bin/ba_sim.ml) only choose parameters and
   print, write and gate that outcome. Every gate lives here. *)

open Runner
module Rng = Repro_util.Rng
module Tablefmt = Repro_util.Tablefmt
module Parallel = Repro_util.Parallel
module Json = Repro_util.Json
module Sched = Repro_net.Sched
module Audit = Repro_obs.Audit
module Recorder = Repro_obs.Recorder

type outcome = {
  text : string;
  report : Json.t option;
  rows : (string * Json.t list) list;
  files : (string * string) list;
  failures : string list;
}

let merge outcomes =
  let all f = List.concat_map f outcomes in
  {
    text = String.concat "" (List.map (fun o -> o.text) outcomes);
    report = List.find_map (fun o -> o.report) outcomes;
    rows = all (fun o -> o.rows);
    files = all (fun o -> o.files);
    failures = all (fun o -> o.failures);
  }

(* --- text building --- *)

let section b title = Printf.bprintf b "\n############ %s ############\n\n" title
let lines b ls = List.iter (fun l -> Buffer.add_string b (l ^ "\n")) ls

(* One table: [rows] are its cells, row by row. *)
let table b ~title ~headers ~aligns rows =
  let t = Tablefmt.create ~title ~headers ~aligns in
  List.iter (Tablefmt.add_row t) rows;
  Buffer.add_string b (Tablefmt.render t)

(* A gate: print its pass line (when it has one) or its failure line, and
   return the failure line as the outcome's failure reason. *)
let check b ok ?pass fail =
  if ok then (Option.iter (fun p -> lines b [ p ]) pass; [])
  else (lines b [ fail ]; [ fail ])

let finish ?report ?(rows = []) ?(files = []) ?(failures = []) b =
  { text = Buffer.contents b; report; rows; files; failures }

let yes_no ok = if ok then "yes" else "NO"
let f1 = Printf.sprintf "%.1f"
let f3 = Printf.sprintf "%.3f"
let mib bytes = float_of_int bytes /. 1048576.

let is_this_work name =
  match protocol_of_name name with
  | Some (This_work_owf | This_work_snark) -> true
  | _ -> false

(* --- T1/E1: Table 1, measured --- *)

let table1 ?(ns = [ 64; 128; 256 ]) ?(beta = 0.1) ?(seed = 1) () =
  let b = Buffer.create 2048 in
  section b "T1/E1: Table 1 (measured rows)";
  let sweeps = sweep_rows ~ns ~beta ~seed () in
  (* n-major, as the paper's table reads: every protocol at the first n,
     then the next n *)
  let rows =
    List.concat
      (List.mapi (fun i _ -> List.map (fun s -> snd (List.nth s.s_points i)) sweeps) ns)
  in
  table b
    ~title:
      (Printf.sprintf "Table 1 (measured): almost-everywhere -> everywhere, beta=%.2f"
         beta)
    ~headers:
      [ "protocol"; "n"; "rounds"; "max KiB/party"; "mean KiB"; "total MiB";
        "locality"; "ok"; "note" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Right; Right; Left; Left ]
    (List.map
       (fun r ->
         [
           r.r_protocol; string_of_int r.r_n; string_of_int r.r_rounds;
           Tablefmt.fkib r.r_max_bytes; Tablefmt.fkib (int_of_float r.r_mean_bytes);
           f1 (mib r.r_total_bytes); string_of_int r.r_locality; yes_no r.r_ok;
           r.r_note;
         ])
       rows);
  finish b ~rows:[ ("table1", List.map row_json rows) ]

(* --- E2-E4: scaling sweep, growth exponents --- *)

let sweep ?(ns = [ 64; 128; 256; 512 ]) ?(beta = 0.1) ?(seed = 1) () =
  let b = Buffer.create 4096 in
  section b "E2-E4: scaling sweep (max KiB/party per n; fitted exponents)";
  (* Dolev–Strong stays out of the sweep: its Theta(n^2) signature-chain
     traffic makes the large-n points cost minutes of simulation for a
     curve whose shape Table 1 already shows at n <= 256. *)
  let protocols = List.filter (fun p -> p <> Dolev_strong) all_protocols in
  let sweeps = sweep_rows ~ns ~beta ~seed ~protocols () in
  table b ~title:"Scaling sweep: max per-party communication vs n (fitted exponent)"
    ~headers:
      (("protocol" :: List.map (Printf.sprintf "n=%d") ns)
      @ [ "slope(max)"; "slope(mean)"; "slope(loc)" ])
    ~aligns:(Tablefmt.Left :: List.map (fun _ -> Tablefmt.Right) (ns @ [ 0; 0; 0 ]))
    (List.map
       (fun s ->
         (s.s_protocol :: List.map (fun (_, r) -> Tablefmt.fkib r.r_max_bytes) s.s_points)
         @ List.map Tablefmt.f2 [ s.s_slope_max; s.s_slope_mean; s.s_slope_locality ])
       sweeps);
  (* visual: the shapes on one log-log chart *)
  let series =
    List.mapi
      (fun i s ->
        Repro_util.Ascii_plot.make_series
          ~glyph:Repro_util.Ascii_plot.default_glyphs.(i mod 6)
          ~label:s.s_protocol
          (List.map
             (fun (n, r) -> (float_of_int n, float_of_int r.r_max_bytes /. 1024.))
             s.s_points))
      sweeps
  in
  Buffer.add_string b
    (Repro_util.Ascii_plot.render ~title:"max KiB per party vs n" ~x_label:"n"
       ~y_label:"KiB/party" series);
  lines b
    [
      "  (slope ~0.5 = sqrt(n) shape, ~1.0 = linear; see EXPERIMENTS.md for";
      "   the asymptotic-crossover discussion at simulation scale)";
    ];
  (* rounds and locality detail for the two SRDS protocols *)
  table b ~title:"E3/E4: rounds and locality vs n (this work)"
    ~headers:[ "protocol"; "n"; "rounds"; "max locality"; "mean KiB"; "p50 KiB"; "p95 KiB" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Right; Right ]
    (List.concat_map
       (fun n ->
         List.filter_map
           (fun s ->
             if not (is_this_work s.s_protocol) then None
             else
               let r = List.assoc n s.s_points in
               let kib x = Tablefmt.fkib (int_of_float x) in
               Some
                 [
                   r.r_protocol; string_of_int n; string_of_int r.r_rounds;
                   string_of_int r.r_locality; kib r.r_mean_bytes; kib r.r_p50_bytes;
                   kib r.r_p95_bytes;
                 ])
           sweeps)
       ns);
  finish b

(* --- E17: large-n scale sweep --- *)

let scale ?(ns = scale_ns_default) ?(beta = 0.1) ?(seed = 1) ?protocols () =
  let b = Buffer.create 4096 in
  section b "E17: large-n scale sweep (sparse engine; quadratic baselines capped)";
  let results = scale_rows ~ns ~beta ~seed ?protocols () in
  let point_row sc i sp =
    let r = sp.sp_row in
    let budget, used =
      match sp.sp_budget_bits with
      | None -> ("-", "-")
      | Some bu -> (f1 (bu /. 8192.), Printf.sprintf "%.0f%%" (100.0 *. sp.sp_p99_bits /. bu))
    in
    let label =
      match sc.sc_cap with
      | None -> sc.sc_protocol
      | Some c -> Printf.sprintf "%s (cap %d)" sc.sc_protocol c
    in
    [
      (if i = 0 then label else ""); string_of_int r.r_n; string_of_int r.r_rounds;
      f1 (sp.sp_p99_bits /. 8192.); budget; used; yes_no sp.sp_within;
      string_of_int sp.sp_violations; yes_no r.r_ok;
      (if i = List.length sc.sc_points - 1 then Tablefmt.f2 sc.sc_slope_p99 else "");
    ]
  in
  table b
    ~title:
      (Printf.sprintf
         "E17 scale sweep: honest p99 bits/party vs declared budget, beta=%.2f \
          (capped baselines marked)"
         beta)
    ~headers:
      [ "protocol"; "n"; "rounds"; "p99 KiB"; "budget KiB"; "used"; "within"; "viol";
        "ok"; "slope(p99)" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Right; Left; Right; Left; Right ]
    (List.concat_map (fun sc -> List.mapi (point_row sc) sc.sc_points) results);
  lines b
    [
      "  (honest per-party p99 vs each protocol's declared total-bits curve;";
      "   the this-work curves stay under budget as n doubles while the";
      "   baselines cross their identical-shape declarations - E17)";
    ];
  (* The headline separation must be visible in this very output: both
     this-work curves within budget and violation-free at every swept n,
     and some sqrt-n or linear baseline over its declared curve.
     Dolev-Strong does not count: its polylog declaration is there to be
     exceeded, so it would show the separation on its own. *)
  let this_work = List.filter (fun sc -> is_this_work sc.sc_protocol) results in
  let baselines =
    List.filter
      (fun sc ->
        match protocol_of_name sc.sc_protocol with
        | Some (Multisig_boost | Sqrt_boost | Naive_boost) -> true
        | _ -> false)
      results
  in
  let within =
    check b
      (List.for_all
         (fun sc ->
           List.for_all (fun sp -> sp.sp_within && sp.sp_violations = 0) sc.sc_points)
         this_work)
      "gate: a this-work curve broke its declared budget"
  in
  let separation =
    check b
      (List.exists
         (fun sc -> List.exists (fun sp -> not sp.sp_within) sc.sc_points)
         baselines)
      "gate: no baseline exceeded its curve (separation not shown)"
  in
  let failures = within @ separation in
  if failures = [] then
    lines b [ "gate: this-work within budget at every n; baseline separation shown" ];
  finish b ~failures ~report:(scale_json results)
    ~rows:
      [
        ( "scale",
          List.concat_map
            (fun sc -> List.map (scale_point_json ~cap:sc.sc_cap) sc.sc_points)
            results );
      ]

(* --- E5/F1 and E6/F2: security games --- *)

module Games (S : Srds_intf.SCHEME) = struct
  module G = Srds_experiments.Make (S)

  (* Trials are independent (each derives its own seed), so they run on the
     domain pool; the per-seed outcomes are identical to the sequential run.
     Each starts from a cold [Wots.verify] memo, so its counters do not
     depend on which trials its domain ran before. *)
  let count ~trials ~seed win =
    Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0
      (Parallel.init trials (fun i ->
           Repro_crypto.Wots.clear_cache ();
           win (seed + i)))

  let robustness ~n ~t ~trials ~seed =
    List.map
      (fun (name, adv) ->
        (name, count ~trials ~seed (fun seed -> (G.robustness ~n ~t ~seed (adv ~t)).G.r_accepted)))
      [
        ("passive", G.passive_adversary); ("silent", G.silent_adversary);
        ("garbage", G.garbage_adversary); ("duplicate", G.duplicate_adversary);
        ("isolating", G.isolating_adversary);
      ]

  let forgery ~n ~t ~trials ~seed adv =
    count ~trials ~seed (fun seed -> (G.forgery ~n ~t ~seed (adv ())).G.f_win)

  let forgeries ~n ~t ~trials ~seed ~s_count =
    List.map
      (fun (name, adv) -> (name, forgery ~n ~t ~trials ~seed adv))
      [
        ("replay", fun () -> G.replay_adversary ~t ~s_count);
        ("minority", fun () -> G.minority_adversary ~t ~s_count);
        ("dup-inflate", fun () -> G.duplicate_inflation_adversary ~t ~s_count ~copies:6);
      ]
end

module Games_owf = Games (Srds_owf)
module Games_snark = Games (Srds_snark)
module Games_ablated = Games (Srds_snark_ablated)

let games ?(n = 128) ?(seed = 1) ?(trials = 3) () =
  let b = Buffer.create 2048 in
  let t = n / 8 and s_count = max 1 (n / 12) in
  let game_table ~title ~verdict results =
    table b
      ~title:(Printf.sprintf "%s, n=%d t=%d, %d seeds" title n t trials)
      ~headers:[ "scheme"; "adversary"; verdict; "trials" ]
      ~aligns:[ Tablefmt.Left; Left; Right; Right ]
      (List.concat_map
         (fun (scheme, rows) ->
           List.map
             (fun (name, k) -> [ scheme; name; string_of_int k; string_of_int trials ])
             rows)
         results)
  in
  section b "E5/F1: robustness games (Fig. 1) - adversary wins iff root rejects";
  game_table ~title:"robustness" ~verdict:"robust held"
    [
      ("owf", Games_owf.robustness ~n ~t ~trials ~seed);
      ("snark", Games_snark.robustness ~n ~t ~trials ~seed);
    ];
  section b "E6/F2: forgery games (Fig. 2) - adversary wins iff forgery accepted";
  let ablated () = Games_ablated.G.duplicate_inflation_adversary ~t ~s_count ~copies:8 in
  game_table ~title:"forgery" ~verdict:"forgeries"
    [
      ("owf", Games_owf.forgeries ~n ~t ~trials ~seed ~s_count);
      ("snark", Games_snark.forgeries ~n ~t ~trials ~seed ~s_count);
      ( "ABLATED (no ranges)",
        [ ("dup-inflate", Games_ablated.forgery ~n ~t ~trials ~seed ablated) ] );
    ];
  lines b
    [
      "  (the ablated row validates the mechanism: removing the CRH/range";
      "   defense makes the Sec. 2.2 duplicate-replay attack succeed)";
    ];
  finish b

(* --- E7 / E8: certificate size and succinctness --- *)

module Cert_size (S : Srds_intf.SCHEME) = struct
  module W = Srds_intf.Wire (S)
  module B = Srds_intf.Batch (S)

  let measure ~n ~seed =
    let rng = Rng.create seed in
    let pp, master = S.setup rng ~n in
    let keys = B.keygen_all pp master rng ~count:n in
    let msg = Bytes.of_string "cert" in
    let sigs =
      List.filter_map Fun.id (Array.to_list (B.sign_all pp (Array.map snd keys) ~msg))
    in
    let vks = Array.map fst keys in
    let merge c = S.aggregate2 pp ~msg (S.aggregate1 pp ~vks ~msg c) in
    match Srds_intf.aggregate_tree ~merge ~batch:16 sigs with
    | Some sg, _ -> W.size sg
    | None, _ -> -1
end

module Cs_owf = Cert_size (Srds_owf)
module Cs_snark = Cert_size (Srds_snark)
module Cs_vrf = Cert_size (Srds_vrf)
module Cs_ms = Cert_size (Baseline_multisig)

let certificates ?(ns = [ 128; 256; 512; 1024; 2048; 4096 ]) () =
  let b = Buffer.create 1024 in
  section b "E7: certificate size - SRDS aggregate vs multisig(+bitmask) vs n";
  table b ~title:"final certificate bytes (majority attestation on one message)"
    ~headers:[ "n"; "srds-owf"; "srds-snark"; "srds-vrf"; "multisig+mask" ]
    ~aligns:[ Tablefmt.Right; Right; Right; Right; Right ]
    (List.map
       (fun n ->
         Repro_crypto.Wots.clear_cache ();
         List.map string_of_int
           [
             n; Cs_owf.measure ~n ~seed:3; Cs_snark.measure ~n ~seed:3;
             Cs_vrf.measure ~n ~seed:3; Cs_ms.measure ~n ~seed:3;
           ])
       ns);
  lines b
    [
      "  (srds certificates are flat in n; the multisig bitmask grows as n/8";
      "   bytes - footnote 8's Theta(n) identity-vector cost)";
    ];
  finish b

let succinctness () =
  Repro_crypto.Wots.clear_cache ();
  let b = Buffer.create 1024 in
  section b "E8: aggregate size vs aggregation batch size (must stay flat)";
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
      (List.init n Fun.id)
  in
  let merge c = Srds_snark.aggregate2 pp ~msg (Srds_snark.aggregate1 pp ~vks ~msg c) in
  table b ~title:(Printf.sprintf "srds-snark, n=%d" n)
    ~headers:[ "batch"; "tree depth"; "aggregate bytes" ]
    ~aligns:[ Tablefmt.Right; Right; Right ]
    (List.filter_map
       (fun batch ->
         match Srds_intf.aggregate_tree ~merge ~batch sigs with
         | Some sg, depth -> Some (List.map string_of_int [ batch; depth; W.size sg ])
         | None, _ -> None)
       [ 2; 4; 8; 16; 64; 256 ]);
  finish b

(* --- scheme-op exercise (real counter rows for every scheme) ---

   BENCH_results.json attaches to each experiment only the counters it
   executed. This one runs the full scheme-op contract once per scheme —
   setup, n keygens, n sign attempts, one aggregate chain, one verify — so
   every "<scheme>.{keygen,sign,aggregate,verify}" counter, srds-vrf's
   included, carries real values for `ba_sim diff` to compare. *)

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
      List.filter_map (fun i -> S.sign pp (snd keys.(i)) ~index:i ~msg) (List.init n Fun.id)
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

let srds_ops ?(n = 96) () =
  let b = Buffer.create 1024 in
  section b "scheme-op exercise (keygen/sign/aggregate/verify counters)";
  Repro_crypto.Wots.clear_cache ();
  let results =
    [
      ("srds-owf", Ops_owf.run ~n ~seed:18); ("srds-snark", Ops_snark.run ~n ~seed:18);
      ("srds-vrf", Ops_vrf.run ~n ~seed:18); ("baseline-multisig", Ops_ms.run ~n ~seed:18);
    ]
  in
  table b
    ~title:(Printf.sprintf "one full signing flow per scheme, n=%d" n)
    ~headers:[ "scheme"; "signers"; "agg bytes"; "verified" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Right ]
    (List.map
       (fun (name, (signers, bytes, ok)) ->
         [ name; string_of_int signers; string_of_int bytes; yes_no ok ])
       results);
  lines b
    [
      "  (exists so the per-experiment counter snapshot in BENCH_results.json";
      "   has non-zero <scheme>.{keygen,sign,aggregate,verify} rows for all";
      "   four schemes, srds-vrf included)";
    ];
  let failures =
    List.concat_map
      (fun (name, (_, _, ok)) -> check b ok (name ^ ": aggregate failed to verify"))
      results
  in
  finish b ~failures

(* --- E9: broadcast amortization (Cor. 1.2) --- *)

let broadcast ?(n = 96) ?(beta = 0.1) ?(seed = 5) () =
  let b = Buffer.create 1024 in
  section b "E9/Cor-1.2: broadcast amortization over l executions";
  let module Bc = Broadcast.Make (Srds_snark) in
  let corrupt = corrupt_set (Rng.create seed) ~n ~beta in
  let cfg = Balanced_ba.default_config ~inputs:(Array.make n false) ~seed () in
  let honest = List.filter (fun p -> not (List.mem p corrupt)) (List.init n Fun.id) in
  let row l =
    let senders = List.filteri (fun k _ -> k < l) honest in
    let net = network ~n ~corrupt () in
    let execs =
      Bc.run ~net cfg
        ~messages:(List.map (fun p -> (p, Bytes.of_string (Printf.sprintf "m%d" p))) senders)
    in
    let judged =
      List.map
        (fun (e : Broadcast.exec) ->
          (e, Outcome.of_outputs net ~outputs:e.outputs ~expected:(Some e.value)))
        execs
    in
    let all f = string_of_bool (List.for_all f judged) in
    (* max per-party bytes (setup and all executions) per execution *)
    let amortized =
      float_of_int (Outcome.report net).max_bytes
      /. float_of_int (max 1 (List.length execs))
    in
    [
      string_of_int l; f1 (amortized /. 1024.);
      all (fun (_, o) -> o.Outcome.agreed); all (fun (e, o) -> Broadcast.delivered net e o);
    ]
  in
  table b ~title:(Printf.sprintf "n=%d, beta=%.2f" n beta)
    ~headers:[ "l"; "max KiB/party/exec"; "all consistent"; "all delivered" ]
    ~aligns:[ Tablefmt.Right; Right; Left; Left ]
    (List.map row [ 1; 2; 4; 8 ]);
  lines b [ "  (flat per-execution cost: l broadcasts cost l * polylog, Cor. 1.2)" ];
  finish b

(* --- E10: tree quality vs corruption rate --- *)

let tree_quality ?(trials = 3) () =
  let b = Buffer.create 1024 in
  section b "E10: almost-everywhere tree quality vs corruption rate";
  let open Repro_aetree in
  let n = 1024 in
  let params = Params.default n in
  let row beta =
    let glf = ref 0.0 and conn = ref 0.0 and root_ok = ref 0 in
    for seed = 1 to trials do
      let rng = Rng.create (seed * 37) in
      let tree = Tree.random params rng in
      let drawn = corrupt_set rng ~n ~beta in
      let corrupt p = List.mem p drawn in
      glf := !glf +. Tree.good_leaf_fraction tree ~corrupt;
      conn := !conn +. Tree.connected_fraction tree ~corrupt;
      if Tree.is_good tree ~corrupt ~level:params.Params.height ~idx:0 then incr root_ok
    done;
    let f = float_of_int trials in
    [
      Printf.sprintf "%.2f" beta; f3 (!glf /. f); f3 (!conn /. f);
      Printf.sprintf "%d/%d" !root_ok trials;
    ]
  in
  table b
    ~title:(Printf.sprintf "n=%d, %d random trees/point" n trials)
    ~headers:[ "beta"; "good-path leaves"; "connected parties"; "root good" ]
    ~aligns:[ Tablefmt.Right; Right; Right; Right ]
    (List.map row [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.25; 0.3 ]);
  lines b
    [
      "  (the paper's Def. 2.3 guarantees hold up to beta < 1/3 asymptotically;";
      "   scaled polylog committees degrade earlier - DESIGN.md, substitutions)";
    ];
  finish b

(* --- E11 / E11b: one-shot boost, Thm 1.3 and Thm 1.4 attacks --- *)

module Boost_owf = Boost.Make (Srds_owf)

let boost ?(n = 256) ?(beta = 0.1) ?(seed = 6) () =
  Repro_crypto.Wots.clear_cache ();
  let b = Buffer.create 1024 in
  section b "E11: one-shot boost - isolated-party recovery vs PRF degree";
  let corrupt = corrupt_set (Rng.create seed) ~n ~beta in
  let cfg degree = { Boost.isolated_fraction = 0.15; degree; seed } in
  table b
    ~title:(Printf.sprintf "n=%d, beta=%.2f, isolated=15%%" n beta)
    ~headers:[ "degree"; "recovered"; "fooled"; "max KiB/party" ]
    ~aligns:[ Tablefmt.Right; Right; Right; Right ]
    (List.map
       (fun degree ->
         let net = network ~n ~corrupt () in
         let r = Boost_owf.run ~net (cfg degree) in
         [
           string_of_int degree; f3 r.Boost.recovered_fraction; f3 r.Boost.fooled_fraction;
           Tablefmt.fkib (Outcome.report net).max_bytes;
         ])
       [ 2; 4; 8; 16; 32; 64 ]);
  let r = Boost_owf.run_unauthenticated ~net:(network ~n ~corrupt ()) (cfg 16) in
  Printf.bprintf b "  unauthenticated (Thm 1.3 attack): recovered=%.3f FOOLED=%.3f\n"
    r.Boost.recovered_fraction r.Boost.fooled_fraction;
  finish b

let thm14 () =
  Repro_crypto.Wots.clear_cache ();
  let b = Buffer.create 512 in
  section b "E11b: Thm 1.4 - one-shot boost when the adversary inverts the OWF";
  let n = 200 in
  let cfg = { Boost.isolated_fraction = 0.15; degree = 16; seed = 7 } in
  let net () = network ~n ~corrupt:(List.init (n / 10) Fun.id) () in
  let sound = Boost_owf.run ~net:(net ()) cfg in
  let broken = Boost_owf.run_with_inverted_owf ~net:(net ()) cfg in
  Printf.bprintf b "  OWF intact:   recovered=%.3f fooled=%.3f\n"
    sound.Boost.recovered_fraction sound.Boost.fooled_fraction;
  Printf.bprintf b "  OWF inverted: recovered=%.3f FOOLED=%.3f\n"
    broken.Boost.recovered_fraction broken.Boost.fooled_fraction;
  lines b
    [
      "  (with signing keys recoverable from public keys the adversary's";
      "   conflicting certificate is genuinely valid - OWFs are necessary)";
    ];
  finish b

(* --- E6b: the VRF grinding attack (Sec. 2.2's model caveat) --- *)

let vrf_grinding () =
  Repro_crypto.Wots.clear_cache ();
  let b = Buffer.create 512 in
  section b "E6b: VRF sortition - key-after-CRS grinding attack (Sec. 2.2 caveat)";
  let n = 150 in
  let rng = Rng.create 4 in
  let pp, master = Srds_vrf.setup rng ~n in
  let keys = Array.init n (fun i -> Srds_vrf.keygen pp master rng ~index:i) in
  let m' = Bytes.of_string "forged" in
  let t = Srds_vrf.threshold pp + 2 in
  let forged vks sigs =
    match Srds_vrf.aggregate2 pp ~msg:m' (Srds_vrf.aggregate1 pp ~vks ~msg:m' sigs) with
    | Some agg -> Srds_vrf.verify pp ~vks ~msg:m' agg
    | None -> false
  in
  (* registered ordering: corrupt parties keep their pre-CRS keys *)
  let registered_forged =
    forged (Array.map fst keys)
      (List.filter_map
         (fun k -> Srds_vrf.sign pp (snd keys.(k)) ~index:k ~msg:m')
         (List.init t Fun.id))
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
  let bare_forged =
    forged vks (List.filter_map (fun (k, sk) -> Srds_vrf.sign pp sk ~index:k ~msg:m') ground)
  in
  Printf.bprintf b "  n=%d, %d corrupt parties (< n/3), signer threshold %d\n" n t
    (Srds_vrf.threshold pp);
  Printf.bprintf b "  keys registered BEFORE the CRS: forgery accepted = %b\n"
    registered_forged;
  Printf.bprintf b "  keys replaced AFTER the CRS:    forgery accepted = %b\n" bare_forged;
  lines b
    [
      "  (the paper's point: the Algorand-style VRF approach needs a CRS";
      "   independent of corrupted parties' public keys)";
    ];
  finish b

(* --- E12: targeted tree corruption vs repeated parties (Def. 3.4) --- *)

let targeted_corruption ?(n = 512) ?(seed = 13) () =
  let b = Buffer.create 1024 in
  section b "E12: setup-aware corruption vs Def. 3.4's repeated parties";
  let open Repro_aetree in
  let lg = max 2 (Repro_util.Mathx.log2_ceil n) in
  let p_z1 =
    Params.make ~n ~z:1 ~leaf_size:(3 * lg) ~committee_size:(max 8 (3 * lg))
      ~branching:(max 2 lg)
  in
  let p_z = Params.default n in
  let rows (label, params) =
    let tree = Tree.random params (Rng.create seed) in
    List.map
      (fun strategy ->
        let d = Attacks.measure tree ~strategy ~budget:(n / 8) ~rng:(Rng.create (seed + 1)) in
        [
          label; d.Attacks.d_strategy; f3 d.Attacks.d_good_leaf_fraction;
          f3 d.Attacks.d_connected_fraction; string_of_bool d.Attacks.d_root_good;
        ])
      [ Attacks.Random; Attacks.Kill_leaves; Attacks.Target_root ]
  in
  table b
    ~title:(Printf.sprintf "n=%d, budget=n/8 corruptions" n)
    ~headers:[ "assignment"; "strategy"; "good-path leaves"; "connected"; "root good" ]
    ~aligns:[ Tablefmt.Left; Left; Right; Right; Right ]
    (List.concat_map rows
       [ ("z=1 (Def 2.3)", p_z1); (Printf.sprintf "z=%d (Def 3.4)" p_z.Params.z, p_z) ]);
  lines b
    [
      "  (an informed adversary kills far more leaves than random corruption,";
      "   but repeated parties keep the connected fraction high - the Def. 3.4";
      "   mechanism measured.";
      "   NOTE: target-root is OUT OF MODEL - the paper's adversary corrupts";
      "   before committees are elected, so it cannot aim at the supreme";
      "   committee; the row shows why that ordering matters)";
    ];
  finish b

(* --- E13: per-phase communication breakdown --- *)

let breakdown ?(protocols = [ This_work_snark; Multisig_boost ]) ?(n = 256) () =
  let b = Buffer.create 2048 in
  section b "E13: where the bytes go - per-phase breakdown of one BA run";
  List.iter
    (fun protocol ->
      let r = Runner.run ~protocol ~n ~beta:0.1 ~seed:8 () in
      let total = List.fold_left (fun acc (_, x) -> acc + x) 0 r.r_breakdown in
      let label =
        match protocol with
        | Multisig_boost -> "multisig-boost (same pipeline)"
        | p -> protocol_name p
      in
      table b
        ~title:(Printf.sprintf "%s, n=%d (total %.1f MiB sent)" label n (mib total))
        ~headers:[ "phase"; "MiB"; "%" ]
        ~aligns:[ Tablefmt.Left; Right; Right ]
        (List.filter_map
           (fun (g, x) ->
             if x * 100 <= total then None
             else
               Some
                 [
                   g; Printf.sprintf "%.2f" (mib x);
                   f1 (100. *. float_of_int x /. float_of_int total);
                 ])
           r.r_breakdown))
    protocols;
  lines b
    [
      "  (with SRDS the cost is spread over committee machinery; with Theta(n)";
      "   certificates the sig/up/dissemination phases blow up - footnote 8)";
    ];
  finish b

(* --- E14: the full protocol under setup-aware corruption --- *)

let protocol_under_attack () =
  let b = Buffer.create 1024 in
  section b "E14: full BA under setup-aware corruption strategies";
  let n = 128 in
  table b
    ~title:(Printf.sprintf "this-work-snark, n=%d, beta sweep" n)
    ~headers:[ "strategy"; "beta"; "ok"; "note" ]
    ~aligns:[ Tablefmt.Left; Right; Left; Left ]
    (List.concat_map
       (fun strategy ->
         List.map
           (fun beta ->
             let r = run_under_attack ~strategy ~n ~beta ~seed:9 in
             [
               Repro_aetree.Attacks.strategy_name strategy; Printf.sprintf "%.2f" beta;
               yes_no r.r_ok; r.r_note;
             ])
           [ 0.05; 0.10; 0.15 ])
       [ Repro_aetree.Attacks.Random; Repro_aetree.Attacks.Kill_leaves ]);
  lines b
    [
      "  (the informed leaf-killing adversary; Def. 3.4's repeated parties and";
      "   the boost round absorb it at the rates the protocol targets)";
    ];
  finish b

(* --- E15: the complexity audit --- *)

let audit ?(n = 64) ?(beta = 0.1) ?(seed = 1) ?timeline_out () =
  let b = Buffer.create 4096 in
  let audits =
    List.map (fun protocol -> snd (run_audited ~protocol ~n ~beta ~seed ())) all_protocols
  in
  let fmt_check cv observed =
    match cv with
    | None -> string_of_int observed
    | Some cv ->
      let bound = Audit.eval cv ~n ~kappa:Audit.kappa_default in
      Printf.sprintf "%d/%.0f%s" observed bound
        (if float_of_int observed > bound then " !" else "")
  in
  table b
    ~title:
      (Printf.sprintf "complexity audit, n=%d beta=%.2f (observed/budget, ! = exceeded)"
         n beta)
    ~headers:
      [ "protocol"; "rounds"; "bits/round"; "locality/round"; "total bits";
        "violations"; "verdict" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Right; Right; Right; Left ]
    (List.map
       (fun a ->
         let bu = Audit.budgets a in
         [
           Audit.label a; string_of_int (Audit.rounds_seen a);
           fmt_check bu.Audit.round_bits (Audit.max_round_bits a);
           fmt_check bu.Audit.round_locality (Audit.max_round_locality a);
           fmt_check bu.Audit.total_bits (Audit.total_bits_max a);
           string_of_int (Audit.violation_count a);
           (if Audit.violation_count a = 0 then "within budget" else "OVER BUDGET");
         ])
       audits);
  (* Budget declarations, so the table is self-describing. *)
  Printf.bprintf b "declared budgets (kappa=%d):\n" Audit.kappa_default;
  List.iter
    (fun a ->
      let bu = Audit.budgets a in
      let c name =
        Option.fold ~none:"" ~some:(Format.asprintf "%s %a  " name Audit.pp_curve)
      in
      Printf.bprintf b "  %-16s %s%s%s\n" (Audit.label a)
        (c "bits/round" bu.Audit.round_bits)
        (c "locality" bu.Audit.round_locality)
        (c "total" bu.Audit.total_bits))
    audits;
  (* Worst offenders for every protocol that blew its budget. *)
  List.iter
    (fun a ->
      if Audit.violation_count a > 0 then begin
        table b
          ~title:(Printf.sprintf "worst offenders: %s" (Audit.label a))
          ~headers:[ "party"; "violations"; "total bits" ]
          ~aligns:[ Tablefmt.Right; Right; Right ]
          (List.map
             (fun (p, v, bits) -> List.map string_of_int [ p; v; bits ])
             (Audit.worst_offenders ~top:5 a));
        match Audit.violations a with
        | [] -> ()
        | v :: _ ->
          Printf.bprintf b
            "  first violation: party %d round %d [%s] %s observed %.0f > budget %.0f\n"
            v.Audit.v_party v.Audit.v_round v.Audit.v_phase
            (Audit.kind_name v.Audit.v_kind) v.Audit.v_observed v.Audit.v_budget
      end)
    audits;
  let timeline () =
    String.concat ""
      (List.map (fun a -> Audit.timeline_jsonl ~protocol:(Audit.label a) a) audits)
  in
  (* The polylog claim is the reproduction's headline: a this-work protocol
     over its own budget fails the run. *)
  let failures =
    check b
      (List.for_all
         (fun a -> (not (is_this_work (Audit.label a))) || Audit.violation_count a = 0)
         audits)
      "gate: a this-work protocol exceeded its declared complexity budget"
  in
  finish b ~failures
    ~files:(Option.fold ~none:[] ~some:(fun file -> [ (file, timeline ()) ]) timeline_out)

(* --- E16 / E19: the attack matrix and its network-condition axis --- *)

let beta_expect beta expect_fail =
  [ f3 beta; (if expect_fail then "may-fail" else "pass") ]

(* ok cells / cells of [m] per row and protocol: [rows] are (leading
   columns, cell membership); "-" where a protocol has no cell. *)
let ok_table b (m : attack_matrix) ~what ?(note = "") ~protocols ~headers rows =
  let title =
    Printf.sprintf "%s matrix: n=%d, %d seed(s) (ok cells / cells; x = broken%s)" what
      m.am_n (List.length m.am_seeds)
  in
  let cell mine protocol =
    match List.filter (fun c -> mine c && c.ac_protocol = protocol) m.am_cells with
    | [] -> "-"
    | cs ->
      let ok = List.length (List.filter (fun c -> c.ac_ok) cs) in
      Printf.sprintf "%d/%d%s" ok (List.length cs) (if ok < List.length cs then " x" else "")
  in
  table b ~title:(title note) ~headers:(headers @ protocols)
    ~aligns:
      (List.map (fun h -> if h = "beta" then Tablefmt.Right else Left) headers
      @ List.map (fun _ -> Tablefmt.Right) protocols)
    (List.map (fun (lead, mine) -> lead @ List.map (cell mine) protocols) rows)

(* One row per (strategy, beta) of the content-only cells. *)
let attack_table b (m : attack_matrix) =
  let betas =
    List.map (fun b -> (b, false)) m.am_betas @ List.map (fun b -> (b, true)) m.am_sanity_betas
  in
  ok_table b m ~what:"attack" ~protocols:m.am_protocols
    ~headers:[ "strategy"; "beta"; "expect" ]
    (List.concat_map
       (fun s ->
         List.map
           (fun (beta, ef) ->
             ( s :: beta_expect beta ef,
               fun c ->
                 c.ac_condition = "none" && c.ac_strategy = s && c.ac_beta = beta
                 && c.ac_expect_fail = ef ))
           betas)
       m.am_strategies)

(* One row per (condition, strategy, beta, expect) over
   {!Runner.condition_protocols} (dolev-strong is the ungated reference),
   in cell order: the planted teeth rows last. *)
let condition_table b (m : attack_matrix) =
  let key c = (c.ac_condition, c.ac_strategy, c.ac_beta, c.ac_expect_fail) in
  let keys =
    List.fold_left
      (fun acc c -> if c.ac_condition = "none" || List.mem (key c) acc then acc else acc @ [ key c ])
      [] m.am_cells
  in
  ok_table b m ~what:"condition" ~note:"; dolev-strong ungated"
    ~protocols:(List.map protocol_name condition_protocols)
    ~headers:[ "condition"; "strategy"; "beta"; "expect" ]
    (List.map
       (fun ((cond, s, beta, ef) as k) -> (cond :: s :: beta_expect beta ef, fun c -> key c = k))
       keys)

(* The matrix verdicts: every gated in-model cell ok, a sanity row that
   actually failed (the checks have teeth), the planted condition rows
   failed too. *)
let matrix_verdicts b (m : attack_matrix) =
  let broken = List.filter (fun c -> c.ac_gated && not (c.ac_ok || c.ac_expect_fail)) m.am_cells in
  List.iter
    (fun c ->
      Printf.bprintf b
        "BROKEN: %s vs %s/%s beta=%.3f seed=%d (agreed=%b decided=%.2f valid=%b \
         post_gst_late=%d)\n"
        c.ac_protocol c.ac_strategy c.ac_condition c.ac_beta c.ac_seed c.ac_agreed
        c.ac_decided c.ac_valid c.ac_post_gst_late)
    broken;
  let gate =
    check b m.am_gate_ok ~pass:"gate: all beta < 1/3 cells reached agreement+validity"
      (Printf.sprintf "gate: %d beta < 1/3 cell(s) BROKE agreement/validity"
         (List.length broken))
  in
  let teeth =
    if m.am_sanity_betas = [] then []
    else
      check b m.am_teeth
        ~pass:"teeth: beta >= 1/3 sanity rows detected disagreement/non-decision \
               (harness has teeth)"
        "teeth: beta >= 1/3 sanity rows all passed - toothless, DETECTION \
         SELF-CHECK FAILED"
  in
  let condition_teeth =
    if m.am_conditions = [] then []
    else
      check b m.am_condition_teeth
        ~pass:"condition teeth: planted rows (never-healing partition, unbounded \
               adaptive) both broke the protocol (condition checks have teeth)"
        "condition teeth: planted rows survived - CONDITION SELF-CHECK FAILED"
  in
  gate @ teeth @ condition_teeth

let condition_rows (m : attack_matrix) =
  let conditions = List.filter (fun c -> c.ac_condition <> "none") m.am_cells in
  [ ("conditions", List.map attack_cell_json conditions) ]

(* Forensic pass: bit-identical re-runs of the interesting cells with the
   flight recorder attached, evidence extracted and re-verified; the
   extractor must convict every planted equivocation. *)
let forensics b (m : attack_matrix) file =
  let bundles = attack_forensics m in
  Printf.bprintf b "forensics: %d cell(s) re-run, %d verified evidence bundle(s), written to %s\n"
    (List.length bundles)
    (List.fold_left (fun a bu -> a + List.length bu.fb_evidence) 0 bundles)
    file;
  List.iter
    (fun bu ->
      lines b
        (List.map
           (Printf.sprintf "  %s/%s/%s seed %d: %s" bu.fb_protocol bu.fb_strategy
              bu.fb_condition bu.fb_seed)
           (dropped_note ~what:"its evidence bundles" bu.fb_dropped)))
    bundles;
  let planted =
    List.exists (fun c -> strategy_equivocates c.ac_strategy && c.ac_beta > 0.0) m.am_cells
  in
  let failures =
    if planted then
      check b (forensics_teeth bundles)
        ~pass:"forensics: every planted equivocation produced verified evidence \
               (extractor has teeth)"
        "forensics: a planted equivocation yielded NO verified evidence - \
         EXTRACTOR SELF-CHECK FAILED"
    else (
      lines b
        [ "forensics: no equivocate cell at beta > 0 in this matrix (extractor teeth not exercised)" ];
      [])
  in
  ([ (file, Json.pretty (attack_forensics_json ~n:m.am_n bundles)) ], failures)

let attack ?betas ?sanity_betas ?(seeds = [ 1 ]) ?strategies ?(conditions = [])
    ?forensics_out ?(n = 64) () =
  let b = Buffer.create 4096 in
  let m = attack_matrix ?betas ?sanity_betas ?strategies ~conditions ~seeds ~n () in
  attack_table b m;
  if conditions <> [] then condition_table b m;
  Printf.bprintf b "matrix: %d cells, %d strategies, %d condition(s), protocols: %s\n"
    (List.length m.am_cells) (List.length m.am_strategies)
    (List.length m.am_conditions) (String.concat ", " m.am_protocols);
  let gated = matrix_verdicts b m in
  let files, forensic =
    match forensics_out with None -> ([], []) | Some file -> forensics b m file
  in
  finish b ~report:(attack_matrix_json m) ~rows:(condition_rows m) ~files
    ~failures:(gated @ forensic)

let conditions ?(strategies = [ "silent"; "equivocate" ])
    ?(conditions = Repro_adversary.Condition.(List.map name (catalogue ()))) () =
  let b = Buffer.create 2048 in
  (* the network-condition matrix at gate beta, with the two planted teeth
     rows (partition-forever, adaptive-unbounded) *)
  let m =
    attack_matrix ~betas:[ 0.125 ] ~sanity_betas:[] ~seeds:[ 1 ] ~strategies ~conditions
      ~n:40 ()
  in
  condition_table b m;
  let failures = matrix_verdicts b m in
  finish b ~report:(attack_matrix_json m) ~rows:(condition_rows m) ~failures

(* --- E18: the executor's two paths — conformance + async partial synchrony --- *)

(* The E18 gate: every conformance cell matches and passes, every async
   cell holds agreement, validity and the post-GST bound. *)
let async_gate_ok ~conform ~cells =
  List.for_all (fun c -> c.cf_match && c.cf_rows_ok) conform
  && List.for_all (fun (_, c, _) -> c.ac_ok) cells

let async_row (cfg, c, digest) = async_cell_json ~cfg ~digest c

(* schema repro-async/2; parses back with Repro_util.Json. *)
let async_json ~conform ~cells =
  Json.(
    Obj
      [
        "schema", Str "repro-async/2";
        "conform", List (List.map conform_cell_json conform);
        "async", List (List.map async_row cells);
        "gate_ok", Bool (async_gate_ok ~conform ~cells);
      ])

let conform ?(ns = [ 64; 256 ]) ?(beta = 0.1) ?(seed = 1) ?chaos ?cells () =
  let b = Buffer.create 4096 in
  section b "E18: executor paths - conformance + async partial synchrony";
  (* one transcript per (protocol, n, seed), on either path *)
  let conform = conformance_cells ~ns ~beta ~seed () in
  (* the chaos sweep: each knob setting's seed is its cells' seed *)
  let chaos = Option.value chaos ~default:[ default_chaos ~seed ] in
  let cells = async_cells ~beta ~chaos ?cells () in
  let ok_fail ok = if ok then "ok" else "FAIL" in
  table b ~title:"E18 conformance: one transcript digest on the shortcut and general paths"
    ~headers:[ "protocol"; "n"; "seed"; "digest (first 16)"; "rows"; "match" ]
    ~aligns:[ Tablefmt.Left; Right; Right; Left; Left; Left ]
    (List.map
       (fun c ->
         let d0 = match c.cf_digests with (_, d) :: _ -> String.sub d 0 16 | [] -> "-" in
         [
           c.cf_protocol; string_of_int c.cf_n; string_of_int c.cf_seed; d0;
           ok_fail c.cf_rows_ok; yes_no c.cf_match;
         ])
       conform);
  table b ~title:"E18 async chaos matrix (partial synchrony)"
    ~headers:
      [ "protocol"; "strategy"; "n"; "gst"; "vt"; "maxlat"; "lost"; "late"; "decided"; "ok" ]
    ~aligns:[ Tablefmt.Left; Left; Right; Right; Right; Right; Right; Right; Right; Left ]
    (List.map
       (fun ((cfg : Sched.async_cfg), c, _) ->
         c.ac_protocol :: c.ac_strategy
         :: List.map string_of_int
              [
                c.ac_n; cfg.a_gst; c.ac_vt; c.ac_max_latency; c.ac_pre_gst_lost;
                c.ac_post_gst_late;
              ]
         @ [ f3 c.ac_decided; ok_fail c.ac_ok ])
       cells);
  lines b
    [
      "  (vt > rounds: jitter and retransmitted pre-GST losses stretch the";
      "   virtual clock; post-GST every delivery lands within 1+delta, so the";
      "   late column must be all zero)";
    ];
  List.iter
    (fun c ->
      if not c.cf_match then begin
        Printf.bprintf b "MISMATCH: %s n=%d paths disagree:\n" c.cf_protocol c.cf_n;
        List.iter (fun (path, d) -> Printf.bprintf b "  %-8s %s\n" path d) c.cf_digests
      end)
    conform;
  List.iter
    (fun (_, c, _) ->
      if not c.ac_ok then
        Printf.bprintf b
          "BROKEN: %s vs %s n=%d (agreed=%b decided=%.2f valid=%b post_gst_late=%d)\n"
          c.ac_protocol c.ac_strategy c.ac_n c.ac_agreed c.ac_decided c.ac_valid
          c.ac_post_gst_late)
    cells;
  let failures =
    check b (async_gate_ok ~conform ~cells)
      ~pass:"gate: one transcript per (protocol, n, seed) on both paths; async \
             chaos cells agreed within the post-GST bound"
      "gate: E18 conformance/async FAILED"
  in
  finish b ~failures ~report:(async_json ~conform ~cells)
    ~rows:
      [
        ("conform", List.map conform_cell_json conform);
        ("async", List.map async_row cells);
      ]

(* --- explain: causal forensics over a flight-recorded run --- *)

(* Round-trip the recorded log: JSONL -> parse -> re-drive -> byte compare,
   then the SHA-256 digests of both send streams. *)
let replay_check b rec_ ~n ~corrupt =
  let module Sha256 = Repro_crypto.Sha256 in
  let send_digest r =
    let ctx = Sha256.init () in
    Recorder.iter r (function
      | Recorder.Send _ as ev ->
        let s = Bytes.of_string (Recorder.event_jsonl ev ^ "\n") in
        Sha256.feed ctx s 0 (Bytes.length s)
      | _ -> ());
    Sha256.hex (Sha256.finish ctx)
  in
  let ( let* ) (r, what) f =
    match r with Error e -> check b false (what ^ e) | Ok x -> f x
  in
  let module Replay = Repro_net.Replay in
  let* events =
    (Replay.events_of_jsonl (Recorder.to_jsonl rec_), "replay-check: log parse FAILED: ")
  in
  let* replayed = (Replay.replay ~n ~corrupt events, "replay-check: re-drive FAILED: ") in
  let* k = (Replay.check ~original:events ~replayed, "replay-check: FAILED: ") in
  let d0 = send_digest rec_ and d1 = send_digest replayed in
  check b (d0 = d1)
    ~pass:(Printf.sprintf "replay-check: %d sends replayed byte-identical (sha256 %s)" k d0)
    (Printf.sprintf "replay-check: send-stream digests DIVERGED\n  recorded %s\n  replayed %s"
       d0 d1)

let explain ~protocol ~n ~beta ~seed ?party ?(replay = false) ?log_out () =
  let b = Buffer.create 4096 in
  let row, rec_, corrupt = run_recorded ~keep_payloads:replay ~protocol ~n ~beta ~seed () in
  let ex = explain_cones ~protocol ~n ~beta ~seed rec_ in
  Printf.bprintf b "%s n=%d beta=%.2f seed=%d: %d events recorded, %d decider(s), ok=%b\n"
    row.r_protocol n beta seed (Recorder.total_events rec_) (List.length ex.ex_cones)
    row.r_ok;
  lines b (dropped_note ~what:"the cones" ex.ex_dropped);
  (match ex.ex_budget with
  | Some bu ->
    Printf.bprintf b
      "locality budget: <= %.0f distinct senders per cone round (declared curve at n=%d)\n"
      bu n
  | None -> lines b [ "locality budget: none declared" ]);
  let party_failures =
    match party with
    | Some p -> (
      match Recorder.causal_cone rec_ ~party:p with
      | None -> check b false (Printf.sprintf "party %d recorded no decision" p)
      | Some cone ->
        Buffer.add_string b (Recorder.render_cone ~phases:true rec_ cone);
        [])
    | None ->
      List.iter
        (fun ((c : Recorder.cone), over) ->
          Printf.bprintf b
            "  party %4d decided %S at r%-4d cone: %6d sends, %4d parties, max slice %4d%s\n"
            c.cone_party c.cone_value c.cone_round c.cone_events c.cone_parties
            c.cone_max_round_size
            (if over > 0 then Printf.sprintf "  (%d slice(s) OVER BUDGET)" over else ""))
        ex.ex_cones;
      []
  in
  Printf.bprintf b "violations: %d over-budget cone slice(s)\n" ex.ex_violations;
  let replay_failures = if replay then replay_check b rec_ ~n ~corrupt else [] in
  (* The polylog pipelines must explain every decision within their declared
     locality curve; the Theta(n) baselines are expected to blow the same
     check, so only this-work violations are failures. *)
  let locality =
    check b
      ((not (is_this_work row.r_protocol)) || ex.ex_violations = 0)
      "gate: a this-work causal cone exceeded the declared locality curve"
  in
  finish b ~report:(explain_json ex)
    ~files:(Option.fold ~none:[] ~some:(fun file -> [ (file, Recorder.to_jsonl rec_) ]) log_out)
    ~failures:(party_failures @ replay_failures @ locality)

(* --- profile: one self-profiled cell --- *)

let profile ~protocol ~n ~beta ~seed ?(top = 10) () =
  let b = Buffer.create 4096 in
  let row, wall, gc = run_profiled ~protocol ~n ~beta ~seed in
  let open Repro_obs.Trace in
  Printf.bprintf b
    "%s n=%d beta=%.2f: rounds=%d wall=%.2fs minor=%.1fMw major=%.1fMw gcs=%d/%d ok=%b\n"
    row.r_protocol row.r_n row.r_beta row.r_rounds wall (gc.g_minor_words /. 1e6)
    (gc.g_major_words /. 1e6) gc.g_minor_collections gc.g_major_collections row.r_ok;
  Buffer.add_string b (Repro_obs.Profile.render_hotspots ~top ());
  (* Pool utilization: slot 0 is the caller, the rest worker domains. *)
  Printf.bprintf b "pool utilization (%d domain(s)):\n" (Parallel.domains ());
  Array.iteri
    (fun i (tasks, busy) ->
      Printf.bprintf b "  slot %d (%s): %6d tasks %10.3f s busy (%.0f%% of wall)\n" i
        (if i = 0 then "caller" else "worker")
        tasks busy
        (100.0 *. busy /. Float.max 1e-9 wall))
    (Parallel.utilization ());
  let report =
    Repro_obs.Profile.report_json ~protocol:row.r_protocol ~n ~beta ~seed ~wall_s:wall
      ~domains:(Parallel.domains ()) ~gc ~top ()
  in
  finish b ~report
