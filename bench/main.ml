(* Benchmark harness: regenerates every table/figure-level claim of the
   paper and runs the Bechamel timing microbenches. Each experiment is one
   Experiment function (DESIGN.md section 4 has the index); this file only
   picks each mode's parameters, times the experiments, prints their text,
   collects their rows into BENCH_results.json and exits non-zero if any
   gate failed.

     dune exec bench/main.exe                 # standard run (~ a few minutes)
     BENCH_FULL=1 dune exec bench/main.exe    # adds larger sweep points
     BENCH_SMOKE=1 dune exec bench/main.exe   # <30s subset

   It reads no arguments (REPRO_AUDIT=1 audits every cell, as anywhere);
   `ba_sim diff A.json B.json` compares two result files exactly.

   Experiment map (mode name: the Experiment function it calls):
     T1/E1   table1                    E10    tree_quality
     E2-E4   sweep                     E11    boost
     E17     scale                     E11b   thm14
     E18/19  async: conform+conditions E12    targeted_corruption
     E5/E6   games                     E13    breakdown
     E7      certificates              E14    protocol_under_attack
     E8      succinctness              E6b    vrf_grinding
     E9      broadcast                 B1-B6  bechamel (this file)
     -       srds_ops (scheme-op counters for every scheme)               *)

open Repro_core
module Rng = Repro_util.Rng
module Tablefmt = Repro_util.Tablefmt
module Parallel = Repro_util.Parallel
module Json = Repro_util.Json

let full = Sys.getenv_opt "BENCH_FULL" <> None

(* BENCH_SMOKE=1: a <30s subset (Table 1 at one n + the timing microbenches)
   that still exercises the whole JSON pipeline; `make bench-smoke` uses it
   to validate the output parses. BENCH_FULL wins if both are set. *)
let smoke = (not full) && Sys.getenv_opt "BENCH_SMOKE" <> None
let mode = if full then "full" else if smoke then "smoke" else "standard"
let pick ~smoke:s ~standard ~full:f = if full then f else if smoke then s else standard

(* ------------------------------------------------------------------ *)
(* Machine-readable results: BENCH_results.json                        *)
(* ------------------------------------------------------------------ *)

(* Collected as experiments run; written once at exit as one Json.t value
   in two halves, as a repro-profile/2 report is. "deterministic" is a
   function of the logical work alone: per experiment, the crypto-operation
   counter snapshot accumulated while it ran (the registry is reset between
   experiments), and the experiments' [rows], concatenated in run order.
   Two runs of one build in one mode, on any pool size, write equal halves,
   and `ba_sim diff` compares them exactly. "nondeterministic" is machine
   context: the pool size, wall times, each experiment's caller-domain GC
   profile, and the counters of the Bechamel row, whose microbenches repeat
   until a time quota runs out. *)
let row_sections = [ "table1"; "scale"; "conform"; "async"; "conditions" ]

type run = {
  name : string;
  counters : Json.t;
  wall_s : float;
  profile : Json.t;
  outcome : Experiment.outcome;
}

let clock_driven r = r.name = "bechamel"

let write_results ~total_wall_s runs =
  let section key =
    ( key,
      Json.List
        (List.concat_map
           (fun r ->
             List.concat_map (fun (k, rows) -> if k = key then rows else []) r.outcome.rows)
           runs) )
  in
  let experiment r =
    Json.Obj
      ([ ("name", Json.Str r.name); ("wall_s", Json.fixed 2 r.wall_s); ("profile", r.profile) ]
      @ if clock_driven r then [ ("counters", r.counters) ] else [])
  in
  let doc =
    Json.(
      Obj
        [
          "schema", Str "repro-bench/8"; "mode", Str mode;
          ( "deterministic",
            Obj
              (( "counters",
                 Obj
                   (List.filter_map
                      (fun r -> if clock_driven r then None else Some (r.name, r.counters))
                      runs) )
              :: List.map section row_sections) );
          ( "nondeterministic",
            Obj
              [
                "domains", int (Parallel.domains ());
                "total_wall_s", fixed 2 total_wall_s;
                "experiments", List (List.map experiment runs);
              ] );
        ])
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.pretty doc);
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%s mode, %d domains)\n" mode
    (Parallel.domains ())

(* Run one experiment and print its text. *)
let timed_experiment name f =
  Repro_obs.Counters.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let outcome = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  print_string outcome.Experiment.text;
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
  { name; counters = Json.of_counts (Repro_obs.Counters.snapshot ()); wall_s; profile; outcome }

(* ------------------------------------------------------------------ *)
(* B1-B6: Bechamel timing microbenches                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () : Experiment.outcome =
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
  {
    text =
      "\n############ B1-B6: Bechamel timing microbenches (OLS estimate per op) \
       ############\n\n" ^ Tablefmt.render t;
    report = None; rows = []; files = []; failures = [];
  }

(* Every mode's experiments, in standard-mode order; smoke mode runs the
   [smoke_modes] subset in its own order. *)
let modes =
  let open Experiment in
  [
    ("table1", fun () -> table1 ~ns:(pick ~smoke:[ 64 ] ~standard:[ 64; 128 ] ~full:[ 64; 128; 256 ]) ());
    ("sweep", fun () -> sweep ~ns:(64 :: 128 :: 256 :: 512 :: (if full then [ 1024 ] else [])) ());
    ("scale", fun () ->
        scale ~ns:(pick ~smoke:[ 64; 128 ] ~standard:[ 256; 512; 1024 ] ~full:Runner.scale_ns_default) ());
    ("async", fun () ->
        (* the chaos sweep: latency jitter and pre-GST loss against live
           adversaries over several (delta, jitter, loss, GST) settings and
           seeds, then the E19 condition slice with its teeth rows *)
        let knobs =
          if smoke then [ (2, 3, 0.1, 24) ]
          else [ (1, 1, 0.05, 16); (2, 3, 0.1, 24); (3, 5, 0.2, 64) ]
        in
        let chaos =
          List.concat_map
            (fun (a_delta, a_jitter, a_loss, a_gst) ->
              List.map
                (fun a_seed -> { Repro_net.Sched.a_seed; a_delta; a_jitter; a_loss; a_gst })
                (if smoke then [ 1 ] else [ 1; 2 ]))
            knobs
        in
        merge
          [
            conform ~ns:(if smoke then [ 64 ] else [ 64; 256 ]) ~chaos
              ~cells:[ (Runner.This_work_owf, if smoke then 64 else 128) ] ();
            (if smoke then conditions ~strategies:[ "silent" ] ~conditions:[ "delay"; "partition" ] ()
             else conditions ());
          ]);
    ("games", fun () -> games ~trials:(if full then 5 else 3) ());
    ("certificates", fun () ->
        certificates ~ns:(128 :: 256 :: 512 :: 1024 :: 2048 :: 4096 :: (if full then [ 8192 ] else [])) ());
    ("srds_ops", fun () -> srds_ops ~n:(if smoke then 48 else 96) ());
    ("succinctness", succinctness);
    ("broadcast", fun () -> broadcast ~n:(if full then 128 else 96) ());
    ("breakdown", fun () -> breakdown ());
    ("tree_quality", fun () -> tree_quality ~trials:(if full then 5 else 3) ());
    ("targeted_corruption", fun () -> targeted_corruption ());
    ("protocol_under_attack", protocol_under_attack);
    ("boost", fun () -> boost ~n:(if full then 512 else 256) ());
    ("thm14", thm14);
    ("vrf_grinding", vrf_grinding);
    ("bechamel", bechamel_benches);
  ]

let smoke_modes = [ "table1"; "breakdown"; "scale"; "async"; "srds_ops" ]

let () =
  (* The harness always meters crypto work: the per-experiment counter
     objects in BENCH_results.json are what before/after perf comparisons
     diff. (A few ns per op; the protocol wall times stay dominated by the
     protocols themselves.) *)
  Repro_obs.Counters.enable ();
  let t0 = Unix.gettimeofday () in
  print_endline "Reproduction benchmark harness:";
  print_endline
    "\"Breaking the O(sqrt n)-Bit Barrier: BA with Polylog Bits Per Party\"";
  Printf.printf
    "(mode: %s; BENCH_FULL=1 for larger sweeps, BENCH_SMOKE=1 for a <30s \
     subset; REPRO_DOMAINS=%d)\n"
    mode (Parallel.domains ());
  let selected =
    if smoke then List.map (fun name -> (name, List.assoc name modes)) smoke_modes
    else modes
  in
  let runs = List.map (fun (name, f) -> timed_experiment name f) selected in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench wall time: %.1fs\n" total;
  write_results ~total_wall_s:total runs;
  match List.concat_map (fun r -> r.outcome.failures) runs with
  | [] -> ()
  | failures ->
    Printf.printf "bench: %d gate failure(s):\n" (List.length failures);
    List.iter (Printf.printf "  %s\n") failures;
    exit 1
