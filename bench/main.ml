(* Benchmark harness: regenerates every table/figure-level claim of the
   paper and runs the Bechamel timing microbenches. Each experiment is one
   Experiment function (DESIGN.md section 4 has the index); this file only
   picks each mode's parameters, times the experiments, prints their text,
   collects their rows into BENCH_results.json and exits non-zero if any
   gate failed.

     dune exec bench/main.exe                 # standard run (~ a few minutes)
     BENCH_FULL=1 dune exec bench/main.exe    # adds larger sweep points
     BENCH_SMOKE=1 dune exec bench/main.exe   # <30s subset

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

(* Collected as experiments run; written once at exit as one Json.t value.
   Each experiment carries its wall time, the full crypto-operation counter
   snapshot accumulated while it ran (the registry is reset between
   experiments), separately the deterministic subset — the counters
   [--compare] gates regressions on, stable across pool sizes and
   machines — and (schema /5) a GC allocation profile: machine context like
   wall time, never gated. Schema /6 adds the E18 scheduler arrays:
   `conform` (executor-path transcript digests) and `async` (partial-
   synchrony chaos cells). Schema /7 adds the E19 `conditions` array: one
   object per network-condition attack cell (agreement/validity, rounds to
   decide, final virtual time, pre/post-GST loss counts). [--compare]
   skips any section the older file lacks, so /6 and earlier files stay
   comparable. The row arrays are the experiments' [rows], concatenated in
   run order. *)
let row_sections = [ "table1"; "scale"; "conform"; "async"; "conditions" ]

let write_results ~total_wall_s ~experiments ~outcomes =
  let section key =
    ( key,
      Json.List
        (List.concat_map
           (fun (o : Experiment.outcome) ->
             List.concat_map (fun (k, rows) -> if k = key then rows else []) o.rows)
           outcomes) )
  in
  let doc =
    Json.(
      Obj
        ([
           "schema", Str "repro-bench/7"; "mode", Str mode;
           "domains", int (Parallel.domains ());
           "total_wall_s", fixed 2 total_wall_s;
           "experiments", List experiments;
         ]
        @ List.map section row_sections))
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (Json.pretty doc);
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%s mode, %d domains)\n" mode
    (Parallel.domains ())

(* Run one experiment, print its text, and return its BENCH_results.json
   entry alongside its outcome. *)
let timed_experiment name f =
  Repro_obs.Counters.reset ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let (o : Experiment.outcome) = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  print_string o.text;
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
  (* Bechamel repeats each microbench until its time quota runs out, so
     that row's crypto counters count iterations and differ between two
     runs of one build: it publishes no deterministic counters. *)
  let det_counters =
    if name = "bechamel" then []
    else [ ("det_counters", Json.of_counts (Repro_obs.Counters.deterministic_snapshot ())) ]
  in
  ( Json.(
      Obj
        ([
           "name", Str name; "wall_s", fixed 2 dt;
           "counters", of_counts (Repro_obs.Counters.snapshot ());
         ]
        @ det_counters
        @ [ ("profile", profile) ])),
    o )

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
       counters. Every counter that moved is listed; only a rise past the
       threshold (or from zero) gates — a fall is work a change removed. *)
    let ex_prev = experiments prev_path prev
    and ex_cur = experiments cur_path cur in
    let tbl =
      Tablefmt.create ~title:"experiments"
        ~headers:
          [ "experiment"; "wall prev"; "wall cur"; "d wall"; "d alloc";
            "det counters moved" ]
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
              let moved =
                List.filter_map
                  (fun (k, pv) ->
                    match List.assoc_opt k dc with
                    | None -> None
                    | Some cv -> (
                      let what = Printf.sprintf "%s %s" name k in
                      match delta_pct pv cv with
                      | _ when cv = pv -> None
                      | None ->
                        regressions := what :: !regressions;
                        Some (Printf.sprintf "%s new=%d" k cv)
                      | Some d ->
                        if d > threshold then regressions := what :: !regressions;
                        Some (Printf.sprintf "%s %s (%d->%d)" k (fmt_delta (Some d)) pv cv)))
                  dp
              in
              if moved = [] then "-" else String.concat ", " moved
            | _ -> "(no det_counters on one side: time-driven row or pre-schema/3 file)"
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
  let selected =
    if smoke then List.map (fun name -> (name, List.assoc name modes)) smoke_modes
    else modes
  in
  let experiments, outcomes =
    List.split (List.map (fun (name, f) -> timed_experiment name f) selected)
  in
  let total = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench wall time: %.1fs\n" total;
  write_results ~total_wall_s:total ~experiments ~outcomes;
  match List.concat_map (fun (o : Experiment.outcome) -> o.failures) outcomes with
  | [] -> ()
  | failures ->
    Printf.printf "bench: %d gate failure(s):\n" (List.length failures);
    List.iter (Printf.printf "  %s\n") failures;
    exit 1
