(* The layered performance ledger (see README.md).

     ledger.exe --seed S [--workload NAME]... [--reps K] [--seconds T]
                [--trace 0|1] [--out FILE] [--expect FILE]
     ledger.exe compare A.json B.json [--bench BENCHMARK.json]
     ledger.exe pin --workload NAME --seeds FIRST-LAST [--tries T] [--expect FILE]

   A run measures each workload in fresh child processes of this program,
   one at a time (closed loop), interleaving repetitions across workloads
   so drift on a shared machine lands on every workload alike. Each
   repetition measures one cell drawn from the workload's pinned population
   (Workloads.cell_seed): a set-up child times the SRDS set-up alone, a
   timed child times one call of the workload's entry point with tracing
   and counters off, and with --trace 1 a traced child reruns the cell with
   every collector on to split its wall by layer. Repetitions continue
   until at least K ran and T seconds passed; with --trace 1 further
   children then time layer primitives and the sinks' cost. The last line
   of standard output is one JSON object: correctness, the operations
   attempted and failed, and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1). The full ledger goes to --out. *)

module Json = Repro_util.Json
module Parallel = Repro_util.Parallel
module Runner = Repro_core.Runner

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Child side: one measurement per process                             *)
(* ------------------------------------------------------------------ *)

let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l -> (
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> go ())
      in
      go ())

let outcome_fields (o : Workloads.outcome) =
  [
    ("cells", Json.Num (float_of_int o.cells));
    ("failed", Json.Num (float_of_int o.failed));
    ("rounds", Json.Num (float_of_int o.rounds));
    ("vt", Json.Num (float_of_int o.vt));
    ("max_party_kib", match o.max_party_kib with Some k -> Json.Num k | None -> Json.Null);
    ("fingerprint", Json.List (List.map (fun s -> Json.Str s) o.fingerprint));
  ]

let domains (w : Workloads.t) = min w.domains (Domain.recommended_domain_count ())

let child kind (w : Workloads.t) ~seed ~out_dir =
  let domains = domains w in
  Parallel.set_domains domains;
  Repro_obs.Counters.disable ();
  Repro_obs.Trace.set_output None;
  Repro_obs.Trace.set_enabled false;
  Repro_obs.Audit.disable_global ();
  let n, beta = (Workloads.cell_n, Workloads.beta) in
  let fields =
    match kind with
    | "setup" ->
      let (), dt, calib = Calib.around ~domains (fun () -> Workloads.setup w ~seed) in
      [ ("setup_s", Json.Num dt); ("calib_s", Json.Num calib) ]
    | "timed" ->
      let o, wall, calib = Calib.around ~domains (fun () -> w.run ~seed) in
      [ ("wall_s", Json.Num wall); ("calib_s", Json.Num calib); ("peak_rss_mib", Json.Num (peak_rss_mib ())) ]
      @ outcome_fields o
    | "traced" ->
      let trace_file =
        if out_dir = "-" then None
        else Some (Filename.concat out_dir (Printf.sprintf "%s-%d.trace.json" w.name seed))
      in
      let o, wall, layers = Layers.traced w ~seed ~trace_file in
      [ ("wall_s", Json.Num wall); ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) layers)) ]
      @ outcome_fields o
    | "audited" ->
      let t0 = Unix.gettimeofday () in
      ignore (Runner.run_audited ~protocol:Runner.This_work_owf ~n ~beta ~seed ());
      [ ("wall_s", Json.Num (Unix.gettimeofday () -. t0)) ]
    | "recorded" ->
      let t0 = Unix.gettimeofday () in
      ignore (Runner.run_recorded ~protocol:Runner.This_work_owf ~n ~beta ~seed ());
      [ ("wall_s", Json.Num (Unix.gettimeofday () -. t0)); ("peak_rss_mib", Json.Num (peak_rss_mib ())) ]
    | "units" -> List.map (fun (k, v) -> (k, Json.Num v)) (Units.measure ~seed)
    | k -> die "unknown child kind %s" k
  in
  print_endline (Jsonw.compact (Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

let last_line s =
  List.fold_left
    (fun acc l -> if String.trim l = "" then acc else Some l)
    None (String.split_on_char '\n' s)

(* Runs one child to completion and parses the JSON line it printed. *)
let spawn kind (w : Workloads.t) ~seed ~out_dir =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "child"; kind; w.name; string_of_int seed; out_dir |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match Option.map Json.parse (last_line out) with
    | Some (Ok (Json.Obj kvs)) -> Ok kvs
    | _ -> Error (Printf.sprintf "%s child for %s printed no result" kind w.name))
  | Unix.WEXITED c -> Error (Printf.sprintf "%s child for %s exited %d" kind w.name c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Error (Printf.sprintf "%s child for %s killed by signal %d" kind w.name s)

let field name kvs = Option.bind (List.assoc_opt name kvs) Json.to_float

(* A child's [name] time at reference machine speed (see Calib). *)
let normalized name kvs =
  match (field name kvs, field "calib_s" kvs) with
  | Some x, Some k -> Some (x *. Calib.reference_s /. k)
  | _ -> None

let floats kvs = List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float v)) kvs

let fingerprint kvs =
  Option.value ~default:[]
    (Option.map (List.filter_map Json.to_string) (Option.bind (List.assoc_opt "fingerprint" kvs) Json.to_list))

(* One workload's results so far; measurements are keyed by cell seed. *)
type acc = {
  w : Workloads.t;
  mutable setup : (int * (string * Json.t) list) list;
  mutable timed : (int * (string * Json.t) list) list;
  mutable traced : (int * (string * Json.t) list * (string * Json.t) list option) list;
      (** with the timed child of the same repetition, if it succeeded *)
  mutable attempted : int;
  mutable failed : int;
}

(* Books one child's outcome: its cells count as attempted, its own
   verdicts and a crash as failed (fingerprints are judged at the end). *)
let book a = function
  | Ok kvs ->
    a.attempted <- a.attempted + int_of_float (Option.value ~default:1. (field "cells" kvs));
    a.failed <- a.failed + int_of_float (Option.value ~default:0. (field "failed" kvs));
    Some kvs
  | Error e ->
    prerr_endline ("ledger: " ^ e);
    a.attempted <- a.attempted + 1;
    a.failed <- a.failed + 1;
    None

let spec name =
  match Metrics.find name with Some s -> s | None -> invalid_arg ("no metric spec for " ^ name)

let summary_json name (samples : (int * float) list) =
  let spec = spec name and s = Stats.summarize (List.map snd samples) in
  Json.Obj
    [
      ("unit", Json.Str spec.unit_);
      ("exact", Json.Bool spec.exact);
      ("cell_seeds", Json.List (List.map (fun (c, _) -> Json.Num (float_of_int c)) samples));
      ("samples", Json.List (List.map (fun (_, x) -> Json.Num x) samples));
      ("median", Json.Num s.median);
      ("q1", Json.Num s.q1);
      ("q3", Json.Num s.q3);
      ("n", Json.Num (float_of_int s.n));
    ]

let end_to_end a ~seed =
  let fail_ratio = float_of_int a.failed /. float_of_int (max 1 a.attempted) in
  let col runs name = List.filter_map (fun (c, kvs) -> Option.map (fun x -> (c, x)) (field name kvs)) runs in
  let normalized runs name =
    List.filter_map (fun (c, kvs) -> Option.map (fun x -> (c, x)) (normalized name kvs)) runs
  in
  List.filter_map
    (fun (name, samples) -> if samples = [] then None else Some (name, summary_json name samples))
    [
      ("wall_s", normalized a.timed "wall_s");
      ("setup_s", normalized a.setup "setup_s");
      ("wall_raw_s", col a.timed "wall_s");
      ("setup_raw_s", col a.setup "setup_s");
      ("calib_ms", List.map (fun (c, x) -> (c, 1e3 *. x)) (col a.timed "calib_s"));
      ("peak_rss_mib", col a.timed "peak_rss_mib");
      ("rounds", col a.timed "rounds");
      ("vt", col a.timed "vt");
      ("max_party_kib", col a.timed "max_party_kib");
      ("fail_ratio", [ (seed, fail_ratio) ]);
    ]

(* Overhead in percent of [x] over [base]: a ratio of raw times of children
   run back to back, so the machine's drift cancels. *)
let overhead_pct ~base x = 100. *. ((x /. base) -. 1.)

(* The per-layer metrics of one workload: per traced child, its layer split
   plus the invocation-wide unit and sink costs, and the busy shares and
   trace overhead derived from them; then the median over children. *)
let per_layer a ~units ~sinks =
  let one (_, kvs, timed) =
    let layers = match List.assoc_opt "layers" kvs with Some (Json.Obj l) -> floats l | _ -> [] in
    let get l k = Option.value ~default:0. (List.assoc_opt k l) in
    let share x = let d = get layers "raw.denom_s" in if d > 0. then x /. d else 0. in
    let wall kvs = Option.value ~default:nan (field "wall_s" kvs) in
    let derived =
      [
        ( "crypto.sha256_busy_share",
          (* a 4 KiB digest is 65 compressions (64 blocks + padding) *)
          share (get layers "crypto.sha256_compress" *. get units "crypto.sha256_4k_us" /. 65. *. 1e-6) );
        ( "crypto.wots_busy_share",
          share
            ((get layers "crypto.wots_sign" *. get units "crypto.wots_sign_us"
             +. get layers "raw.wots_miss" *. get units "crypto.wots_verify_us")
            *. 1e-6) );
        ( "net.substrate_busy_share",
          share
            (get layers "net.msgs"
            *. get units (if a.w.async then "sched.ns_per_msg" else "net.ns_per_msg")
            *. 1e-9) );
        ("obs.trace_overhead_pct", overhead_pct ~base:(Option.fold ~none:nan ~some:wall timed) (wall kvs));
      ]
    in
    layers @ units @ sinks @ derived
  in
  match List.map one a.traced with
  | [] -> []
  | children ->
    List.filter_map
      (fun (s : Metrics.spec) ->
        match List.filter_map (List.assoc_opt s.name) children with
        | [] -> None
        | xs -> Some (s.name, (Stats.summarize xs).median))
      Metrics.per_layer

(* GIT_DIR pins git to the working directory's own .git, so outside a
   repository it fails instead of searching the parent directories. *)
let git_rev () =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> "unknown"
  | r, wr -> (
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let env = Array.append [| "GIT_DIR=.git" |] (Unix.environment ()) in
    let pid =
      try
        Some
          (Unix.create_process_env "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] env Unix.stdin wr
             devnull)
      with Unix.Unix_error _ -> None
    in
    Unix.close wr;
    Unix.close devnull;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match pid with
    | None -> "unknown"
    | Some pid -> ( match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> String.trim out | _ -> "unknown"))

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let print_workload a ~e2e ~layers ~mismatches =
  Printf.printf "== %s (domains %d): %d attempted, %d failed\n" a.w.name (domains a.w) a.attempted a.failed;
  List.iter
    (fun (cell, e, g) -> Printf.printf "   fingerprint mismatch at cell seed %d: expected %S, got %S\n" cell e g)
    mismatches;
  List.iter
    (fun (name, j) ->
      let g k = Option.value ~default:nan (Option.bind (Json.member k j) Json.to_float) in
      Printf.printf "   %-26s %14.6g %-16s [%.6g, %.6g] n=%d\n" name (g "median") (spec name).unit_ (g "q1")
        (g "q3") (int_of_float (g "n")))
    e2e;
  List.iter (fun (name, v) -> Printf.printf "   %-26s %14.6g %s\n" name v (spec name).unit_) layers

(* Fingerprints that contradict the pinned ones: (cell seed, expected, got). *)
let mismatches expect a =
  let runs = a.timed @ List.map (fun (c, kvs, _) -> (c, kvs)) a.traced in
  List.concat_map
    (fun cell ->
      let fps = List.filter_map (fun (c, kvs) -> if c = cell then Some (fingerprint kvs) else None) runs in
      List.map (fun (_, e, g) -> (cell, e, g)) (Expect.mismatches expect ~workload:a.w.name ~seed:cell fps))
    (List.sort_uniq compare (List.map fst runs))

let run_ledger ~workloads ~seed ~reps ~seconds ~trace ~out ~expect =
  let t_start = now () in
  let out_dir = Filename.dirname out in
  mkdir_p out_dir;
  let expect = match Expect.load expect with Ok e -> e | Error e -> die "cannot load expectations: %s" e in
  let pool (w : Workloads.t) =
    match Expect.seeds expect ~workload:w.name with
    | [||] -> die "no pinned cells for %s: run ledger.exe pin --workload %s" w.name w.name
    | p -> p
  in
  let first_cell w = Workloads.cell_seed ~pool:(pool w) ~seed ~rep:0 in
  let accs = List.map (fun w -> { w; setup = []; timed = []; traced = []; attempted = 0; failed = 0 }) workloads in
  let rec loop rep =
    List.iter
      (fun a ->
        let cell = Workloads.cell_seed ~pool:(pool a.w) ~seed ~rep in
        (match spawn "setup" a.w ~seed:cell ~out_dir with
        | Ok kvs -> a.setup <- a.setup @ [ (cell, kvs) ]
        | Error e -> ignore (book a (Error e)));
        let timed = book a (spawn "timed" a.w ~seed:cell ~out_dir) in
        Option.iter (fun kvs -> a.timed <- a.timed @ [ (cell, kvs) ]) timed;
        (* Only the first traced cell writes its Chrome trace. *)
        if trace then
          Option.iter
            (fun kvs -> a.traced <- a.traced @ [ (cell, kvs, timed) ])
            (book a (spawn "traced" a.w ~seed:cell ~out_dir:(if rep = 0 then out_dir else "-"))))
      accs;
    if rep + 1 < reps || now () -. t_start < seconds then loop (rep + 1)
  in
  loop 0;
  let units, sinks =
    if not trace then ([], [])
    else begin
      (* Sink costs: three rounds of the owf-sync reference cell run plain,
         audited and recorded back to back; medians of the ratios. *)
      let owf = List.hd Workloads.all in
      let run kind =
        match spawn kind owf ~seed:(first_cell owf) ~out_dir with Ok kvs -> kvs | Error e -> die "%s" e
      in
      let rounds = List.init 3 (fun _ -> let p = run "timed" in let au = run "audited" in (p, au, run "recorded")) in
      let median f = (Stats.summarize (List.map f rounds)).median in
      let wall kvs = Option.value ~default:nan (field "wall_s" kvs) in
      ( floats (run "units"),
        [
          ("obs.audit_overhead_pct", median (fun (p, au, _) -> overhead_pct ~base:(wall p) (wall au)));
          ("obs.recorder_overhead_pct", median (fun (p, _, r) -> overhead_pct ~base:(wall p) (wall r)));
          ("obs.recorder_rss_mib", median (fun (_, _, r) -> Option.value ~default:nan (field "peak_rss_mib" r)));
        ] )
    end
  in
  let results =
    List.map
      (fun a ->
        let mismatches = mismatches expect a in
        a.failed <- a.failed + List.length mismatches;
        let e2e = end_to_end a ~seed and layers = per_layer a ~units ~sinks in
        print_workload a ~e2e ~layers ~mismatches;
        (a, e2e, layers))
      accs
  in
  let attempted = List.fold_left (fun acc (a, _, _) -> acc + a.attempted) 0 results in
  let failed = List.fold_left (fun acc (a, _, _) -> acc + a.failed) 0 results in
  let wall = now () -. t_start in
  let num i = Json.Num (float_of_int i) in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "repro-ledger/1");
        ("seed", num seed);
        ("reps", num reps);
        ("seconds", Json.Num seconds);
        ("trace", Json.Bool trace);
        ("git_rev", Json.Str (git_rev ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("nproc", num (Domain.recommended_domain_count ()));
        ("wall_s", Json.Num wall);
        ("attempted", num attempted);
        ("failed", num failed);
        ( "workloads",
          Json.List
            (List.map
               (fun (a, e2e, layers) ->
                 Json.Obj
                   [
                     ("name", Json.Str a.w.name);
                     ("domains", num (domains a.w));
                     ("attempted", num a.attempted);
                     ("failed", num a.failed);
                     ("end_to_end", Json.Obj e2e);
                     ( "per_layer",
                       Json.Obj
                         (List.map
                            (fun (k, v) -> (k, Json.Obj [ ("unit", Json.Str (spec k).unit_); ("value", Json.Num v) ]))
                            layers) );
                   ])
               results) );
      ]
  in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc (Jsonw.pretty doc));
  Printf.printf "ledger: %d workload(s), %d attempted, %d failed, %.1f s; wrote %s\n" (List.length workloads)
    attempted failed wall out;
  (* The summary line: metric names bare for one workload, prefixed by the
     workload name for several. *)
  let metrics =
    List.concat_map
      (fun (a, e2e, layers) ->
        let key k = if List.length results = 1 then k else a.w.name ^ "." ^ k in
        let value name v = (key name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (spec name).unit_) ]) in
        if trace then List.map (fun (k, v) -> value k v) layers
        else
          List.filter_map
            (fun (s : Metrics.spec) ->
              Option.bind (List.assoc_opt s.name e2e) (fun j ->
                  Option.map (value s.name) (Option.bind (Json.member "median" j) Json.to_float)))
            Metrics.end_to_end)
      results
  in
  print_endline
    (Jsonw.compact
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", num attempted);
            ("failed", num failed);
            ("metrics", Json.Obj metrics);
          ]));
  if failed > 0 then exit 1

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( match Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e)

let compare_cmd a b ~bench =
  let bounds =
    match Verdict.bounds_of_benchmark (load_json bench) with Ok b -> b | Error e -> die "%s" e
  in
  let rows = Verdict.compare_docs bounds (load_json a) (load_json b) in
  print_string (Verdict.render_rows rows);
  print_endline "per-layer (first run of each side; context only):";
  print_string (Verdict.render_layers (load_json a) (load_json b));
  if List.exists (fun (r : Verdict.row) -> r.verdict = Verdict.Worse) rows then exit 1

(* [ledger.exe pin]: runs the cell of each seed [tries] times (one pass over
   all seeds per try, so drift spreads over every seed) and pins the [population]
   cells whose median normalized time is nearest the median over all cells:
   the population runs draw from holds cells of typical cost, since an owf
   cell's cost varies by up to 1.5x with its seed. Seeds whose cell
   contradicted its expectation or changed its fingerprint between tries
   are skipped, and seeds left out are named with their cost. *)
let population = 12

let pin_cmd (w : Workloads.t) ~seeds ~tries ~expect =
  let current =
    if not (Sys.file_exists expect) then []
    else match Expect.load expect with Ok e -> e | Error e -> die "%s: %s" expect e
  in
  let skip s why =
    Printf.printf "%s: skipped seed %d: %s\n%!" w.name s why;
    None
  in
  let passes = List.init tries (fun _ -> List.map (fun s -> spawn "timed" w ~seed:s ~out_dir:"-") seeds) in
  let measured =
    List.filter_map
      (fun s ->
        let tried = List.map (fun pass -> List.assoc s (List.combine seeds pass)) passes in
        match List.partition_map (function Ok kvs -> Either.Left kvs | Error e -> Either.Right e) tried with
        | _, e :: _ -> skip s e
        | runs, [] when List.exists (fun kvs -> field "failed" kvs <> Some 0.) runs ->
          skip s "a cell contradicted its expectation"
        | runs, [] -> (
          match List.sort_uniq compare (List.map fingerprint runs) with
          | [ fp ] -> Some (s, fp, (Stats.summarize (List.filter_map (normalized "wall_s") runs)).median)
          | _ -> skip s "its fingerprint changed between tries"))
      seeds
  in
  if measured = [] then die "%s: no seed passed" w.name;
  let mid = (Stats.summarize (List.map (fun (_, _, t) -> t) measured)).median in
  let distance (_, _, t) = Float.abs (t -. mid) in
  let kept =
    List.filteri (fun i _ -> i < population) (List.stable_sort (fun a b -> compare (distance a) (distance b)) measured)
  in
  List.iter
    (fun (s, _, t) ->
      if not (List.exists (fun (k, _, _) -> k = s) kept) then
        Printf.printf "%s: left out seed %d: %.3f s against a median of %.3f s\n" w.name s t mid)
    measured;
  Out_channel.with_open_bin expect (fun oc ->
      Out_channel.output_string oc
        (Jsonw.pretty
           (Expect.to_json (Expect.set current ~workload:w.name (List.map (fun (s, fp, _) -> (s, fp)) kept)))));
  Printf.printf "%s: pinned %d of %d seeds in %s\n" w.name (List.length kept) (List.length seeds) expect

let usage () =
  die
    "usage: ledger.exe --seed S [--workload NAME]... [--reps K] [--seconds T] [--trace 0|1] [--out FILE] [--expect FILE]\n\
    \       ledger.exe compare A.json B.json [--bench BENCHMARK.json]\n\
    \       ledger.exe pin --workload NAME --seeds FIRST-LAST [--tries T] [--expect FILE]\n\
     workloads: %s"
    (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))

let workload name = match Workloads.find name with Some w -> w | None -> die "unknown workload %s" name

let default_expect = "bench/ledger/expect.json"

let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child"; kind; w; seed; out_dir ] -> child kind (workload w) ~seed:(int_arg seed) ~out_dir
  | "pin" :: "--workload" :: w :: "--seeds" :: range :: rest ->
    let first, last =
      match String.split_on_char '-' range with [ a; b ] -> (int_arg a, int_arg b) | _ -> usage ()
    in
    let seeds = List.init (max 0 (last - first + 1)) (fun i -> first + i) in
    let rec parse tries expect = function
      | [] -> pin_cmd (workload w) ~seeds ~tries ~expect
      | "--tries" :: t :: r -> parse (max 1 (int_arg t)) expect r
      | "--expect" :: f :: r -> parse tries f r
      | _ -> usage ()
    in
    parse 3 default_expect rest
  | "compare" :: a :: b :: rest ->
    let bench = match rest with [] -> "BENCHMARK.json" | [ "--bench"; f ] -> f | _ -> usage () in
    compare_cmd a b ~bench
  | args ->
    let rec parse ws seed reps seconds trace out expect = function
      | [] -> (List.rev ws, seed, reps, seconds, trace, out, expect)
      | "--workload" :: w :: r -> parse (workload w :: ws) seed reps seconds trace out expect r
      | "--seed" :: s :: r -> parse ws (Some (int_arg s)) reps seconds trace out expect r
      | "--reps" :: k :: r -> parse ws seed (max 1 (int_arg k)) seconds trace out expect r
      | "--seconds" :: t :: r -> parse ws seed reps (float_of_int (int_arg t)) trace out expect r
      | "--trace" :: ("0" | "1" as t) :: r -> parse ws seed reps seconds (t = "1") out expect r
      | "--out" :: f :: r -> parse ws seed reps seconds trace (Some f) expect r
      | "--expect" :: f :: r -> parse ws seed reps seconds trace out f r
      | _ -> usage ()
    in
    let ws, seed, reps, seconds, trace, out, expect =
      parse [] None 3 0. true None default_expect args
    in
    let seed = match seed with Some s -> s | None -> usage () in
    let workloads = if ws = [] then Workloads.all else ws in
    let out = Option.value out ~default:(Printf.sprintf "bench/ledger/out/ledger-%d.json" seed) in
    run_ledger ~workloads ~seed ~reps ~seconds ~trace ~out ~expect
