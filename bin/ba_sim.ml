(* ba_sim — command-line driver for the reproduction.

   Subcommands:
     run        one protocol execution with a summary line
     validate   check that report files parse as JSON / JSONL
   and one subcommand per experiment, each a thin caller of one
   Repro_core.Experiment function (see DESIGN.md section 4):
     table1     the measured Table 1 comparison (T1/E1)
     sweep      scaling sweep with fitted growth exponents (E2-E4)
     games      the Fig. 1 / Fig. 2 security games (E5/E6)
     broadcast  the Cor. 1.2 amortization experiment (E9)
     boost      the one-shot boost experiment and the Thm 1.3 attack (E11)
     attacks    setup-aware tree corruption (E12)
     audit      every protocol vs its declared polylog budgets (E15)
     attack     the seeded adversary-strategy matrix (E16, E19)
     scale      large-n scale sweep vs the declared budgets (E17)
     conform    executor-path conformance + async partial synchrony (E18)
     explain    flight-record one run: causal cones, locality gate, replay
     profile    self-profile one cell: hotspots, caches, pool utilization *)

open Cmdliner
open Repro_core

module Json = Repro_util.Json

let n_arg =
  Arg.(value & opt int 128 & info [ "n" ] ~docv:"N" ~doc:"Number of parties.")

let beta_arg =
  Arg.(
    value & opt float 0.1
    & info [ "beta" ] ~docv:"BETA" ~doc:"Corruption rate (fraction of n).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRG seed.")

let protocol_arg =
  let parse s =
    match Runner.protocol_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown protocol: " ^ s))
  in
  let print ppf p = Format.pp_print_string ppf (Runner.protocol_name p) in
  Arg.(
    value
    & opt (conv (parse, print)) Runner.This_work_snark
    & info [ "protocol"; "p" ] ~docv:"PROTO"
        ~doc:
          "Protocol: this-work-owf | this-work-snark | multisig-boost | \
           sqrt-quorum | naive-flood | dolev-strong, or the short names owf \
           | snark | multisig | sqrt | naive | ds.")

(* --- executor knobs (run, conform); all zero is lock-step --- *)

let gst_arg ~default =
  Arg.(
    value & opt int default
    & info [ "gst" ] ~docv:"T"
        ~doc:
          "Executor knob: global stabilization time in virtual time units; \
           before it messages may be lost (retransmitted after a timeout), \
           after it every send is delivered within 1+delta.")

let delta_arg ~default =
  Arg.(
    value & opt int default
    & info [ "delta" ] ~docv:"D"
        ~doc:"Executor knob: post-GST extra-delay bound.")

let jitter_arg ~default =
  Arg.(
    value & opt int default
    & info [ "jitter" ] ~docv:"J"
        ~doc:"Executor knob: max extra latency drawn per message.")

let loss_arg ~default =
  Arg.(
    value & opt float default
    & info [ "loss" ] ~docv:"P"
        ~doc:"Executor knob: pre-GST per-message loss rate in [0,1).")

(* --- run --- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the execution's spans \
           (open in Perfetto or chrome://tracing); also prints an ASCII \
           flame summary. Equivalent to setting REPRO_TRACE_FILE.")

let counters_arg =
  Arg.(
    value & flag
    & info [ "counters" ]
        ~doc:
          "Enable the crypto-operation counter registry and print the final \
           counter table. Equivalent to setting REPRO_COUNTERS.")

let breakdown_arg =
  Arg.(
    value & flag
    & info [ "breakdown" ]
        ~doc:"Print the per-phase sent-bytes breakdown as a table.")

let audit_flag_arg =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "Attach the per-party complexity auditor (the protocol's declared \
           polylog budgets) and print its verdict after the run. Equivalent \
           to setting REPRO_AUDIT.")

let run_cmd =
  let action protocol n beta seed trace_out counters breakdown audit gst delta
      jitter loss =
    if trace_out <> None then Repro_obs.Trace.set_output trace_out;
    if counters then Repro_obs.Counters.enable ();
    let backend =
      Repro_net.Sched.Async
        { a_seed = seed; a_delta = delta; a_jitter = jitter; a_loss = loss;
          a_gst = gst }
    in
    let row, auditor =
      if audit || Repro_obs.Audit.global_enabled () then
        let row, a = Runner.run_audited ~backend ~protocol ~n ~beta ~seed () in
        (row, Some a)
      else (Runner.run ~backend ~protocol ~n ~beta ~seed (), None)
    in
    Printf.printf
      "%s n=%d beta=%.2f: rounds=%d max=%.1fKiB/party mean=%.1fKiB total=%.1fMiB \
       locality=%d ok=%b (%s)\n"
      row.Runner.r_protocol row.Runner.r_n row.Runner.r_beta row.Runner.r_rounds
      (float_of_int row.Runner.r_max_bytes /. 1024.)
      (row.Runner.r_mean_bytes /. 1024.)
      (float_of_int row.Runner.r_total_bytes /. 1048576.)
      row.Runner.r_locality row.Runner.r_ok row.Runner.r_note;
    (match auditor with
    | Some a -> Format.printf "%a%!" Repro_obs.Audit.pp_summary a
    | None -> ());
    if breakdown then begin
      Printf.printf "per-phase sent bytes:\n";
      Format.printf "%a%!" Repro_net.Metrics.pp_breakdown row.Runner.r_breakdown
    end;
    if counters then begin
      Printf.printf "counters:\n";
      Format.printf "%a%!" Repro_obs.Counters.pp_table
        (Repro_obs.Counters.snapshot ())
    end;
    match trace_out with
    | Some file ->
      Repro_obs.Trace.flush ();
      print_string (Repro_obs.Trace.summary ());
      Printf.printf "trace written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol execution.")
    Term.(
      const action $ protocol_arg $ n_arg $ beta_arg $ seed_arg $ trace_out_arg
      $ counters_arg $ breakdown_arg $ audit_flag_arg $ gst_arg ~default:0
      $ delta_arg ~default:0 $ jitter_arg ~default:0 $ loss_arg ~default:0.0)

(* --- experiments: one Experiment call each, then one shared emit --- *)

(* Print the outcome's text, write the report (when --report names a file)
   and every artifact the run was asked for, and exit 1 if a gate failed. *)
let emit report_out (o : Experiment.outcome) =
  print_string o.text;
  let write file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" file
  in
  List.iter (fun (file, contents) -> write file contents) o.files;
  (match (report_out, o.report) with
  | Some file, Some r -> write file (Json.pretty r)
  | _ -> ());
  if o.failures <> [] then exit 1

(* [report] is the --report option's doc, for experiments that write one. *)
let experiment_cmd ?report name ~doc term =
  let report_out =
    match report with
    | None -> Term.const None
    | Some doc ->
      Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const emit $ report_out $ term)

(* Unset, each experiment runs at the fixture EXPERIMENTS.md quotes. *)
let fixture_n =
  Arg.(
    value & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Number of parties (default: the experiment's).")

let fixture_ns =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "ns" ] ~docv:"N1,N2,..."
        ~doc:"Party counts to sweep (default: the experiment's).")

let fixture_beta =
  Arg.(
    value & opt (some float) None
    & info [ "beta" ] ~docv:"BETA"
        ~doc:"Corruption rate, a fraction of n (default: the experiment's).")

let fixture_seed =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRG seed (default: the experiment's).")

let table1_cmd =
  experiment_cmd "table1" ~doc:"Reproduce Table 1, measured (T1/E1)."
    Term.(
      const (fun ns beta seed -> Experiment.table1 ?ns ?beta ?seed ())
      $ fixture_ns $ fixture_beta $ fixture_seed)

let sweep_cmd =
  experiment_cmd "sweep"
    ~doc:"Scaling sweep with fitted growth exponents, plot and rounds/locality (E2-E4)."
    Term.(
      const (fun ns beta seed -> Experiment.sweep ?ns ?beta ?seed ())
      $ fixture_ns $ fixture_beta $ fixture_seed)

let games_cmd =
  experiment_cmd "games" ~doc:"Run the Fig. 1/Fig. 2 security games (E5/E6)."
    Term.(const (fun n seed -> Experiment.games ?n ?seed ()) $ fixture_n $ fixture_seed)

let broadcast_cmd =
  experiment_cmd "broadcast" ~doc:"Broadcast corollary amortization experiment (E9)."
    Term.(
      const (fun n beta seed -> Experiment.broadcast ?n ?beta ?seed ())
      $ fixture_n $ fixture_beta $ fixture_seed)

let boost_cmd =
  experiment_cmd "boost" ~doc:"One-shot boost experiment and the Thm 1.3 attack (E11)."
    Term.(
      const (fun n beta seed -> Experiment.boost ?n ?beta ?seed ())
      $ fixture_n $ fixture_beta $ fixture_seed)

let attacks_cmd =
  experiment_cmd "attacks" ~doc:"Targeted tree-corruption strategies (E12)."
    Term.(
      const (fun n seed -> Experiment.targeted_corruption ?n ?seed ())
      $ fixture_n $ fixture_seed)

(* --- audit --- *)

let timeline_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline-out" ] ~docv:"FILE"
        ~doc:
          "Write the per-round audit timeline as JSON Lines (one object per \
           protocol round: phase, per-party max/mean bits, active parties, \
           locality, violations).")

let audit_cmd =
  experiment_cmd "audit"
    ~doc:
      "Audit every protocol against its declared polylog complexity \
       budgets; non-zero exit if a this-work protocol exceeds its own."
    Term.(
      const (fun n beta seed timeline_out ->
          Experiment.audit ?n ?beta ?seed ?timeline_out ())
      $ fixture_n $ fixture_beta $ fixture_seed $ timeline_out_arg)

(* --- attack --- *)

let seeds_arg =
  Arg.(
    value
    & opt (list int) [ 1 ]
    & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Seeds swept per cell.")

let strategies_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "strategies" ] ~docv:"S1,S2,..."
        ~doc:
          "Subset of catalogue strategies to sweep (default: all; see docs/\
           ADVERSARIES.md for the catalogue).")

let betas_arg =
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "betas" ] ~docv:"B1,B2,..."
        ~doc:
          "In-model corruption rates the gate asserts must pass (default \
           0,1/16,1/8 - the seed-robust range at simulation scale, see \
           EXPERIMENTS.md E16).")

let sanity_betas_arg =
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "sanity-betas" ] ~docv:"B1,B2,..."
        ~doc:
          "Out-of-model rates annotated may-fail; at least one such cell \
           must actually fail or the run exits non-zero (default 0.45).")

let conditions_arg =
  Arg.(
    value
    & opt ~vopt:(Some [ "all" ]) (some (list string)) None
    & info [ "conditions" ] ~docv:"C1,C2,..."
        ~doc:
          "Network conditions to sweep under the chaos knobs (default: none; \
           bare --conditions = the full catalogue: delay, partition, \
           partition-leaves, churn, adaptive). Appends one cell per (gate \
           beta, condition, strategy) for the pipeline protocols plus the \
           ungated dolev-strong reference row, and two planted expect-fail \
           rows (never-healing partition, unbounded adaptive corruption) \
           that must actually fail or the run exits non-zero.")

let forensics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "forensics" ] ~docv:"FILE"
        ~doc:
          "Re-run every failing cell and every equivocate cell at beta > 0 \
           with the flight recorder attached and write the \
           equivocation-evidence bundles (schema repro-forensics/2, kind \
           attack). Non-zero exit if a planted equivocation yields no \
           verified evidence (the extractor must have teeth).")

let attack_cmd =
  let action n seeds strategies betas sanity_betas conditions forensics_out =
    let conditions =
      List.concat_map
        (fun c ->
          if c = "all" then Repro_adversary.Condition.(List.map name (catalogue ()))
          else [ c ])
        (Option.value conditions ~default:[])
    in
    Experiment.attack ?betas ?sanity_betas ~seeds ?strategies ~conditions
      ?forensics_out ?n ()
  in
  experiment_cmd "attack"
    ~report:
      "Write the machine-readable attack report (schema repro-attack/2, \
       byte-identical across reruns with the same arguments)."
    ~doc:
      "Sweep the composable adversary portfolio against the Fig. 3 \
       pipeline protocols (E16/E19); --conditions adds the \
       network-condition axis (partitions, churn, adaptive corruption) \
       under the chaos knobs plus the ungated dolev-strong reference \
       row; non-zero exit if any gated beta < 1/3 cell breaks \
       agreement/validity or a planted teeth row survives."
    Term.(
      const action $ fixture_n $ seeds_arg $ strategies_arg $ betas_arg
      $ sanity_betas_arg $ conditions_arg $ forensics_arg)

(* --- conditions --- *)

let conditions_cmd =
  experiment_cmd "conditions"
    ~report:
      "Write the network-condition matrix (schema repro-attack/2, \
       byte-identical across reruns)."
    ~doc:
      "E19 at its fixture (the E19 slice of bench's async mode): silent \
       and equivocate under every network condition and the chaos \
       knobs, n = 40, beta = 1/8, plus the ungated dolev-strong \
       reference row and the two planted teeth rows; non-zero exit if a \
       gated cell breaks or a planted row survives."
    Term.(const (fun () -> Experiment.conditions ()) $ const ())

(* --- scale --- *)

let scale_cmd =
  experiment_cmd "scale"
    ~report:
      "Write the machine-readable scale report (schema repro-scale/2, \
       byte-identical across reruns with the same arguments)."
    ~doc:
      "E17 large-n scale sweep: honest p99 bits/party vs each protocol's \
       declared budget curve, baselines capped where their simulation \
       cost turns quadratic (the table marks capped curves). Non-zero exit \
       if a this-work curve breaks its budget or no baseline demonstrates \
       the separation."
    Term.(
      const (fun ns beta seed -> Experiment.scale ?ns ?beta ?seed ())
      $ fixture_ns $ fixture_beta $ fixture_seed)

(* --- explain: causal forensics over a flight-recorded run --- *)

let party_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "party" ] ~docv:"I"
        ~doc:
          "Render this party's causal cone as an ASCII tree (most recent \
           round first, sampled sender ids per slice). Default: a one-line \
           summary per recorded decider.")

let replay_check_arg =
  Arg.(
    value & flag
    & info [ "replay-check" ]
        ~doc:
          "Round-trip the recorded log: serialize to JSONL (payloads \
           kept), parse back, re-drive a fresh network from it, and verify \
           the replayed transcript is byte-identical (field compare plus \
           SHA-256 digests of the send streams). Non-zero exit on any \
           divergence.")

let log_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-out" ] ~docv:"FILE"
        ~doc:"Write the raw flight-recorder log as JSON Lines.")

let explain_cmd =
  experiment_cmd "explain"
    ~report:
      "Write the machine-readable forensics report (schema \
       repro-forensics/2, kind explain: one cone per decider with \
       per-round slice sizes vs the protocol's declared locality curve). \
       Byte-identical across reruns with the same arguments."
    ~doc:
      "Flight-record one run and explain decisions: per-decider causal \
       cones with per-round slice sizes checked against the protocol's \
       declared locality curve (non-zero exit if a this-work cone \
       exceeds it), optional ASCII cone tree for one party, \
       repro-forensics/2 report, raw JSONL log, and a transcript replay \
       self-check."
    Term.(
      const (fun protocol n beta seed party replay log_out ->
          Experiment.explain ~protocol ~n ~beta ~seed ?party ~replay ?log_out ())
      $ protocol_arg $ n_arg $ beta_arg $ seed_arg $ party_arg $ replay_check_arg
      $ log_out_arg)

(* --- profile --- *)

let profile_compare_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "compare" ] ~docv:"PREV.json"
        ~doc:
          "Compare the deterministic metrics against a previous \
           repro-profile/1 report; non-zero exit when any regresses past \
           --threshold. A structurally incompatible previous file (older \
           schema) is reported as not comparable, never as a failure.")

let profile_threshold_arg =
  Arg.(
    value & opt float 0.0
    & info [ "threshold" ] ~docv:"FRAC"
        ~doc:
          "Relative drift tolerated by --compare (deterministic metrics are \
           exact, so the default is 0: any change is a regression).")

let profile_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K" ~doc:"Rows per hotspot table.")

let profile_cmd =
  let action protocol n beta seed compare threshold top =
    let read file = In_channel.with_open_bin file In_channel.input_all in
    let compare = Option.map (fun file -> (file, read file)) compare in
    Experiment.profile ~protocol ~n ~beta ~seed ~top ?compare ~threshold ()
  in
  experiment_cmd "profile"
    ~report:
      "Write the machine-readable profile report (schema repro-profile/1; \
       the deterministic section is byte-identical across reruns and \
       REPRO_DOMAINS settings)."
    ~doc:
      "Self-profile one (protocol, n) cell: per-span wall/alloc hotspots, \
       cache effectiveness, scheduler occupancy and domain-pool \
       utilization; optional repro-profile/1 report and deterministic \
       regression gate (--compare)."
    Term.(
      const action $ protocol_arg $ n_arg $ beta_arg $ seed_arg
      $ profile_compare_arg $ profile_threshold_arg $ profile_top_arg)

(* --- conform: E18 executor-path conformance + async chaos gate --- *)

let conform_cmd =
  let action ns beta seed a_gst a_delta a_jitter a_loss =
    Experiment.conform ?ns ~beta ~seed
      ~chaos:[ { Repro_net.Sched.a_seed = seed; a_delta; a_jitter; a_loss; a_gst } ]
      ()
  in
  experiment_cmd "conform"
    ~report:
      "Write the machine-readable report (schema repro-async/2, \
       byte-identical across reruns with the same arguments)."
    ~doc:
      "E18: run the conformance suite (at zero knobs the lock-step \
       shortcut and the general (time, seq) path must produce identical \
       transcripts) and the async chaos matrix (jitter/loss before GST \
       against live adversaries); non-zero exit if the paths disagree or \
       an async cell breaks agreement/validity or the post-GST delivery \
       bound."
    Term.(
      const action $ fixture_ns $ beta_arg $ seed_arg $ gst_arg ~default:24
      $ delta_arg ~default:2 $ jitter_arg ~default:3 $ loss_arg ~default:0.1)

(* --- validate: the reports parse --- *)

let validate_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"A JSON document, or a JSONL file (one value per line) when \
                the name ends in .jsonl.")
  in
  let check file =
    let ic = open_in_bin file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let fail offset msg =
      Printf.printf "%s:%d: %s\n" file offset msg;
      exit 1
    in
    if Filename.check_suffix file ".jsonl" then begin
      let lines = String.split_on_char '\n' text in
      (* a final newline ends the last line; it does not open an empty one *)
      let lines =
        match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
      in
      ignore
        (List.fold_left
           (fun start line ->
             (match Json.parse_at line with
             | Ok _ -> ()
             | Error (offset, msg) -> fail (start + offset) msg);
             start + String.length line + 1)
           0 lines);
      Printf.printf "%s: valid JSONL (%d lines)\n" file (List.length lines)
    end
    else
      match Json.parse_at text with
      | Ok doc -> (
        match Runner.check_forensics_report doc with
        | Ok () -> Printf.printf "%s: valid JSON\n" file
        | Error msg -> fail 0 msg)
      | Error (offset, msg) -> fail offset msg
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Parse each report with the repository's own JSON reader; print \
          FILE:OFFSET and exit non-zero at the first malformed one.")
    Term.(const (List.iter check) $ files_arg)

let () =
  let info =
    Cmd.info "ba_sim" ~version:"1.0"
      ~doc:"Byzantine agreement with polylog bits per party: simulator CLI."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; audit_cmd; attack_cmd; conditions_cmd; table1_cmd; sweep_cmd; scale_cmd;
            games_cmd; boost_cmd; broadcast_cmd; attacks_cmd; explain_cmd;
            profile_cmd; conform_cmd; validate_cmd ]))
