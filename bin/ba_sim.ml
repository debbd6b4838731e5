(* ba_sim — command-line driver for the reproduction.

   Subcommands:
     run        one protocol execution with a summary line
     audit      every protocol vs its declared polylog complexity budgets
     attack     the seeded adversary-strategy matrix (E16)
     table1     the measured Table 1 comparison
     sweep      scaling sweep with fitted growth exponents
     games      the Fig. 1 / Fig. 2 security games over the attack portfolio
     boost      the one-shot boost experiment (E11) and the Thm-1.3 attack
     broadcast  the Cor. 1.2 amortization experiment
     explain    flight-record one run: causal cones, locality gate, replay
     profile    self-profile one cell: hotspots, caches, pool utilization
     conform    cross-backend conformance + async partial-synchrony gate (E18)
     validate   check that report files parse as JSON / JSONL *)

open Cmdliner
open Repro_core

module Json = Repro_util.Json

let write_json file v =
  let oc = open_out file in
  output_string oc (Json.pretty v);
  close_out oc

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
           sqrt-quorum | naive-flood.")

let ns_arg =
  Arg.(
    value
    & opt (list int) [ 64; 128; 256 ]
    & info [ "ns" ] ~docv:"N1,N2,..." ~doc:"Party counts for tables/sweeps.")

(* --- scheduler backend selection (run, conform) --- *)

let backend_name_arg =
  Arg.(
    value & opt string "sparse"
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Scheduler backend: sparse (lock-step delivery in send order, the \
           default) or async (deterministic event-queue executor; its chaos \
           knobs are --gst, --delta, --jitter, --loss). Both produce \
           identical transcripts when the knobs are zero.")

let gst_arg ~default =
  Arg.(
    value & opt int default
    & info [ "gst" ] ~docv:"T"
        ~doc:
          "Async backend: global stabilization time in virtual time units; \
           before it messages may be lost (retransmitted after a timeout), \
           after it every send is delivered within 1+delta.")

let delta_arg ~default =
  Arg.(
    value & opt int default
    & info [ "delta" ] ~docv:"D"
        ~doc:"Async backend: post-GST extra-delay bound.")

let jitter_arg ~default =
  Arg.(
    value & opt int default
    & info [ "jitter" ] ~docv:"J"
        ~doc:"Async backend: max extra latency drawn per message.")

let loss_arg ~default =
  Arg.(
    value & opt float default
    & info [ "loss" ] ~docv:"P"
        ~doc:"Async backend: pre-GST per-message loss rate in [0,1).")

let backend_of ~name ~seed ~gst ~delta ~jitter ~loss =
  let cfg =
    {
      Repro_net.Sched.a_seed = seed;
      a_delta = delta;
      a_jitter = jitter;
      a_loss = loss;
      a_gst = gst;
    }
  in
  match Repro_net.Sched.backend_of_string ~async:cfg name with
  | Some b -> b
  | None ->
    prerr_endline ("unknown backend: " ^ name ^ " (sparse | async)");
    exit 2

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
  let action protocol n beta seed trace_out counters breakdown audit
      backend_name gst delta jitter loss =
    if trace_out <> None then Repro_obs.Trace.set_output trace_out;
    if counters then Repro_obs.Counters.enable ();
    let backend = backend_of ~name:backend_name ~seed ~gst ~delta ~jitter ~loss in
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
      $ counters_arg $ breakdown_arg $ audit_flag_arg $ backend_name_arg
      $ gst_arg ~default:0 $ delta_arg ~default:0 $ jitter_arg ~default:0
      $ loss_arg ~default:0.0)

(* --- audit --- *)

let audit_n_arg =
  Arg.(
    value & opt int 64
    & info [ "n" ] ~docv:"N"
        ~doc:"Number of parties (the budget curves scale with log n).")

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
  let action n beta seed timeline_out =
    let module Audit = Repro_obs.Audit in
    let results =
      List.map
        (fun protocol ->
          let row, a = Runner.run_audited ~protocol ~n ~beta ~seed () in
          (protocol, row, a))
        Runner.all_protocols
    in
    let fmt_check cv observed =
      match cv with
      | None -> Printf.sprintf "%d" observed
      | Some cv ->
        let b = Audit.eval cv ~n ~kappa:Audit.kappa_default in
        Printf.sprintf "%d/%.0f%s" observed b
          (if float_of_int observed > b then " !" else "")
    in
    let t =
      Repro_util.Tablefmt.create
        ~title:
          (Printf.sprintf
             "complexity audit, n=%d beta=%.2f (observed/budget, ! = exceeded)"
             n beta)
        ~headers:
          [ "protocol"; "rounds"; "bits/round"; "locality/round"; "total bits";
            "violations"; "verdict" ]
        ~aligns:
          [ Repro_util.Tablefmt.Left; Right; Right; Right; Right; Right; Left ]
    in
    List.iter
      (fun (_, _, a) ->
        let b = Audit.budgets a in
        Repro_util.Tablefmt.add_row t
          [
            Audit.label a;
            string_of_int (Audit.rounds_seen a);
            fmt_check b.Audit.round_bits (Audit.max_round_bits a);
            fmt_check b.Audit.round_locality (Audit.max_round_locality a);
            fmt_check b.Audit.total_bits (Audit.total_bits_max a);
            string_of_int (Audit.violation_count a);
            (if Audit.violation_count a = 0 then "within budget"
             else "OVER BUDGET");
          ])
      results;
    Repro_util.Tablefmt.print t;
    (* Budget declarations, so the table is self-describing. *)
    Printf.printf "declared budgets (kappa=%d):\n" Audit.kappa_default;
    List.iter
      (fun (_, _, a) ->
        let b = Audit.budgets a in
        let c name = function
          | None -> ""
          | Some cv -> Format.asprintf "%s %a  " name Audit.pp_curve cv
        in
        Printf.printf "  %-16s %s%s%s\n" (Audit.label a)
          (c "bits/round" b.Audit.round_bits)
          (c "locality" b.Audit.round_locality)
          (c "total" b.Audit.total_bits))
      results;
    (* Worst offenders for every protocol that blew its budget. *)
    List.iter
      (fun (_, _, a) ->
        if Audit.violation_count a > 0 then begin
          let t =
            Repro_util.Tablefmt.create
              ~title:(Printf.sprintf "worst offenders: %s" (Audit.label a))
              ~headers:[ "party"; "violations"; "total bits" ]
              ~aligns:[ Repro_util.Tablefmt.Right; Right; Right ]
          in
          List.iter
            (fun (p, v, bits) ->
              Repro_util.Tablefmt.add_row t
                [ string_of_int p; string_of_int v; string_of_int bits ])
            (Audit.worst_offenders ~top:5 a);
          Repro_util.Tablefmt.print t;
          match Audit.violations a with
          | [] -> ()
          | v :: _ ->
            Printf.printf
              "  first violation: party %d round %d [%s] %s observed %.0f > \
               budget %.0f\n"
              v.Audit.v_party v.Audit.v_round v.Audit.v_phase
              (Audit.kind_name v.Audit.v_kind)
              v.Audit.v_observed v.Audit.v_budget
        end)
      results;
    (match timeline_out with
    | Some file ->
      let oc = open_out file in
      List.iter
        (fun (_, _, a) ->
          output_string oc (Audit.timeline_jsonl ~protocol:(Audit.label a) a))
        results;
      close_out oc;
      Printf.printf "timeline written to %s\n" file
    | None -> ());
    (* Exit non-zero if a this-work protocol broke its own budget: the
       polylog claim is the reproduction's headline and this is its gate. *)
    let this_work_ok =
      List.for_all
        (fun (p, _, a) ->
          match p with
          | Runner.This_work_owf | Runner.This_work_snark ->
            Audit.violation_count a = 0
          | _ -> true)
        results
    in
    if not this_work_ok then exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Audit every protocol against its declared polylog complexity \
          budgets; non-zero exit if a this-work protocol exceeds its own.")
    Term.(const action $ audit_n_arg $ beta_arg $ seed_arg $ timeline_out_arg)

(* --- attack --- *)

let attack_n_arg =
  Arg.(
    value & opt int 64
    & info [ "n" ] ~docv:"N" ~doc:"Number of parties per matrix cell.")

let seeds_arg =
  Arg.(
    value
    & opt (list int) [ 1 ]
    & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Seeds swept per cell.")

let report_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable attack report (schema repro-attack/2, \
           byte-identical across reruns with the same arguments).")

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
          "Network conditions to sweep on the async backend (default: none; \
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
           equivocation-evidence bundles (schema repro-forensics/1, kind \
           attack). Non-zero exit if a planted equivocation yields no \
           verified evidence (the extractor must have teeth).")

let attack_cmd =
  let action n seeds report_out strategies betas sanity_betas conditions
      forensics_out =
    let conditions =
      match conditions with
      | None -> []
      | Some cs ->
        List.concat_map
          (fun c ->
            if c = "all" then
              List.map Repro_adversary.Condition.name
                (Repro_adversary.Condition.catalogue ())
            else [ c ])
          cs
    in
    let m =
      Runner.attack_matrix ?betas ?sanity_betas ?strategies ~conditions ~seeds
        ~n ()
    in
    Repro_util.Tablefmt.print (Runner.attack_table m);
    if conditions <> [] then
      Repro_util.Tablefmt.print (Runner.condition_table m);
    Printf.printf
      "matrix: %d cells, %d strategies, %d condition(s), protocols: %s\n"
      (List.length m.Runner.am_cells)
      (List.length m.Runner.am_strategies)
      (List.length m.Runner.am_conditions)
      (String.concat ", " m.Runner.am_protocols);
    let broken =
      List.filter
        (fun c ->
          not (c.Runner.ac_ok || c.Runner.ac_expect_fail)
          && c.Runner.ac_gated)
        m.Runner.am_cells
    in
    List.iter
      (fun c ->
        Printf.printf
          "BROKEN: %s vs %s/%s beta=%.3f seed=%d (agreed=%b decided=%.2f \
           valid=%b post_gst_late=%d)\n"
          c.Runner.ac_protocol c.Runner.ac_strategy c.Runner.ac_condition
          c.Runner.ac_beta c.Runner.ac_seed c.Runner.ac_agreed
          c.Runner.ac_decided c.Runner.ac_valid c.Runner.ac_post_gst_late)
      broken;
    (match report_out with
    | Some file ->
      write_json file (Runner.attack_matrix_json m);
      Printf.printf "report written to %s\n" file
    | None -> ());
    if m.Runner.am_gate_ok then
      print_endline "gate: all beta < 1/3 cells reached agreement+validity"
    else
      Printf.printf "gate: %d beta < 1/3 cell(s) BROKE agreement/validity\n"
        (List.length broken);
    if m.Runner.am_sanity_betas <> [] then
      Printf.printf
        "teeth: beta >= 1/3 sanity rows %s\n"
        (if m.Runner.am_teeth then
           "detected disagreement/non-decision (harness has teeth)"
         else "all passed - DETECTION SELF-CHECK FAILED");
    if m.Runner.am_conditions <> [] then
      Printf.printf "condition teeth: planted rows %s\n"
        (if m.Runner.am_condition_teeth then
           "(never-healing partition, unbounded adaptive) both broke the \
            protocol (condition checks have teeth)"
         else "survived - CONDITION SELF-CHECK FAILED");
    (* Forensic pass: bit-identical re-runs of the interesting cells with
       the flight recorder attached, evidence extracted and re-verified. *)
    let forensics_ok =
      match forensics_out with
      | None -> true
      | Some file ->
        let bundles = Runner.attack_forensics m in
        write_json file (Runner.attack_forensics_json ~n bundles);
        let total_ev =
          List.fold_left
            (fun a b -> a + List.length b.Runner.fb_evidence)
            0 bundles
        in
        Printf.printf
          "forensics: %d cell(s) re-run, %d verified evidence bundle(s), \
           written to %s\n"
          (List.length bundles) total_ev file;
        let planted =
          List.exists
            (fun c ->
              Runner.strategy_equivocates c.Runner.ac_strategy
              && c.Runner.ac_beta > 0.0)
            m.Runner.am_cells
        in
        if not planted then begin
          print_endline
            "forensics: no equivocate cell at beta > 0 in this matrix \
             (extractor teeth not exercised)";
          true
        end
        else if Runner.forensics_teeth bundles then begin
          print_endline
            "forensics: every planted equivocation produced verified \
             evidence (extractor has teeth)";
          true
        end
        else begin
          print_endline
            "forensics: a planted equivocation yielded NO verified evidence \
             - EXTRACTOR SELF-CHECK FAILED";
          false
        end
    in
    (* Non-zero exit if an in-model cell broke, if the sanity rows never
       demonstrated a detectable failure (the checks must have teeth), if a
       planted condition row survived (same principle on the condition
       axis), or if the evidence extractor missed a planted equivocation. *)
    if
      (not m.Runner.am_gate_ok)
      || (m.Runner.am_sanity_betas <> [] && not m.Runner.am_teeth)
      || (m.Runner.am_conditions <> [] && not m.Runner.am_condition_teeth)
      || not forensics_ok
    then exit 1
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Sweep the composable adversary portfolio against the Fig. 3 \
          pipeline protocols (E16/E19); --conditions adds the \
          network-condition axis (partitions, churn, adaptive corruption) \
          over the async backend plus the ungated dolev-strong reference \
          row; non-zero exit if any gated beta < 1/3 cell breaks \
          agreement/validity or a planted teeth row survives.")
    Term.(const action $ attack_n_arg $ seeds_arg $ report_out_arg
          $ strategies_arg $ betas_arg $ sanity_betas_arg $ conditions_arg
          $ forensics_arg)

(* --- table1 --- *)

let table1_cmd =
  let action ns beta seed =
    Repro_util.Tablefmt.print (Runner.table1 ~ns ~beta ~seed ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (measured).")
    Term.(const action $ ns_arg $ beta_arg $ seed_arg)

(* --- sweep --- *)

let sweep_cmd =
  let action ns beta seed =
    Repro_util.Tablefmt.print (Runner.sweep_table ~ns ~beta ~seed ())
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Scaling sweep with fitted growth exponents.")
    Term.(const action $ ns_arg $ beta_arg $ seed_arg)

(* --- scale --- *)

let scale_ns_arg =
  Arg.(
    value
    & opt (list int) Runner.scale_ns_default
    & info [ "ns" ] ~docv:"N1,N2,..."
        ~doc:
          "Party counts to sweep. Quadratic-simulation baselines are \
           additionally capped per protocol (the table marks capped curves).")

let scale_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable scale report (schema repro-scale/1, \
           byte-identical across reruns with the same arguments).")

let scale_cmd =
  let action ns beta seed report_out =
    let results = Runner.scale_rows ~ns ~beta ~seed () in
    Repro_util.Tablefmt.print (Runner.scale_table results);
    (match report_out with
    | Some file ->
      write_json file (Runner.scale_json results);
      Printf.printf "report written to %s\n" file
    | None -> ());
    print_endline
      "  (p99 = honest per-party 99th-percentile sent+received; budget = the";
    print_endline
      "   protocol's declared polylog total-bits curve at that n. The";
    print_endline
      "   this-work curves stay within budget as n doubles; the baselines'";
    print_endline "   identical-shape declarations break - see EXPERIMENTS.md E17)";
    (* Gate: the headline separation must be visible in this very output.
       Both this-work curves within budget and violation-free at every
       swept n; at least one baseline over its declared curve at its
       largest swept n. *)
    let this_work_ok =
      List.for_all
        (fun sc ->
          match Runner.protocol_of_name sc.Runner.sc_protocol with
          | Some (Runner.This_work_owf | Runner.This_work_snark) ->
            List.for_all
              (fun sp -> sp.Runner.sp_within && sp.Runner.sp_violations = 0)
              sc.Runner.sc_points
          | _ -> true)
        results
    in
    let baseline_over =
      List.exists
        (fun sc ->
          match Runner.protocol_of_name sc.Runner.sc_protocol with
          | Some
              (Runner.Multisig_boost | Runner.Sqrt_boost | Runner.Naive_boost)
            ->
            List.exists (fun sp -> not sp.Runner.sp_within) sc.Runner.sc_points
          | _ -> false)
        results
    in
    if not this_work_ok then begin
      print_endline "gate: a this-work curve broke its declared budget";
      exit 1
    end;
    if not baseline_over then begin
      print_endline
        "gate: no baseline exceeded its declared curve (separation not shown)";
      exit 1
    end;
    print_endline
      "gate: this-work within budget at every n; baseline separation shown"
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "E17 large-n scale sweep: honest p99 bits/party vs each protocol's \
          declared budget curve, baselines capped where their simulation \
          cost turns quadratic. Non-zero exit if a this-work curve breaks \
          its budget or no baseline demonstrates the separation.")
    Term.(const action $ scale_ns_arg $ beta_arg $ seed_arg $ scale_report_arg)

(* --- games --- *)

let games_cmd =
  let action n seed =
    let t = n / 8 in
    let module G_owf = Srds_experiments.Make (Srds_owf) in
    let module G_snark = Srds_experiments.Make (Srds_snark) in
    let module G_abl = Srds_experiments.Make (Srds_snark_ablated) in
    Printf.printf "== Fig. 1 robustness games (n=%d, t=%d) ==\n" n t;
    let rob name (r : G_owf.robustness_result) =
      Printf.printf "  owf   %-10s robust=%b (root count=%s)\n" name r.G_owf.r_accepted
        (match r.G_owf.r_root_count with Some c -> string_of_int c | None -> "-")
    in
    rob "passive" (G_owf.robustness ~n ~t ~seed (G_owf.passive_adversary ~t));
    rob "silent" (G_owf.robustness ~n ~t ~seed (G_owf.silent_adversary ~t));
    rob "garbage" (G_owf.robustness ~n ~t ~seed (G_owf.garbage_adversary ~t));
    rob "duplicate" (G_owf.robustness ~n ~t ~seed (G_owf.duplicate_adversary ~t));
    let rob2 name (r : G_snark.robustness_result) =
      Printf.printf "  snark %-10s robust=%b (root count=%s)\n" name r.G_snark.r_accepted
        (match r.G_snark.r_root_count with Some c -> string_of_int c | None -> "-")
    in
    rob2 "passive" (G_snark.robustness ~n ~t ~seed (G_snark.passive_adversary ~t));
    rob2 "silent" (G_snark.robustness ~n ~t ~seed (G_snark.silent_adversary ~t));
    rob2 "garbage" (G_snark.robustness ~n ~t ~seed (G_snark.garbage_adversary ~t));
    rob2 "duplicate" (G_snark.robustness ~n ~t ~seed (G_snark.duplicate_adversary ~t));
    Printf.printf "== Fig. 2 forgery games ==\n";
    let s_count = max 1 (n / 12) in
    let fg scheme name (win, detail) =
      Printf.printf "  %-5s %-18s forged=%b (%s)\n" scheme name win detail
    in
    let owf_res adv =
      let r = G_owf.forgery ~n ~t ~seed adv in
      (r.G_owf.f_win, r.G_owf.f_detail)
    in
    fg "owf" "replay" (owf_res (G_owf.replay_adversary ~t ~s_count));
    fg "owf" "minority" (owf_res (G_owf.minority_adversary ~t ~s_count));
    fg "owf" "dup-inflate"
      (owf_res (G_owf.duplicate_inflation_adversary ~t ~s_count ~copies:6));
    let snark_res adv =
      let r = G_snark.forgery ~n ~t ~seed adv in
      (r.G_snark.f_win, r.G_snark.f_detail)
    in
    fg "snark" "replay" (snark_res (G_snark.replay_adversary ~t ~s_count));
    fg "snark" "minority" (snark_res (G_snark.minority_adversary ~t ~s_count));
    fg "snark" "dup-inflate"
      (snark_res (G_snark.duplicate_inflation_adversary ~t ~s_count ~copies:6));
    let abl =
      let r =
        G_abl.forgery ~n ~t ~seed
          (G_abl.duplicate_inflation_adversary ~t ~s_count ~copies:8)
      in
      (r.G_abl.f_win, r.G_abl.f_detail)
    in
    fg "ABLATED(no ranges)" "dup-inflate" abl
  in
  Cmd.v
    (Cmd.info "games" ~doc:"Run the Fig. 1/Fig. 2 security games.")
    Term.(const action $ n_arg $ seed_arg)

(* --- boost --- *)

let boost_cmd =
  let action n beta seed =
    let module B = Boost.Make (Srds_owf) in
    let rng = Repro_util.Rng.create seed in
    let corrupt =
      Repro_util.Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n))
    in
    Printf.printf "== one-shot boost (n=%d, beta=%.2f, iso=0.15) ==\n" n beta;
    List.iter
      (fun degree ->
        let r = B.run { Boost.n; corrupt; isolated_fraction = 0.15; degree; seed } in
        Printf.printf "  degree=%-3d recovered=%.3f fooled=%.3f max=%.1fKiB\n" degree
          r.Boost.recovered_fraction r.Boost.fooled_fraction
          (float_of_int r.Boost.report.Repro_net.Metrics.max_bytes /. 1024.))
      [ 2; 4; 8; 16; 32 ];
    let r = B.run_unauthenticated { Boost.n; corrupt; isolated_fraction = 0.15; degree = 16; seed } in
    Printf.printf
      "  UNAUTHENTICATED degree=16: recovered=%.3f fooled=%.3f  <- Thm 1.3 attack\n"
      r.Boost.recovered_fraction r.Boost.fooled_fraction
  in
  Cmd.v
    (Cmd.info "boost" ~doc:"One-shot boost experiment and the Thm 1.3 attack.")
    Term.(const action $ n_arg $ beta_arg $ seed_arg)

(* --- broadcast --- *)

let broadcast_cmd =
  let action n beta seed =
    let module Bc = Broadcast.Make (Srds_snark) in
    let rng = Repro_util.Rng.create seed in
    let corrupt =
      Repro_util.Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n))
    in
    let cfg =
      Balanced_ba.default_config ~n ~corrupt ~inputs:(Array.make n false) ~seed ()
    in
    Printf.printf "== broadcast amortization (Cor. 1.2, n=%d) ==\n" n;
    List.iter
      (fun l ->
        let senders =
          List.filteri (fun k _ -> k < l)
            (List.filter (fun p -> not (List.mem p corrupt)) (List.init n (fun p -> p)))
        in
        let messages =
          List.map (fun p -> (p, Bytes.of_string (Printf.sprintf "payload-%d" p))) senders
        in
        let r = Bc.run cfg ~messages in
        let all_ok =
          List.for_all (fun e -> e.Broadcast.consistent && e.Broadcast.delivered) r.Broadcast.execs
        in
        Printf.printf "  l=%-2d amortized max=%.1f KiB/party/exec ok=%b\n" l
          (r.Broadcast.amortized_max_bytes /. 1024.)
          all_ok)
      [ 1; 2; 4; 8 ]
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Broadcast corollary amortization experiment.")
    Term.(const action $ n_arg $ beta_arg $ seed_arg)

(* --- attacks --- *)

let attacks_cmd =
  let action n seed =
    let open Repro_aetree in
    let params = Params.default n in
    let tree = Tree.random params (Repro_util.Rng.create seed) in
    Printf.printf "== setup-aware corruption damage (n=%d, budget=n/8) ==
" n;
    List.iter
      (fun strategy ->
        let d =
          Attacks.measure tree ~strategy ~budget:(n / 8)
            ~rng:(Repro_util.Rng.create (seed + 1))
        in
        Printf.printf "  %-12s good-path leaves=%.3f connected=%.3f root-good=%b
"
          d.Attacks.d_strategy d.Attacks.d_good_leaf_fraction
          d.Attacks.d_connected_fraction d.Attacks.d_root_good)
      [ Attacks.Random; Attacks.Kill_leaves; Attacks.Target_root ];
    print_endline "  (target-root is out of model: corruption precedes the election)"
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"Targeted tree-corruption strategies (E12).")
    Term.(const action $ n_arg $ seed_arg)

(* --- breakdown --- *)

let breakdown_cmd =
  let action protocol n beta seed =
    (match protocol with
    | Runner.Sqrt_boost | Runner.Naive_boost ->
      prerr_endline "breakdown: pick a pipeline protocol (owf/snark/multisig)";
      exit 1
    | _ -> ());
    let rng = Repro_util.Rng.create seed in
    let corrupt =
      Repro_util.Rng.subset rng ~n ~size:(int_of_float (beta *. float_of_int n))
    in
    let cfg =
      Balanced_ba.default_config ~n ~corrupt
        ~inputs:(Array.init n (fun i -> i mod 2 = 0))
        ~seed ()
    in
    let r =
      match protocol with
      | Runner.This_work_owf ->
        let module B = Balanced_ba.Make (Srds_owf) in
        B.run cfg
      | Runner.Multisig_boost ->
        let module B = Balanced_ba.Make (Baseline_multisig) in
        B.run cfg
      | _ ->
        let module B = Balanced_ba.Make (Srds_snark) in
        B.run cfg
    in
    let total = List.fold_left (fun acc (_, b) -> acc + b) 0 r.Balanced_ba.breakdown in
    Printf.printf "== per-phase bytes, %s, n=%d ==
" (Runner.protocol_name protocol) n;
    List.iter
      (fun (g, b) ->
        Printf.printf "  %-16s %8.2f MiB  %5.1f%%
" g
          (float_of_int b /. 1048576.)
          (100. *. float_of_int b /. float_of_int total))
      r.Balanced_ba.breakdown
  in
  Cmd.v
    (Cmd.info "breakdown" ~doc:"Per-phase communication breakdown (E13).")
    Term.(const action $ protocol_arg $ n_arg $ beta_arg $ seed_arg)

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

let explain_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable forensics report (schema \
           repro-forensics/1, kind explain: one cone per decider with \
           per-round slice sizes vs the protocol's declared locality \
           curve). Byte-identical across reruns with the same arguments.")

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
  let action protocol n beta seed party report_out replay_check log_out =
    let module Recorder = Repro_obs.Recorder in
    let row, rec_, corrupt =
      Runner.run_recorded ~keep_payloads:replay_check ~protocol ~n ~beta ~seed
        ()
    in
    let ex = Runner.explain_cones ~protocol ~n ~beta ~seed rec_ in
    Printf.printf
      "%s n=%d beta=%.2f seed=%d: %d events recorded, %d decider(s), ok=%b\n"
      row.Runner.r_protocol n beta seed
      (Recorder.total_events rec_)
      (List.length ex.Runner.ex_cones)
      row.Runner.r_ok;
    (match ex.Runner.ex_budget with
    | Some b ->
      Printf.printf
        "locality budget: <= %.0f distinct senders per cone round (declared \
         curve at n=%d)\n"
        b n
    | None -> print_endline "locality budget: none declared");
    (match party with
    | Some p -> (
      match Recorder.causal_cone rec_ ~party:p with
      | None ->
        Printf.printf "party %d recorded no decision\n" p;
        exit 1
      | Some cone -> print_string (Recorder.render_cone ~phases:true rec_ cone))
    | None ->
      List.iter
        (fun ((c : Recorder.cone), over) ->
          Printf.printf
            "  party %4d decided %S at r%-4d cone: %6d sends, %4d parties, \
             max slice %4d%s\n"
            c.Recorder.cone_party c.Recorder.cone_value c.Recorder.cone_round
            c.Recorder.cone_events c.Recorder.cone_parties
            c.Recorder.cone_max_round_size
            (if over > 0 then Printf.sprintf "  (%d slice(s) OVER BUDGET)" over
             else ""))
        ex.Runner.ex_cones);
    Printf.printf "violations: %d over-budget cone slice(s)\n"
      ex.Runner.ex_violations;
    (match log_out with
    | Some file ->
      let oc = open_out file in
      output_string oc (Recorder.to_jsonl rec_);
      close_out oc;
      Printf.printf "log written to %s (%d events)\n" file
        (Recorder.total_events rec_)
    | None -> ());
    (match report_out with
    | Some file ->
      write_json file (Runner.explain_json ex);
      Printf.printf "report written to %s\n" file
    | None -> ());
    if replay_check then begin
      (* Round-trip: JSONL -> parse -> re-drive -> byte compare, then the
         golden-digest style check over both send streams. *)
      let module Sha256 = Repro_crypto.Sha256 in
      let send_digest r =
        let ctx = Sha256.init () in
        Recorder.iter r (function
          | Recorder.Send _ as ev ->
            let b = Bytes.of_string (Recorder.event_jsonl ev ^ "\n") in
            Sha256.feed ctx b 0 (Bytes.length b)
          | _ -> ());
        Sha256.hex (Sha256.finish ctx)
      in
      match Repro_net.Replay.events_of_jsonl (Recorder.to_jsonl rec_) with
      | Error e ->
        Printf.printf "replay-check: log parse FAILED: %s\n" e;
        exit 1
      | Ok events -> (
        match Repro_net.Replay.replay ~n ~corrupt events with
        | Error e ->
          Printf.printf "replay-check: re-drive FAILED: %s\n" e;
          exit 1
        | Ok replayed -> (
          match Repro_net.Replay.check ~original:events ~replayed with
          | Error e ->
            Printf.printf "replay-check: FAILED: %s\n" e;
            exit 1
          | Ok k ->
            let d0 = send_digest rec_ and d1 = send_digest replayed in
            if d0 <> d1 then begin
              Printf.printf
                "replay-check: send-stream digests DIVERGED\n  recorded %s\n\
                \  replayed %s\n"
                d0 d1;
              exit 1
            end;
            Printf.printf
              "replay-check: %d sends replayed byte-identical (sha256 %s)\n" k
              d0))
    end;
    (* Gate: the polylog pipelines must explain every decision within their
       declared locality curve; the Theta(n) baselines are expected to blow
       the same check, so only this-work violations are failures. *)
    match protocol with
    | Runner.This_work_owf | Runner.This_work_snark ->
      if ex.Runner.ex_violations > 0 then begin
        Printf.printf
          "gate: a this-work causal cone exceeded the declared locality \
           curve\n";
        exit 1
      end
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Flight-record one run and explain decisions: per-decider causal \
          cones with per-round slice sizes checked against the protocol's \
          declared locality curve (non-zero exit if a this-work cone \
          exceeds it), optional ASCII cone tree for one party, \
          repro-forensics/1 report, raw JSONL log, and a transcript replay \
          self-check.")
    Term.(
      const action $ protocol_arg $ n_arg $ beta_arg $ seed_arg $ party_arg
      $ explain_report_arg $ replay_check_arg $ log_out_arg)

(* --- profile --- *)

let profile_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable profile report (schema repro-profile/1; \
           the deterministic section is byte-identical across reruns and \
           REPRO_DOMAINS settings).")

let profile_compare_arg =
  Arg.(
    value
    & opt (some string) None
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
  let action protocol n beta seed report_out compare_prev threshold top =
    let row, wall, gc = Runner.run_profiled ~protocol ~n ~beta ~seed in
    Printf.printf
      "%s n=%d beta=%.2f: rounds=%d wall=%.2fs minor=%.1fMw major=%.1fMw \
       gcs=%d/%d ok=%b\n"
      row.Runner.r_protocol row.Runner.r_n row.Runner.r_beta
      row.Runner.r_rounds wall
      (gc.Repro_obs.Trace.g_minor_words /. 1e6)
      (gc.Repro_obs.Trace.g_major_words /. 1e6)
      gc.Repro_obs.Trace.g_minor_collections
      gc.Repro_obs.Trace.g_major_collections row.Runner.r_ok;
    print_string (Repro_obs.Profile.render_hotspots ~top ());
    (* Pool utilization: slot 0 is the caller, the rest worker domains. *)
    let util = Repro_util.Parallel.utilization () in
    Printf.printf "pool utilization (%d domain(s)):\n"
      (Repro_util.Parallel.domains ());
    Array.iteri
      (fun i (tasks, busy) ->
        Printf.printf "  slot %d (%s): %6d tasks %10.3f s busy (%.0f%% of wall)\n"
          i
          (if i = 0 then "caller" else "worker")
          tasks busy
          (100.0 *. busy /. Float.max 1e-9 wall))
      util;
    let report =
      Json.pretty
        (Repro_obs.Profile.report_json
           ~protocol:row.Runner.r_protocol ~n ~beta ~seed ~wall_s:wall
           ~domains:(Repro_util.Parallel.domains ())
           ~gc ~top ())
    in
    (match report_out with
    | Some file ->
      let oc = open_out file in
      output_string oc report;
      close_out oc;
      Printf.printf "report written to %s\n" file
    | None -> ());
    match compare_prev with
    | None -> ()
    | Some prev_file ->
      let prev =
        let ic = open_in_bin prev_file in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      (match Runner.profile_compare ~prev ~cur:report ~threshold with
      | Error note -> Printf.printf "compare: %s\n" note
      | Ok [] ->
        Printf.printf
          "compare: deterministic metrics match %s (threshold %.3f)\n"
          prev_file threshold
      | Ok regressions ->
        Printf.printf "compare: %d deterministic regression(s) vs %s:\n"
          (List.length regressions) prev_file;
        List.iter (fun l -> Printf.printf "  %s\n" l) regressions;
        exit 1)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Self-profile one (protocol, n) cell: per-span wall/alloc hotspots, \
          cache effectiveness, scheduler occupancy and domain-pool \
          utilization; optional repro-profile/1 report and deterministic \
          regression gate (--compare).")
    Term.(
      const action $ protocol_arg $ n_arg $ beta_arg $ seed_arg
      $ profile_report_arg $ profile_compare_arg $ profile_threshold_arg
      $ profile_top_arg)

(* --- conform: E18 cross-backend conformance + async chaos gate --- *)

let conform_ns_arg =
  Arg.(
    value
    & opt (list int) [ 64; 256 ]
    & info [ "ns" ] ~docv:"N1,N2,..."
        ~doc:"Party counts for the conformance cells.")

let conform_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write the machine-readable report (schema repro-async/1, \
           byte-identical across reruns with the same arguments).")

let conform_cmd =
  let action ns beta seed gst delta jitter loss report_out =
    let conform = Runner.conformance_cells ~ns ~beta ~seed () in
    let cfg =
      {
        Repro_net.Sched.a_seed = seed;
        a_delta = delta;
        a_jitter = jitter;
        a_loss = loss;
        a_gst = gst;
      }
    in
    let cells = Runner.async_cells ~beta ~seed ~cfg () in
    Repro_util.Tablefmt.print (Runner.conformance_table conform);
    Repro_util.Tablefmt.print (Runner.async_table cells);
    List.iter
      (fun c ->
        if not c.Runner.cf_match then begin
          Printf.printf "MISMATCH: %s n=%d backends disagree:\n"
            c.Runner.cf_protocol c.Runner.cf_n;
          List.iter
            (fun (b, d) -> Printf.printf "  %-6s %s\n" b d)
            c.Runner.cf_digests
        end)
      conform;
    List.iter
      (fun a ->
        if not a.Runner.ay_ok then
          Printf.printf
            "BROKEN: %s vs %s n=%d (agreed=%b decided=%.2f valid=%b \
             post_gst_late=%d)\n"
            a.Runner.ay_protocol a.Runner.ay_strategy a.Runner.ay_n
            a.Runner.ay_agreed a.Runner.ay_decided a.Runner.ay_valid
            a.Runner.ay_post_gst_late)
      cells;
    (match report_out with
    | Some file ->
      write_json file (Runner.async_json ~conform ~cells);
      Printf.printf "report written to %s\n" file
    | None -> ());
    if Runner.async_gate_ok ~conform ~cells then
      print_endline
        "gate: one transcript per (protocol, n, seed) across backends; \
         async chaos cells agreed within the post-GST bound"
    else begin
      print_endline "gate: E18 conformance/async FAILED";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:
         "E18: run the cross-backend conformance suite (sparse and \
          zero-knob async must produce identical transcripts) and the async \
          chaos matrix (jitter/loss before GST against live adversaries); \
          non-zero exit if any backend disagrees or an async cell breaks \
          agreement/validity or the post-GST delivery bound.")
    Term.(
      const action $ conform_ns_arg $ beta_arg $ seed_arg $ gst_arg ~default:24
      $ delta_arg ~default:2 $ jitter_arg ~default:3 $ loss_arg ~default:0.1
      $ conform_report_arg)

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
      | Ok _ -> Printf.printf "%s: valid JSON\n" file
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
          [ run_cmd; audit_cmd; attack_cmd; table1_cmd; sweep_cmd; scale_cmd;
            games_cmd; boost_cmd; broadcast_cmd; attacks_cmd; breakdown_cmd;
            explain_cmd; profile_cmd; conform_cmd; validate_cmd ]))
