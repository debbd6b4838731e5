(* Golden-transcript regression tests.

   One (seed, n, beta) cell of the full Fig. 3 pipeline is executed for each
   SRDS scheme and the complete message trace — every send of every network
   round, in send order, including tags and payload bytes — is hashed
   through the per-instance transcript tap ({!Repro_core.Runner.run_digest}).
   The n = 40 digests were recorded on an earlier stepper that visited
   every party's handler every round, and the n = 64/256 ones on that
   stepper, the active-set one and the async executor alike. Both of the
   executor's zero-knob paths — the lock-step shortcut and the general
   (time, seq) path, forced by attaching {!Repro_net.Sched.pass_condition}
   — must reproduce them byte-for-byte. Any drift in scheduling order,
   message content, RNG consumption, or round structure changes the
   digest.

   If a deliberate protocol change invalidates a digest, re-record it by
   running the test and copying the printed actual value — and say so in the
   commit message; an unexplained mismatch is a determinism regression. *)

module Sched = Repro_net.Sched
module Runner = Repro_core.Runner

let cell_n = 40
let cell_beta = 0.1
let cell_seed = 1

(* Recorded on the every-party stepper; both paths must match. *)
let golden_owf = "03628b1b31b70ef318c4f2e35603afb09c5827bb1cbcf64753ee0a6d68267ce5"
let golden_snark = "f8b5b2b4349d0844c7c8aa2b4f03542a09724d3018f658e8d92dc9db92f2b670"

(* The other four rows of Table 1 at the same cell: the multisig pipeline
   and the three baselines, each on its own network. Recorded before the
   runner built every cell's network in one place, so they pin that the
   protocols run the same on a network they are handed. *)
let golden_rows =
  [
    (Runner.Multisig_boost,
     "0ac0d6900a8a23238fdbe35895f42a86e48a2f55715f1ed93fe9dda1a066a0dc");
    (Runner.Sqrt_boost,
     "94be713b95fbda52e5fa07ff935ecb82780ae9ed8c1bf7b699909194d592ed69");
    (Runner.Naive_boost,
     "069c42aa3dbf866423f7b162588639152eb09c9a1f5402ca6f9ab69e8cd84730");
    (Runner.Dolev_strong,
     "2ebeca449b5cbf4153c63cbb99cc84eea8ad73094d3aea377ee41cf2518c6bb1");
  ]

(* The executor's two zero-knob paths, by the condition that selects
   them. *)
let paths = [ ("shortcut", None); ("general", Some Sched.pass_condition) ]

let transcript_digest ?condition ~protocol () =
  let row, digest =
    Runner.run_digest ?condition ~protocol ~n:cell_n ~beta:cell_beta
      ~seed:cell_seed ()
  in
  Alcotest.(check bool)
    (Runner.protocol_name protocol ^ " cell reached agreement")
    true row.Runner.r_ok;
  digest

let check_digest name protocol golden () =
  List.iter
    (fun (path, condition) ->
      let actual = transcript_digest ?condition ~protocol () in
      if actual <> golden then
        Alcotest.failf
          "%s transcript digest on the %s path drifted from the \
           pinned recording\n\
          \  pinned:  %s\n\
          \  actual:  %s\n\
           (message order, content, or RNG consumption changed)"
          name path golden actual)
    paths

(* The digest must also be insensitive to the domain-pool size: rerunning
   the same cell twice in-process (caches warm vs cold) must match too. *)
let test_rerun_stable () =
  let a = transcript_digest ~protocol:Runner.This_work_owf () in
  let b = transcript_digest ~protocol:Runner.This_work_owf () in
  Alcotest.(check string) "same in-process rerun digest" a b

(* Conformance rows at larger n: the lock-step shortcut and the general
   path must agree on the digest and on the full measured row behind it,
   and the digest must equal the pin. These values were
   identical on three executors when recorded (the every-party stepper,
   the active-set one and the async one at zero knobs), so the pins keep
   the every-party stepper's reference role now that only the active-set
   stepper remains. *)
let golden_conform =
  [
    ((Runner.This_work_owf, 64),
     "dc86589be5e83e47e59acef0c03cf5b25b9404d302148b648938a64d57ece7d3");
    ((Runner.This_work_snark, 64),
     "c4ca00e8c6564e3b20898154fa78cda35ae3d2d469892e126a3a01cc8b5b4a02");
    ((Runner.This_work_owf, 256),
     "b1519f461b831e9397d192158461098b9f6c3123db68f7be7e7517fcb6123702");
    ((Runner.This_work_snark, 256),
     "c31d45c474f57b9485abf12ea965b320e36c69fd3240b1c77c4bebde3e8d2342");
  ]

let check_conform protocol n () =
  let c =
    Runner.conformance_cell ~protocol ~n ~beta:cell_beta ~seed:cell_seed
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s n=%d rows ok on both paths" c.Runner.cf_protocol n)
    true c.Runner.cf_rows_ok;
  if not c.Runner.cf_match then
    Alcotest.failf "%s n=%d paths disagree:\n%s" c.Runner.cf_protocol n
      (String.concat "\n"
         (List.map
            (fun (path, d) -> Printf.sprintf "  %-8s %s" path d)
            c.Runner.cf_digests));
  let golden = List.assoc (protocol, n) golden_conform in
  List.iter
    (fun (b, d) ->
      Alcotest.(check string)
        (Printf.sprintf "%s n=%d digest pinned (%s)" c.Runner.cf_protocol n b)
        golden d)
    c.Runner.cf_digests

(* Observers only watch: the same four n = 40 cells with an auditor and a
   payload-keeping flight recorder subscribed next to the tap must leave
   the transcript and every measured figure of the row untouched. *)
let test_observers_neutral () =
  List.iter
    (fun (protocol, golden) ->
      List.iter
        (fun (path, condition) ->
          let label =
            Printf.sprintf "%s on the %s path" (Runner.protocol_name protocol) path
          in
          let row, digest =
            Runner.run_digest ?condition ~protocol ~n:cell_n ~beta:cell_beta
              ~seed:cell_seed ()
          in
          let tap, observed_digest = Runner.digest_sink () in
          let audit = Runner.make_auditor ~protocol ~n:cell_n in
          let recorder = Repro_obs.Recorder.create ~keep_payloads:true () in
          let observed_row =
            Runner.run_with ?condition
              ~sinks:
                [ tap; Repro_obs.Audit.observe audit; Repro_obs.Recorder.observe recorder ]
              ~protocol ~n:cell_n ~beta:cell_beta ~seed:cell_seed ()
          in
          Alcotest.(check string) (label ^ ": tap-only digest pinned") golden digest;
          Alcotest.(check string)
            (label ^ ": observed digest pinned") golden (observed_digest ());
          Alcotest.(check bool) (label ^ ": rows identical") true (row = observed_row);
          Alcotest.(check bool)
            (label ^ ": the observers saw the run") true
            (Repro_obs.Audit.rounds_seen audit = row.Runner.r_rounds
            && Repro_obs.Recorder.total_events recorder > 0))
        paths)
    [ (Runner.This_work_owf, golden_owf); (Runner.This_work_snark, golden_snark) ]

(* Audit pins: the auditor's per-round timeline and its summary text,
   hashed together, for every Table-1 protocol at the n = 40 cell against
   its declared budgets, and for two condition cells — adaptive (mid-run
   upgrades) and churn (dark parties whose mail is held) — so any change
   to how bits, peers, corrupt parties or round boundaries are accounted
   shows up here. Re-record only on purpose, as for the transcript
   digests. *)
let audit_digest audit =
  let text =
    Repro_obs.Audit.timeline_jsonl audit
    ^ Format.asprintf "%a" Repro_obs.Audit.pp_summary audit
  in
  Repro_crypto.Sha256.(hex (digest_string text))

let golden_audit_rows =
  [
    (Runner.This_work_owf,
     "8f57208b8e9f5306026f072092fa1c8ad8d9e9f240fe688b0b1491c64de2a1c7");
    (Runner.This_work_snark,
     "e9f380c1d4941e462c90f8fe8a7fe7a37369bd7676ec596f0585b8fc694a1fdd");
    (Runner.Multisig_boost,
     "3071612bdcb95eb3cbbde97311ead30b7a533a5155e6f0eef91c169789b12eea");
    (Runner.Sqrt_boost,
     "ad6467e2f2f95012d3393aca4f749b228a95ed2f519396d721d98c4409665f21");
    (Runner.Naive_boost,
     "09c7299c83f6513756578fabb2858b26ad31d222be2c94fec9f721b810a17cba");
    (Runner.Dolev_strong,
     "3e986ca417ad944cab168ea0dbc59bd1ea1dc5bcbd7237d6127504090393430b");
  ]

let golden_audit_conditions =
  [
    ("adaptive", "b9241782fe032b5a3d962a41fe3f864e2f7afb925aa36255e64b3ccc9aab0f8b");
    ("churn", "067a34c4a1bc93a9823f5b4156177ce2c73980175b7ff87bb49b0fbe21c0d0d2");
  ]

(* Every cell runs before the check fails, so one run names every drifted
   pin with its actual value. *)
let check_audit_pins cells =
  let drifted =
    List.filter_map
      (fun (label, golden, run) ->
        let actual = audit_digest (run ()) in
        if actual = golden then None
        else Some (Printf.sprintf "  %s\n    pinned:  %s\n    actual:  %s" label golden actual))
      cells
  in
  if drifted <> [] then
    Alcotest.failf "audit digests drifted from the pinned recording:\n%s"
      (String.concat "\n" drifted)

let test_audit_rows_pinned () =
  check_audit_pins
  @@ List.map
    (fun (protocol, golden) ->
      ( Runner.protocol_name protocol, golden,
        fun () ->
          snd (Runner.run_audited ~protocol ~n:cell_n ~beta:cell_beta ~seed:cell_seed ()) ))
    golden_audit_rows

let test_audit_conditions_pinned () =
  check_audit_pins
  @@ List.map
    (fun (condition_name, golden) ->
      ( "owf under " ^ condition_name, golden,
        fun () ->
          let protocol = Runner.This_work_owf in
          let audit = Runner.make_auditor ~protocol ~n:cell_n in
          let (_ : Runner.attack_cell) =
            Runner.run_attack_cell
              ~sinks:[ Repro_obs.Audit.observe audit ]
              ~condition_name ~protocol ~strategy_name:"silent" ~n:cell_n
              ~beta:0.2 ~seed:2 ~expect_fail:false ()
          in
          Repro_obs.Audit.finalize audit;
          audit ))
    golden_audit_conditions

let suite =
  [
    Alcotest.test_case "owf transcript digest pinned (all backends)" `Quick
      (check_digest "this-work-owf" Runner.This_work_owf golden_owf);
    Alcotest.test_case "snark transcript digest pinned (all backends)" `Quick
      (check_digest "this-work-snark" Runner.This_work_snark golden_snark);
  ]
  @ List.map
      (fun (protocol, golden) ->
        let name = Runner.protocol_name protocol in
        Alcotest.test_case
          (name ^ " transcript digest pinned (all backends)")
          `Quick (check_digest name protocol golden))
      golden_rows
  @ [
    Alcotest.test_case "owf transcript rerun-stable" `Quick test_rerun_stable;
    Alcotest.test_case "auditor and recorder leave transcripts and rows alone"
      `Quick test_observers_neutral;
    Alcotest.test_case "n=40 audit timelines and summaries pinned" `Quick
      test_audit_rows_pinned;
    Alcotest.test_case "adaptive and churn audit timelines pinned" `Quick
      test_audit_conditions_pinned;
    Alcotest.test_case "owf n=64 cross-backend conformance" `Quick
      (check_conform Runner.This_work_owf 64);
    Alcotest.test_case "snark n=64 cross-backend conformance" `Quick
      (check_conform Runner.This_work_snark 64);
    Alcotest.test_case "owf n=256 cross-backend conformance" `Quick
      (check_conform Runner.This_work_owf 256);
    Alcotest.test_case "snark n=256 cross-backend conformance" `Quick
      (check_conform Runner.This_work_snark 256);
  ]
