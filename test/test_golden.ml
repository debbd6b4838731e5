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

let suite =
  [
    Alcotest.test_case "owf transcript digest pinned (all backends)" `Quick
      (check_digest "this-work-owf" Runner.This_work_owf golden_owf);
    Alcotest.test_case "snark transcript digest pinned (all backends)" `Quick
      (check_digest "this-work-snark" Runner.This_work_snark golden_snark);
    Alcotest.test_case "owf transcript rerun-stable" `Quick test_rerun_stable;
    Alcotest.test_case "auditor and recorder leave transcripts and rows alone"
      `Quick test_observers_neutral;
    Alcotest.test_case "owf n=64 cross-backend conformance" `Quick
      (check_conform Runner.This_work_owf 64);
    Alcotest.test_case "snark n=64 cross-backend conformance" `Quick
      (check_conform Runner.This_work_snark 64);
    Alcotest.test_case "owf n=256 cross-backend conformance" `Quick
      (check_conform Runner.This_work_owf 256);
    Alcotest.test_case "snark n=256 cross-backend conformance" `Quick
      (check_conform Runner.This_work_snark 256);
  ]
