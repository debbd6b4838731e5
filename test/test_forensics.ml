(* Forensics layer: flight recorder vs auditor conservation, causal cones,
   equivocation evidence, transcript replay.

   The conservation property is the tap/audit contract from the recorder's
   design: the network's send choke point feeds the tap, the metrics, the
   auditor and the recorder from the same call site, so the recorder must
   observe every send in exact send order and its per-round bit totals must
   equal the auditor's [tr_sent_bits] — at zero knobs (the lock-step
   shortcut) and under chaos knobs and conditions. *)

open Repro_core
module Rng = Repro_util.Rng
module Network = Repro_net.Network
module Replay = Repro_net.Replay
module Recorder = Repro_obs.Recorder
module Audit = Repro_obs.Audit

(* ------------------------------------------------------------------ *)
(* QCheck: recorder/auditor conservation on random traffic             *)
(* ------------------------------------------------------------------ *)

let tags = [| "a"; "bb"; "ccc" |]

(* a script is n, rounds, and per-send (round, src, dst, tag idx, len) *)
type script = { sc_n : int; sc_rounds : int; sc_sends : (int * int * int * int * int) list }

let gen_script =
  QCheck.Gen.(
    int_range 4 10 >>= fun n ->
    int_range 1 5 >>= fun rounds ->
    list_size (int_range 1 40)
      (int_range 0 (rounds - 1) >>= fun r ->
       int_range 0 (n - 1) >>= fun src ->
       int_range 0 (n - 1) >>= fun dst ->
       int_range 0 (Array.length tags - 1) >>= fun tg ->
       int_range 0 16 >>= fun len -> return (r, src, dst, tg, len))
    >>= fun sends -> return { sc_n = n; sc_rounds = rounds; sc_sends = sends })

let arb_script =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "n=%d rounds=%d sends=%d" s.sc_n s.sc_rounds
        (List.length s.sc_sends))
    gen_script

let payload_of ~src ~dst ~len =
  Bytes.init len (fun k -> Char.chr (((src * 31) + (dst * 7) + (k * 13)) land 0xff))

(* The network visits handlers in ascending party order each round, and a
   party replays its scripted sends in script order — so the expected
   observation order is: rounds ascending, then src ascending, then script
   order within (round, src). *)
let expected_sends script =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (r, src, dst, tg, len) ->
      let prev = try Hashtbl.find by_key (r, src) with Not_found -> [] in
      Hashtbl.replace by_key (r, src) ((dst, tg, len) :: prev))
    script.sc_sends;
  let out = ref [] in
  for r = script.sc_rounds - 1 downto 0 do
    for src = script.sc_n - 1 downto 0 do
      match Hashtbl.find_opt by_key (r, src) with
      | None -> ()
      | Some rev ->
        (* [rev] is reverse script order; prepending while iterating it
           restores script order within the (round, src) group *)
        List.iter
          (fun (dst, tg, len) ->
            let payload = payload_of ~src ~dst ~len in
            let tag = tags.(tg) in
            out :=
              ( r, src, dst, tag,
                Recorder.digest_of_payload payload,
                8 * (String.length tag + len + 4) )
              :: !out)
          rev
    done
  done;
  !out

(* Drive the script through a fresh network with an auditor and a recorder
   both subscribed, every party acting every round; [backend] configures
   the executor and [condition] programs its delivery heap — dark
   parties skip their scripted sends. *)
let drive ?backend ?condition script =
  let audit =
    Audit.create ~label:"forensics-qcheck" ~n:script.sc_n
      ~budgets:Audit.no_budgets ()
  in
  let r = Recorder.create () in
  let net =
    Network.create ?backend
      ~sinks:[ Audit.observe audit; Recorder.observe r ]
      ~n:script.sc_n ~corrupt:[] ()
  in
  Option.iter (Network.set_condition net) condition;
  let handler i ~round ~inbox:_ =
    List.iter
      (fun (rr, src, dst, tg, len) ->
        if rr = round && src = i then
          Network.send net ~src ~dst ~tag:tags.(tg)
            (payload_of ~src ~dst ~len))
      script.sc_sends
  in
  let everyone = Network.everyone net in
  Views.run_lists net ~rounds:script.sc_rounds
    ~extra:(fun ~round:_ -> everyone)
    (fun i -> Some (handler i));
  Audit.finalize audit;
  (r, audit)

let check_conservation ?backend ?condition ?(down = fun ~round:_ _ -> false)
    script =
  let r, audit = drive ?backend ?condition script in
  (* A dark party's handler is skipped, so its scripted sends for that
     round never happen — the expectation filters them out; everything
     else must be charged exactly once, retransmit holds and deferred
     deliveries notwithstanding (sends are charged at the staging choke
     point, never on the delivery path). *)
  let script =
    {
      script with
      sc_sends =
        List.filter
          (fun (rr, src, _, _, _) -> not (down ~round:rr src))
          script.sc_sends;
    }
  in
  let observed =
    List.filter_map
      (function
        | Recorder.Send s ->
          Some (s.Recorder.s_round, s.s_src, s.s_dst, s.s_tag, s.s_digest, s.s_bits)
        | _ -> None)
      (Recorder.events r)
  in
  let expected = expected_sends script in
  if observed <> expected then
    QCheck.Test.fail_reportf "send stream mismatch: %d observed vs %d expected"
      (List.length observed) (List.length expected);
  (* per-round bit totals vs the auditor's sent-bits accounting *)
  let rec_bits = Hashtbl.create 8 in
  List.iter
    (fun (r, _, _, _, _, bits) ->
      Hashtbl.replace rec_bits r
        (bits + Option.value ~default:0 (Hashtbl.find_opt rec_bits r)))
    observed;
  List.iter
    (fun tr ->
      let mine =
        Option.value ~default:0 (Hashtbl.find_opt rec_bits tr.Audit.tr_round)
      in
      if mine <> tr.Audit.tr_sent_bits then
        QCheck.Test.fail_reportf
          "round %d: recorder saw %d bits, auditor charged %d" tr.Audit.tr_round
          mine tr.Audit.tr_sent_bits)
    (Audit.timeline audit);
  (* and every scripted round made it into the timeline *)
  List.iter
    (fun (r, _, _, _, _, _) ->
      if
        not
          (List.exists (fun tr -> tr.Audit.tr_round = r) (Audit.timeline audit))
      then QCheck.Test.fail_reportf "round %d missing from audit timeline" r)
    observed;
  true

let prop_conservation_sparse =
  QCheck.Test.make ~count:80
    ~name:"recorder: exact send order + per-round bits = audit (sparse)"
    arb_script check_conservation

(* The same conservation law on the async executor: pre-GST loss puts
   messages on the retransmit path, yet the recorder and auditor charge
   each send exactly once, at staging. *)
module Sched = Repro_net.Sched

let lossy ~seed =
  { Sched.a_seed = seed; a_delta = 2; a_jitter = 3; a_loss = 0.3; a_gst = 4 }

let prop_conservation_async_lossy =
  QCheck.Test.make ~count:60
    ~name:"recorder: exact send order + per-round bits = audit (async lossy)"
    arb_script
    (fun script ->
      check_conservation
        ~backend:(Sched.Async (lossy ~seed:(script.sc_n + 31)))
        script)

(* ... and under a condition that both defers deliveries across rounds
   (condition-induced retransmissions) and holds parties dark (their
   scripted sends never happen; mail addressed to them is re-offered every
   round until resume). Neither path may double-charge. *)
let churn_down ~round p = p mod 3 = 1 && round >= 1 && round < 3

let churn_condition =
  {
    Sched.c_name = "qcheck-churn";
    c_route =
      (fun ~now ~round:_ ~src ~dst ~lat ->
        if (src + dst + now) mod 5 = 0 then Sched.Defer (now + 3)
        else Sched.Deliver lat);
    c_down = (fun ~now:_ ~round p -> churn_down ~round p);
    c_observe = (fun ~now:_ ~round:_ ~msgs:_ ~corrupt:_ -> ());
  }

let prop_conservation_async_churn =
  QCheck.Test.make ~count:60
    ~name:"recorder: per-round bits = audit (async churn + defers)"
    arb_script
    (fun script ->
      check_conservation
        ~backend:(Sched.Async (lossy ~seed:(script.sc_n + 7)))
        ~condition:churn_condition ~down:churn_down script)

(* ------------------------------------------------------------------ *)
(* Replay round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_replay_roundtrip () =
  let row, r, corrupt =
    Runner.run_recorded ~keep_payloads:true ~protocol:Runner.This_work_owf
      ~n:24 ~beta:0.1 ~seed:3 ()
  in
  Alcotest.(check bool) "recorded run ok" true row.Runner.r_ok;
  let jsonl = Recorder.to_jsonl r in
  match Replay.events_of_jsonl jsonl with
  | Error e -> Alcotest.fail ("jsonl parse: " ^ e)
  | Ok evs ->
    let sends =
      List.length
        (List.filter (function Recorder.Send _ -> true | _ -> false) evs)
    in
    Alcotest.(check int)
      "parse preserves event count"
      (List.length (Recorder.events r))
      (List.length evs);
    (match Replay.self_check ~n:24 ~corrupt evs with
    | Error e -> Alcotest.fail ("replay self-check: " ^ e)
    | Ok k -> Alcotest.(check int) "every send replayed byte-identical" sends k)

let test_replay_detects_tamper () =
  let _row, r, corrupt =
    Runner.run_recorded ~keep_payloads:true ~protocol:Runner.Naive_boost ~n:12
      ~beta:0.0 ~seed:7 ()
  in
  match Replay.events_of_jsonl (Recorder.to_jsonl r) with
  | Error e -> Alcotest.fail ("jsonl parse: " ^ e)
  | Ok evs ->
    (* flip one byte of the first non-empty payload, keeping the recorded
       digest: the replayed capture must diverge *)
    let tampered = ref false in
    let evs =
      List.map
        (function
          | Recorder.Send s when (not !tampered) && s.Recorder.s_payload <> None
            ->
            let p = Option.get s.Recorder.s_payload in
            if String.length p = 0 then Recorder.Send s
            else begin
              tampered := true;
              let b = Bytes.of_string p in
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
              Recorder.Send { s with s_payload = Some (Bytes.to_string b) }
            end
          | ev -> ev)
        evs
    in
    Alcotest.(check bool) "found a payload to tamper with" true !tampered;
    (match Replay.self_check ~n:12 ~corrupt evs with
    | Ok _ -> Alcotest.fail "tampered transcript passed the replay check"
    | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Equivocation evidence                                               *)
(* ------------------------------------------------------------------ *)

let test_equivocation_teeth () =
  let r = Recorder.create () in
  let cell =
    Runner.run_attack_cell ~sinks:[ Recorder.observe r ] ~protocol:Runner.This_work_owf
      ~strategy_name:"equivocate" ~n:32 ~beta:0.2 ~seed:5 ~expect_fail:false ()
  in
  Alcotest.(check bool)
    "equivocate is flagged by name" true
    (Runner.strategy_equivocates cell.Runner.ac_strategy);
  let bundles = Recorder.conflicts ~corrupt_only:true r in
  Alcotest.(check bool)
    "planted equivocation yields evidence" true (bundles <> []);
  List.iter
    (fun ev ->
      Alcotest.(check bool) "source is corrupt" true ev.Recorder.ev_src_corrupt;
      Alcotest.(check bool)
        ">= 2 distinct variants" true
        (List.length ev.Recorder.ev_variants >= 2);
      Alcotest.(check bool)
        "bundle verifies against the log" true (Recorder.verify_evidence r ev))
    bundles

let test_honest_fanout_not_evidence () =
  (* beta = 0: per-recipient fan-out (e.g. Shamir shares) produces raw
     conflicts, but none are accountable — the corrupt_only extractor must
     stay empty *)
  let _row, r, _corrupt =
    Runner.run_recorded ~protocol:Runner.This_work_owf ~n:24 ~beta:0.0 ~seed:11
      ()
  in
  Alcotest.(check int)
    "no accountable evidence without corruption" 0
    (List.length (Recorder.conflicts ~corrupt_only:true r))

(* ------------------------------------------------------------------ *)
(* Causal cones vs the locality budget                                 *)
(* ------------------------------------------------------------------ *)

let test_cones_within_budget_owf () =
  let _row, r, _corrupt =
    Runner.run_recorded ~protocol:Runner.This_work_owf ~n:32 ~beta:0.1 ~seed:2
      ()
  in
  let rep =
    Runner.explain_cones ~protocol:Runner.This_work_owf ~n:32 ~beta:0.1 ~seed:2
      r
  in
  Alcotest.(check bool)
    "every decider has a cone" true
    (List.length rep.Runner.ex_cones > 16);
  Alcotest.(check bool) "budget is declared" true (rep.Runner.ex_budget <> None);
  Alcotest.(check int) "0 over-budget slices" 0 rep.Runner.ex_violations;
  List.iter
    (fun (c, _) ->
      Alcotest.(check bool) "cone is non-empty" true (c.Recorder.cone_events > 0))
    rep.Runner.ex_cones

let test_naive_cone_blows_budget () =
  let _row, r, _corrupt =
    Runner.run_recorded ~protocol:Runner.Naive_boost ~n:32 ~beta:0.1 ~seed:2 ()
  in
  let rep =
    Runner.explain_cones ~protocol:Runner.Naive_boost ~n:32 ~beta:0.1 ~seed:2 r
  in
  Alcotest.(check bool)
    "flooding cone is Theta(n)" true
    (List.exists
       (fun (c, _) -> c.Recorder.cone_max_round_size > 16)
       rep.Runner.ex_cones);
  Alcotest.(check bool)
    "and blows the polylog budget" true
    (rep.Runner.ex_violations > 0)

(* ------------------------------------------------------------------ *)
(* Determinism: logs byte-identical across reruns                      *)
(* ------------------------------------------------------------------ *)

let test_log_rerun_identical () =
  let capture () =
    let _row, r, _ =
      Runner.run_recorded ~protocol:Runner.This_work_snark ~n:24 ~beta:0.1
        ~seed:4 ()
    in
    Recorder.to_jsonl r
  in
  let a = capture () and b = capture () in
  Alcotest.(check bool) "log is non-trivial" true (String.length a > 1000);
  Alcotest.(check bool) "rerun log byte-identical" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* A truncated log is flagged in text and reports                      *)
(* ------------------------------------------------------------------ *)

let test_dropped_count_surfaced () =
  let ex =
    {
      Runner.ex_protocol = "this-work-owf"; ex_n = 32; ex_beta = 0.1; ex_seed = 2;
      ex_budget = Some 40.0; ex_cones = []; ex_violations = 0; ex_dropped = 7;
    }
  in
  let bundle dropped =
    {
      Runner.fb_protocol = "this-work-owf"; fb_strategy = "equivocate";
      fb_condition = "none"; fb_beta = 0.125; fb_seed = 1; fb_cell_ok = true;
      fb_expect_fail = false; fb_evidence = []; fb_dropped = dropped;
    }
  in
  let module Json = Repro_util.Json in
  let int_member k j = Option.bind (Json.member k j) Json.to_int in
  let explain = Json.parse_exn (Json.pretty (Runner.explain_json ex)) in
  Alcotest.(check (option string))
    "schema bumped" (Some Runner.forensics_schema)
    (Option.bind (Json.member "schema" explain) Json.to_string);
  Alcotest.(check (option int)) "explain: dropped" (Some 7) (int_member "dropped" explain);
  let attack =
    Json.parse_exn (Json.pretty (Runner.attack_forensics_json ~n:32 [ bundle 0; bundle 3 ]))
  in
  Alcotest.(check (list (option int)))
    "attack: dropped per bundle" [ Some 0; Some 3 ]
    (List.map (int_member "dropped")
       (Option.get (Option.bind (Json.member "bundles" attack) Json.to_list)));
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "validate: explain" true (ok (Runner.check_forensics_report explain));
  Alcotest.(check bool) "validate: attack" true (ok (Runner.check_forensics_report attack));
  let without_dropped =
    match explain with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "dropped") kvs)
    | j -> j
  in
  Alcotest.(check bool) "validate: missing count rejected" false
    (ok (Runner.check_forensics_report without_dropped));
  Alcotest.(check bool) "validate: /1 rejected" false
    (ok
       (Runner.check_forensics_report
          (Json.Obj [ ("schema", Json.Str "repro-forensics/1"); ("kind", Json.Str "explain") ])));
  Alcotest.(check (list string)) "no note at 0" [] (Runner.dropped_note ~what:"the cones" 0);
  match Runner.dropped_note ~what:"the cones" 7 with
  | [ line ] ->
    let has sub =
      let ls = String.length line and lsub = String.length sub in
      let rec go i = i + lsub <= ls && (String.sub line i lsub = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("note names the count: " ^ line) true (has "7 oldest");
    Alcotest.(check bool) ("note says lower bound: " ^ line) true (has "lower bound")
  | l -> Alcotest.failf "expected one note line, got %d" (List.length l)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conservation_sparse;
    QCheck_alcotest.to_alcotest prop_conservation_async_lossy;
    QCheck_alcotest.to_alcotest prop_conservation_async_churn;
    Alcotest.test_case "replay: round-trip byte-identical" `Quick
      test_replay_roundtrip;
    Alcotest.test_case "replay: tampering detected" `Quick
      test_replay_detects_tamper;
    Alcotest.test_case "evidence: equivocate strategy convicted" `Quick
      test_equivocation_teeth;
    Alcotest.test_case "evidence: honest fan-out not accountable" `Quick
      test_honest_fanout_not_evidence;
    Alcotest.test_case "cones: owf within locality budget" `Quick
      test_cones_within_budget_owf;
    Alcotest.test_case "cones: naive flooding blows budget" `Quick
      test_naive_cone_blows_budget;
    Alcotest.test_case "determinism: rerun log byte-identical" `Quick
      test_log_rerun_identical;
    Alcotest.test_case "dropped events flagged in text and reports" `Quick
      test_dropped_count_surfaced;
  ]
