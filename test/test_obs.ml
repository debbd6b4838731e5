(* Tests for the observability subsystem: the counter/histogram registry,
   trace spans, Chrome trace-event export, and the pool-size-independence
   contract of deterministic counters. *)

open Repro_core
module Counters = Repro_obs.Counters
module Trace = Repro_obs.Trace
module Audit = Repro_obs.Audit
module Event = Repro_obs.Event
module Parallel = Repro_util.Parallel
module Json = Repro_util.Json

(* --- minimal JSON well-formedness checker ---------------------------------

   The repo has no JSON dependency, so its one writer is checked against
   this small recursive-descent recognizer, written independently of
   [Repro_util.Json]: objects, arrays, strings with escapes, numbers,
   literals. Returns true iff the whole input is exactly one JSON value. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then incr pos else fail := true
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail := true);
    skip_ws ()
  and literal w =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then pos := !pos + String.length w
    else fail := true
  and string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' -> incr pos; fin := true
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
        | Some 'u' ->
          incr pos;
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
            | _ -> fail := true)
          done
        | _ -> fail := true)
      | Some _ -> incr pos
    done
  and number () =
    if peek () = Some '-' then incr pos;
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        incr pos
      done;
      if not !saw then fail := true
    in
    digits ();
    if peek () = Some '.' then (incr pos; digits ());
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ())
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let fin = ref false in
      while (not !fin) && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' -> incr pos; fin := true
        | _ -> fail := true
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let fin = ref false in
      while (not !fin) && not !fail do
        value ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' -> incr pos; fin := true
        | _ -> fail := true
      done
    end
  in
  value ();
  (not !fail) && !pos = n

(* --- the writer against the reader and the recognizer above ------------- *)

let gen_json_string =
  let open QCheck.Gen in
  let special =
    oneofl
      ([ '"'; '\\'; '\x7f'; '\xc3'; '\xa9'; '\xff' ]
      @ List.init 0x20 Char.chr)
  in
  string_size ~gen:(frequency [ (1, char); (1, special) ]) (int_bound 8)

let gen_json_float =
  let open QCheck.Gen in
  oneof
    [
      map (fun k -> float_of_int k) (int_range (-1000) 1000);
      map (fun k -> 1e15 +. float_of_int k) (int_range (-3) 3);
      map (fun k -> -1e15 +. float_of_int k) (int_range (-3) 3);
      map (fun k -> float_of_int k *. 5e-324) (int_range 1 1000);
      map (fun k -> float_of_int k /. 1000.) (int_range (-100000) 100000);
      oneofl [ -0.; Float.min_float; Float.max_float; 0.1; 1. /. 3. ];
      map (fun f -> if Float.is_finite f then f else 0.) float;
    ]

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) gen_json_float;
        map (fun s -> Json.Str s) gen_json_string;
      ]
  in
  let rec go depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (2, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (go (depth - 1))));
          ( 1,
            map (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair gen_json_string (go (depth - 1)))) );
        ]
  in
  go 4

let prop_writer_roundtrip =
  QCheck.Test.make ~name:"json writer round-trips" ~count:500
    (QCheck.make ~print:Json.compact gen_json)
    (fun v ->
      List.for_all
        (fun s -> Json.parse s = Ok v && json_well_formed s)
        [ Json.compact v; Json.pretty v ])

let test_writer_rejects_non_finite () =
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          match Json.compact v with
          | _ -> Alcotest.fail "non-finite number printed"
          | exception Invalid_argument _ -> (
            match Json.pretty v with
            | _ -> Alcotest.fail "non-finite number printed"
            | exception Invalid_argument _ -> ()))
        [ Json.Num f; Json.List [ Json.Num f ]; Json.Obj [ ("x", Json.Num f) ] ])
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_checker_sanity () =
  List.iter
    (fun (s, ok) ->
      Alcotest.(check bool) s ok (json_well_formed s))
    [
      ("{}", true);
      ("[]", true);
      ("{\"a\":1,\"b\":[1,2.5,-3e2]}", true);
      ("{\"s\":\"q\\\"uo\\u00e9te\"}", true);
      ("{\"a\":1,}", false);
      ("{\"a\"}", false);
      ("[1", false);
      ("{} extra", false);
    ]

(* --- counters --- *)

let test_counter_basics () =
  let was = Counters.is_enabled () in
  Counters.disable ();
  let c = Counters.make "test.obs.basic" in
  Counters.reset ();
  Counters.bump c;
  Alcotest.(check int) "disabled bump is a no-op" 0 (Counters.value c);
  Counters.enable ();
  Counters.bump c;
  Counters.bump c;
  Counters.add c 5;
  Alcotest.(check int) "enabled bumps count" 7 (Counters.value c);
  (* registering the same name again returns the same cell *)
  let c' = Counters.make "test.obs.basic" in
  Counters.bump c';
  Alcotest.(check int) "make is idempotent" 8 (Counters.value c);
  Counters.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Counters.value c);
  if not was then Counters.disable ()

let test_snapshot_shape () =
  let was = Counters.is_enabled () in
  Counters.enable ();
  Counters.reset ();
  let c = Counters.make "test.obs.snap" in
  Counters.bump c;
  let snap = Counters.snapshot () in
  let names = List.map fst snap in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
  Alcotest.(check bool) "bumped counter present" true
    (List.assoc_opt "test.obs.snap" snap = Some 1);
  (* zero-valued counters stay in the snapshot: key set is run-independent *)
  Alcotest.(check bool) "zero counters included" true
    (List.exists (fun (_, v) -> v = 0) snap);
  Alcotest.(check bool) "snapshot json well-formed" true
    (json_well_formed (Json.compact (Json.of_counts snap)));
  (* one kind of counter: physical compressions and memo hits are in the
     snapshot like every other counter *)
  Alcotest.(check bool) "compress and memo counters included" true
    (List.mem_assoc "sha256.compress" snap && List.mem_assoc "wots.cache_hit" snap);
  Counters.reset ();
  if not was then Counters.disable ()

let test_histogram () =
  let was = Counters.is_enabled () in
  Counters.enable ();
  Counters.reset ();
  let h = Counters.histogram "test.obs.hist" in
  List.iter (Counters.observe h) [ 1; 1; 3; 1000 ];
  let count, sum, buckets =
    List.assoc "test.obs.hist" (Counters.histogram_snapshot ())
  in
  Alcotest.(check int) "count" 4 count;
  Alcotest.(check int) "sum" 1005 sum;
  Alcotest.(check int) "bucket 0 (v<=1)" 2 buckets.(0);
  Alcotest.(check int) "bucket 1 (2..3)" 1 buckets.(1);
  Alcotest.(check int) "bucket 9 (512..1023)" 1 buckets.(9);
  Counters.reset ();
  if not was then Counters.disable ()

(* [observe_n h v k] is k calls of [observe h v], for any bucket, and
   k = 0 (or a disabled registry) changes nothing. *)
let test_histogram_observe_n () =
  let was = Counters.is_enabled () in
  Counters.enable ();
  let h = Counters.histogram "test.obs.hist_n" in
  let snap () = List.assoc "test.obs.hist_n" (Counters.histogram_snapshot ()) in
  let calls = [ (1, 3); (0, 2); (7, 0); (1000, 5); (3, 1); (1 lsl 40, 4); (-2, 2) ] in
  Counters.reset ();
  List.iter (fun (v, k) -> for _ = 1 to k do Counters.observe h v done) calls;
  let looped = snap () in
  Counters.reset ();
  List.iter (fun (v, k) -> Counters.observe_n h v k) calls;
  Alcotest.(check bool) "observe_n = observe loop" true (snap () = looped);
  Counters.observe_n h 5 0;
  Alcotest.(check bool) "k = 0 is a no-op" true (snap () = looped);
  Counters.disable ();
  Counters.observe_n h 5 3;
  Counters.enable ();
  Alcotest.(check bool) "disabled: no-op" true (snap () = looped);
  Counters.reset ();
  if not was then Counters.disable ()

(* A cell's counters are a function of the cell alone, not of what its
   domain ran before: every Runner cell starts from a cold [Wots.verify]
   memo. A warm memo would skip the counted [hashx.hash] and
   [sha256.compress] of a signature already verified by an earlier cell
   (the Dolev–Strong cells share their signers' keys across n). *)
let test_cell_counters_history_free () =
  let was = Counters.is_enabled () in
  Counters.enable ();
  let counted n =
    Counters.reset ();
    ignore (Runner.run_with ~protocol:Runner.Dolev_strong ~n ~beta:0.1 ~seed:1 ());
    List.filter (fun (_, v) -> v <> 0) (Counters.snapshot ())
  in
  let first = counted 24 in
  ignore (counted 32);
  let again = counted 24 in
  Counters.reset ();
  if not was then Counters.disable ();
  Alcotest.(check bool) "the cell verified signatures" true
    (List.mem_assoc "wots.verify" first);
  Alcotest.(check (list (pair string int)))
    "same counters after a different cell" first again

(* --- trace spans --- *)

let test_span_nesting () =
  Trace.set_enabled true;
  Trace.reset ();
  let r =
    Trace.span ~cat:"t" "outer" (fun () ->
        Trace.span ~cat:"t" ~args:[ ("k", "v") ] "inner" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "thunk result returned" 42 r;
  let evs = Trace.events () in
  Alcotest.(check int) "two events" 2 (List.length evs);
  let inner = List.find (fun e -> e.Trace.e_name = "inner") evs in
  let outer = List.find (fun e -> e.Trace.e_name = "outer") evs in
  Alcotest.(check (list string)) "inner path" [ "outer"; "inner" ]
    inner.Trace.e_path;
  Alcotest.(check (list string)) "outer path" [ "outer" ] outer.Trace.e_path;
  Alcotest.(check bool) "inner nested in time" true
    (inner.Trace.e_ts >= outer.Trace.e_ts
    && inner.Trace.e_dur <= outer.Trace.e_dur);
  Alcotest.(check bool) "args recorded" true
    (inner.Trace.e_args = [ ("k", "v") ]);
  (* events are recorded even when the thunk raises *)
  (try Trace.span "raises" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "span recorded on exception" true
    (List.exists (fun e -> e.Trace.e_name = "raises") (Trace.events ()));
  Trace.reset ();
  Trace.set_enabled false;
  Trace.span "off" (fun () -> ());
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Trace.events ()))

(* The flame summary lists each nesting path once, with its exact call
   count, children indented under their parent. *)
let test_flame_summary_counts () =
  Trace.set_enabled true;
  Trace.reset ();
  for _ = 1 to 2 do
    Trace.span "root" (fun () ->
        for _ = 1 to 3 do
          Trace.span "leaf" (fun () -> ())
        done;
        Trace.span "mid" (fun () -> Trace.span "leaf" (fun () -> ())))
  done;
  Trace.span "solo" (fun () -> ());
  let lines =
    Repro_obs.Profile.flame_summary ()
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.tl
    |> List.map (fun l ->
           Scanf.sscanf l "%[ ]%s %dx" (fun indent name count ->
               (String.length indent / 2, name, count)))
  in
  Trace.reset ();
  Trace.set_enabled false;
  let sorted = List.sort compare lines in
  Alcotest.(check (list (triple int string int)))
    "(depth, name, count) once per path"
    [ (0, "root", 2); (0, "solo", 1); (1, "leaf", 6); (1, "mid", 2); (2, "leaf", 2) ]
    sorted;
  (* Children are grouped under their parent; sibling order depends on
     wall time, so only the grouping is checked. *)
  let solo = (0, "solo", 1) in
  Alcotest.(check bool) "a root sibling is not inside another subtree" true
    (List.hd lines = solo || List.nth lines (List.length lines - 1) = solo);
  let rest = List.filter (( <> ) solo) lines in
  Alcotest.(check bool) "a parent precedes its subtree" true
    (List.hd rest = (0, "root", 2));
  let rec leaf_under_mid = function
    | (1, "mid", _) :: (2, "leaf", _) :: _ -> true
    | _ :: more -> leaf_under_mid more
    | [] -> false
  in
  Alcotest.(check bool) "a child follows its parent" true (leaf_under_mid rest)

let test_chrome_json () =
  Trace.set_enabled true;
  Trace.reset ();
  Trace.span ~cat:"t" ~args:[ ("q", "a\"b\\c") ] "sp\"an" (fun () -> ());
  Trace.mark ~cat:"t" "instant";
  let json = Trace.to_chrome_json (Trace.events ()) in
  Alcotest.(check bool) "well-formed" true (json_well_formed json);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has a complete event" true
    (contains {|"ph":"X"|} json);
  Trace.reset ();
  Trace.set_enabled false

(* --- determinism across pool sizes ---------------------------------------

   The acceptance contract: every counter is a function of the logical
   work only, identical for any REPRO_DOMAINS. We run the same SRDS keygen
   fan-out on a 1-domain and a 4-domain pool and compare the full
   snapshots, [sha256.compress] included, byte for byte. *)
let test_counters_pool_independent () =
  let was_enabled = Counters.is_enabled () in
  let saved = Parallel.domains () in
  Counters.enable ();
  let module B = Srds_intf.Batch (Srds_owf) in
  let run_with domains =
    Parallel.set_domains domains;
    Counters.reset ();
    let rng = Repro_util.Rng.create 42 in
    let pp, master = Srds_owf.setup rng ~n:48 in
    let pairs = B.keygen_all pp master rng ~count:48 in
    let sks = Array.map snd pairs in
    ignore (B.sign_all pp sks ~msg:(Bytes.of_string "det"));
    Json.compact (Json.of_counts (Counters.snapshot ()))
  in
  let one = run_with 1 in
  let four = run_with 4 in
  Parallel.set_domains saved;
  Counters.reset ();
  if not was_enabled then Counters.disable ();
  Alcotest.(check string) "counters pool-independent" one four;
  Alcotest.(check bool) "something was counted" true (one <> "{}")

(* --- end-to-end: a full BA run emits the expected span tree --- *)

let test_ba_emits_phase_spans () =
  Trace.set_enabled true;
  Trace.reset ();
  let row = Runner.run ~protocol:Runner.This_work_owf ~n:64 ~beta:0.08 ~seed:3 () in
  Alcotest.(check bool) "ba succeeded" true row.Runner.r_ok;
  let names = List.map (fun e -> e.Trace.e_name) (Trace.events ()) in
  let has prefix =
    List.exists
      (fun nm ->
        String.length nm >= String.length prefix
        && String.sub nm 0 (String.length prefix) = prefix)
      names
  in
  List.iter
    (fun p -> Alcotest.(check bool) ("span " ^ p) true (has p))
    [
      "A: keygen"; "B: election"; "E: sign+send"; "srds.keygen_all";
      "srds.aggregate"; "engine:"; "net.round"; "election.run"; "aecomm:";
    ];
  let json = Trace.to_chrome_json (Trace.events ()) in
  Alcotest.(check bool) "full trace well-formed" true (json_well_formed json);
  Trace.reset ();
  Trace.set_enabled false

(* --- complexity auditor ---------------------------------------------------

   Unit-level: hand-driven traffic against tight flat budgets, so every
   violation, timeline field and aggregate is predictable exactly.
   End-to-end: the Table-1 protocols against their declared budgets — the
   acceptance contract is that both this-work instantiations stay within
   budget at n = 64 while naive flooding demonstrably does not. *)

let flat c = Audit.curve ~c ~log_exp:0 ~kappa_exp:0

let tight_budgets =
  {
    Audit.round_bits = Some (flat 1.0);
    round_locality = Some (flat 1.0);
    total_bits = Some (flat 2.0);
  }

let test_audit_curve_eval () =
  let cv = Audit.curve ~c:2.0 ~log_exp:3 ~kappa_exp:1 in
  Alcotest.(check (float 1e-9)) "2*log^3*k at n=64" 55296.0
    (Audit.eval cv ~n:64 ~kappa:128);
  Alcotest.(check (float 1e-9)) "log clamped to 2 at n=2" 2048.0
    (Audit.eval cv ~n:2 ~kappa:128);
  Alcotest.(check (float 1e-9)) "ceil(log2 3) = 2" 2048.0
    (Audit.eval cv ~n:3 ~kappa:128);
  Alcotest.(check (float 1e-9)) "n=1024 gives log=10" 256000.0
    (Audit.eval cv ~n:1024 ~kappa:128);
  Alcotest.(check (float 1e-9)) "kappa exponent" 16384.0
    (Audit.eval (Audit.curve ~c:1.0 ~log_exp:0 ~kappa_exp:2) ~n:64 ~kappa:128)

(* The hand-fed round of both unit tests: party 0 sends 8 bits to each of
   1 and 2, party 1 receives one, and round 0 closes with that summary. *)
let feed_unit_round a =
  let charge party bits peers : Event.charge =
    { party; round_bits = bits; round_peers = peers; total_bits = bits; total_peers = peers }
  in
  Audit.observe a
    (Round_end
       { round = 0; scheduled = 1; sent_bits = 16; charged = [| charge 0 16 2; charge 1 8 1 |] })

let test_audit_accounting () =
  let a = Audit.create ~label:"unit" ~n:4 ~budgets:tight_budgets () in
  let enter name = Audit.observe a (Phase_enter { round = 0; name }) in
  enter "ph";
  Alcotest.(check string) "phase path" "ph" (Audit.current_phase a);
  enter "inner";
  Alcotest.(check string) "nested path joins" "ph>inner" (Audit.current_phase a);
  Audit.observe a Phase_exit;
  Alcotest.(check string) "phase restored" "ph" (Audit.current_phase a);
  feed_unit_round a;
  Audit.observe a Phase_exit;
  Alcotest.(check string) "phase closed" "" (Audit.current_phase a);
  Audit.finalize a;
  Audit.finalize a;
  (* budgets are 1 bit/round, 1 peer/round, 2 bits total: party 0 breaks
     all three, party 1 breaks round-bits and total-bits. *)
  Alcotest.(check int) "five violations" 5 (Audit.violation_count a);
  let count k =
    List.length
      (List.filter (fun v -> v.Audit.v_kind = k) (Audit.violations a))
  in
  Alcotest.(check int) "round-bits violations" 2 (count Audit.Round_bits);
  Alcotest.(check int) "round-locality violations" 1
    (count Audit.Round_locality);
  Alcotest.(check int) "total-bits violations (finalize idempotent)" 2
    (count Audit.Total_bits);
  (match Audit.violations a with
  | v :: _ ->
    Alcotest.(check int) "offender party" 0 v.Audit.v_party;
    Alcotest.(check int) "offending round" 0 v.Audit.v_round;
    Alcotest.(check string) "phase recorded" "ph" v.Audit.v_phase;
    Alcotest.(check bool) "observed exceeds budget" true
      (v.Audit.v_observed > v.Audit.v_budget)
  | [] -> Alcotest.fail "no violations recorded");
  Alcotest.(check int) "max round bits" 16 (Audit.max_round_bits a);
  Alcotest.(check int) "max round locality" 2 (Audit.max_round_locality a);
  Alcotest.(check int) "total bits max" 16 (Audit.total_bits_max a);
  Alcotest.(check int) "rounds seen" 1 (Audit.rounds_seen a);
  (match Audit.worst_offenders ~top:1 a with
  | [ (p, v, b) ] ->
    Alcotest.(check (list int)) "worst offender is party 0" [ 0; 3; 16 ]
      [ p; v; b ]
  | _ -> Alcotest.fail "worst_offenders shape");
  match Audit.timeline a with
  | [ r ] ->
    Alcotest.(check int) "tr_round" 0 r.Audit.tr_round;
    Alcotest.(check string) "tr_phase" "ph" r.Audit.tr_phase;
    Alcotest.(check int) "tr_max_bits" 16 r.Audit.tr_max_bits;
    Alcotest.(check (float 1e-9)) "tr_mean_bits over honest" 6.0
      r.Audit.tr_mean_bits;
    Alcotest.(check int) "tr_active" 2 r.Audit.tr_active;
    Alcotest.(check int) "tr_max_locality" 2 r.Audit.tr_max_locality;
    Alcotest.(check int) "tr_scheduled" 1 r.Audit.tr_scheduled;
    Alcotest.(check int) "tr_sent_bits" 16 r.Audit.tr_sent_bits;
    Alcotest.(check int) "tr_violations (round checks only)" 3
      r.Audit.tr_violations
  | _ -> Alcotest.fail "timeline shape"

let test_audit_corrupt_masked () =
  let a = Audit.create ~n:4 ~budgets:tight_budgets () in
  Audit.observe a (Corrupt 0);
  feed_unit_round a;
  Audit.finalize a;
  (* corrupt party 0's flood is its own business; only honest party 1's
     round-bits and total-bits overruns count. *)
  Alcotest.(check int) "only honest violations" 2 (Audit.violation_count a);
  List.iter
    (fun v -> Alcotest.(check int) "honest offender" 1 v.Audit.v_party)
    (Audit.violations a)

(* --- the auditor against a per-message reference tally ---------------------

   The auditor charges nothing itself: it reads each round's per-party
   summary from the network's metrics. This property keeps the naive
   per-message accounting as an independent reference. Scripted traffic
   (honest handlers, a corrupt party's adversary, sends between rounds,
   [Network.flush] between nested phases and, on the general path, a
   condition that defers mail, darkens a party and upgrades another) is
   stepped one round at a time; after each step the reference charges
   every [Send] event since the previous step to its sender and every
   message of every party's delivered inbox to its receiver, at
   8 * [Wire.size]. Its timeline, violations under tight flat budgets and
   totals must equal the auditor's. *)

module Network = Repro_net.Network
module Sched = Repro_net.Sched
module Wire = Repro_net.Wire

let ref_budget_bits = 320
let ref_budget_peers = 2
let ref_budget_total = 1600

let ref_budgets =
  {
    Audit.round_bits = Some (flat (float_of_int ref_budget_bits));
    round_locality = Some (flat (float_of_int ref_budget_peers));
    total_bits = Some (flat (float_of_int ref_budget_total));
  }

(* Everything the script does is a function of the case's seed. *)
let audit_reference_case ~general (n, rounds, seed) =
  let h parts = Hashtbl.hash (seed :: parts) in
  let sends = ref [] and corrupt = Array.make n false in
  let sink : Event.sink = function
    | Send { src; dst; bits; _ } -> sends := (src, dst, bits) :: !sends
    | Corrupt p -> corrupt.(p) <- true
    | _ -> ()
  in
  let audit = Audit.create ~label:"reference" ~n ~budgets:ref_budgets () in
  let static = List.filter (fun p -> h [ 0; p ] mod 4 = 0) (List.init n Fun.id) in
  let net =
    Network.create ~sinks:[ sink; Audit.observe audit ] ~n ~corrupt:static ()
  in
  let dark = h [ 1 ] mod n and upgraded = h [ 2 ] mod n in
  if general then
    Network.set_condition net
      {
        Sched.c_name = "reference";
        c_route =
          (fun ~now ~round ~src ~dst ~lat ->
            if h [ 3; round; src; dst ] mod 5 = 0 then Sched.Defer (now + 2 + (h [ 4; src ] mod 3))
            else Sched.Deliver lat);
        c_down = (fun ~now:_ ~round p -> p = dark && round >= 1 && round < 3);
        c_observe =
          (fun ~now:_ ~round ~msgs:_ ~corrupt -> if round = 2 then corrupt upgraded);
      };
  let send ~src k r =
    let len = h [ 5; r; src; k ] mod 12 in
    Network.send net ~src ~dst:(h [ 6; r; src; k ] mod n) ~tag:"t" (Bytes.make len 'x')
  in
  let invoked = ref 0 in
  let handler i ~round ~inbox:_ =
    incr invoked;
    for k = 0 to h [ 7; round; i ] mod 3 do send ~src:i k round done
  in
  let adversary =
    {
      Network.adv_name = "reference";
      adv_step =
        (fun net ~round ~honest_staged:_ ->
          List.iter
            (fun p -> if h [ 8; round; p ] mod 2 = 0 then send ~src:p 9 round)
            (Network.corrupt_parties net));
    }
  in
  (* The reference: per-party totals and peer sets, the expected timeline
     and violations, in detection order. *)
  let totals = Array.make n 0 and total_peers = Array.make n [] in
  let expected_timeline = ref [] and expected_violations = ref [] in
  let phase = ref "" and last_round = ref (-1) in
  let violation party round kind observed budget =
    if observed > budget then
      expected_violations :=
        (party, round, !phase, kind, observed) :: !expected_violations;
    observed > budget
  in
  let step () =
    let round = Network.round net in
    invoked := 0;
    Views.run_lists net ~adversary ~rounds:1
      ~extra:(fun ~round -> List.filter (fun p -> h [ 9; round; p ] mod 2 = 0) (Network.everyone net))
      (fun i -> Some (handler i));
    let bits = Array.make n 0 and peers = Array.make n [] in
    let charge p other b =
      bits.(p) <- bits.(p) + b;
      totals.(p) <- totals.(p) + b;
      if not (List.mem other peers.(p)) then peers.(p) <- other :: peers.(p);
      if not (List.mem other total_peers.(p)) then total_peers.(p) <- other :: total_peers.(p)
    in
    let sent = ref 0 and charged = Array.make n false in
    List.iter
      (fun (src, dst, b) ->
        sent := !sent + b;
        charged.(src) <- true;
        charge src dst b)
      (List.rev !sends);
    sends := [];
    for p = 0 to n - 1 do
      List.iter
        (fun (m : Wire.msg) ->
          charged.(p) <- true;
          charge p m.src (8 * Wire.size ~tag:m.tag m.payload))
        (Views.inbox net p)
    done;
    let max_bits = ref 0 and sum = ref 0 and active = ref 0 and max_loc = ref 0 in
    let viols = ref 0 in
    for p = 0 to n - 1 do
      if charged.(p) && not corrupt.(p) then begin
        let b = bits.(p) and loc = List.length peers.(p) in
        max_bits := max !max_bits b;
        sum := !sum + b;
        incr active;
        max_loc := max !max_loc loc;
        if violation p round Audit.Round_bits b ref_budget_bits then incr viols;
        if violation p round Audit.Round_locality loc ref_budget_peers then incr viols
      end
    done;
    let honest = Array.fold_left (fun k c -> if c then k else k + 1) 0 corrupt in
    last_round := round;
    expected_timeline :=
      {
        Audit.tr_round = round;
        tr_phase = !phase;
        tr_max_bits = !max_bits;
        tr_mean_bits = float_of_int !sum /. float_of_int (max 1 honest);
        tr_active = !active;
        tr_scheduled = !invoked;
        tr_sent_bits = !sent;
        tr_max_locality = !max_loc;
        tr_violations = !viols;
      }
      :: !expected_timeline
  in
  (* Between steps an honest party may send outside any round (charged to
     the round that closes next), and the network may be flushed. The run
     ends with a step: a send after the last round close reaches no
     summary. *)
  let between r =
    (match List.filter (fun p -> not corrupt.(p)) (Network.everyone net) with
    | p :: _ when h [ 10; r ] mod 3 = 0 -> send ~src:p 11 r
    | _ -> ());
    if h [ 12; r ] mod 3 = 0 then Network.flush net
  in
  let steps k =
    for _ = 1 to k do
      let r = Network.round net in
      if r > 0 then between r;
      step ()
    done
  in
  let in_phase name path f =
    Network.phase net name (fun () ->
        let outer = !phase in
        phase := path;
        f ();
        phase := outer)
  in
  let third = max 1 (rounds / 3) in
  steps third;
  in_phase "outer" "outer" (fun () ->
      steps third;
      in_phase "inner" "outer>inner" (fun () -> steps third);
      Network.flush net;
      steps third);
  Audit.finalize audit;
  for p = 0 to n - 1 do
    if not corrupt.(p) then
      ignore (violation p !last_round Audit.Total_bits totals.(p) ref_budget_total : bool)
  done;
  let metrics = Network.metrics net in
  let observed_violations =
    List.map
      (fun v ->
        (v.Audit.v_party, v.Audit.v_round, v.Audit.v_phase, v.Audit.v_kind,
         int_of_float v.Audit.v_observed))
      (Audit.violations audit)
  in
  let parties = List.init n Fun.id in
  let honest_totals = List.filter_map (fun p -> if corrupt.(p) then None else Some totals.(p)) parties in
  Audit.timeline audit = List.rev !expected_timeline
  && observed_violations = List.rev !expected_violations
  && Audit.total_bits_max audit = List.fold_left max 0 honest_totals
  && List.for_all
       (fun p ->
         totals.(p) = 8 * Repro_net.Metrics.party_bytes metrics p
         && List.length total_peers.(p) = Repro_net.Metrics.party_locality metrics p)
       parties

let prop_audit_matches_reference =
  QCheck.Test.make ~name:"audit equals a per-message reference tally" ~count:60
    QCheck.(triple (int_range 3 9) (int_range 3 10) small_nat)
    (fun case ->
      audit_reference_case ~general:false case
      && audit_reference_case ~general:true case)

let test_audit_budget_pass () =
  List.iter
    (fun proto ->
      let row, a = Runner.run_audited ~protocol:proto ~n:64 ~beta:0.1 ~seed:1 () in
      Alcotest.(check bool) (row.Runner.r_protocol ^ " agreement") true
        row.Runner.r_ok;
      Alcotest.(check int) (row.Runner.r_protocol ^ " within budget") 0
        (Audit.violation_count a))
    [ Runner.This_work_owf; Runner.This_work_snark ]

let test_audit_budget_fail () =
  let _row, a =
    Runner.run_audited ~protocol:Runner.Naive_boost ~n:64 ~beta:0.1 ~seed:1 ()
  in
  Alcotest.(check bool) "naive flooding violates" true
    (Audit.violation_count a > 0);
  let has k = List.exists (fun v -> v.Audit.v_kind = k) (Audit.violations a) in
  Alcotest.(check bool) "round-bits budget broken" true (has Audit.Round_bits);
  Alcotest.(check bool) "round-locality budget broken" true
    (has Audit.Round_locality);
  Alcotest.(check bool) "total-bits budget broken" true (has Audit.Total_bits);
  List.iter
    (fun v ->
      Alcotest.(check bool) "every violation exceeds its budget" true
        (v.Audit.v_observed > v.Audit.v_budget))
    (Audit.violations a)

let test_audit_timeline_jsonl () =
  let _row, a =
    Runner.run_audited ~protocol:Runner.This_work_snark ~n:32 ~beta:0.1 ~seed:1 ()
  in
  let lines =
    String.split_on_char '\n'
      (String.trim (Audit.timeline_jsonl ~protocol:"snark" a))
  in
  Alcotest.(check int) "one line per round" (Audit.rounds_seen a)
    (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is one JSON value" true
        (json_well_formed line);
      match Json.parse line with
      | Error e -> Alcotest.fail ("timeline line: " ^ e)
      | Ok v ->
        List.iter
          (fun key ->
            Alcotest.(check bool) ("key " ^ key) true
              (Json.member key v <> None))
          [
            "protocol"; "round"; "phase"; "max_bits"; "mean_bits"; "active";
            "scheduled"; "sent_bits"; "max_locality"; "violations";
          ])
    lines

(* Same pool-independence contract as the deterministic counters: audit
   results are a function of the logical traffic only. *)
let test_audit_pool_independent () =
  let saved = Parallel.domains () in
  let run_with domains =
    Parallel.set_domains domains;
    let _row, a =
      Runner.run_audited ~protocol:Runner.This_work_snark ~n:32 ~beta:0.1
        ~seed:5 ()
    in
    (Audit.violation_count a, Audit.timeline_jsonl a)
  in
  let one = run_with 1 in
  let four = run_with 4 in
  Parallel.set_domains saved;
  Alcotest.(check int) "violation count pool-independent" (fst one) (fst four);
  Alcotest.(check string) "timeline pool-independent" (snd one) (snd four)

(* Conservation: the per-tag breakdown in every Table-1 row partitions the
   network-wide sent bytes — nothing is dropped or double-counted. *)
let test_breakdown_conserves_total () =
  let rows =
    List.concat_map
      (fun s -> List.map snd s.Runner.s_points)
      (Runner.sweep_rows ~ns:[ 32 ] ())
  in
  Alcotest.(check int) "all protocols present"
    (List.length Runner.all_protocols)
    (List.length rows);
  List.iter
    (fun r ->
      (* A zero-traffic row is legitimate: dolev-strong under a corrupt
         (silent) designated sender never sends a byte, so its breakdown
         is empty and conservation holds trivially. *)
      Alcotest.(check bool) (r.Runner.r_protocol ^ " has breakdown") true
        (r.Runner.r_breakdown <> [] || r.Runner.r_total_bytes = 0);
      let sum = List.fold_left (fun acc (_, b) -> acc + b) 0 r.Runner.r_breakdown in
      Alcotest.(check int) (r.Runner.r_protocol ^ " breakdown sums to total")
        r.Runner.r_total_bytes sum)
    rows

(* --- profiler --------------------------------------------------------------

   The self-profiling layer (Profile): per-span GC deltas, the deterministic
   profile tree, the repro-profile/2 report and its regression gate. *)

module Profile = Repro_obs.Profile

let profiling_off () =
  Trace.reset ();
  Trace.set_enabled false;
  Trace.set_gc_capture false;
  Counters.reset ()

let test_profile_gc_capture () =
  Trace.set_enabled true;
  Trace.set_gc_capture true;
  Trace.reset ();
  let sink = ref [] in
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () ->
          for i = 0 to 999 do
            sink := string_of_int i :: !sink
          done));
  Alcotest.(check int) "sink filled" 1000 (List.length !sink);
  let find name = List.find (fun e -> e.Trace.e_name = name) (Trace.events ()) in
  let gc e =
    match e.Trace.e_gc with
    | Some g -> g
    | None -> Alcotest.fail "span has no gc delta with capture on"
  in
  let gi = gc (find "inner") and go = gc (find "outer") in
  Alcotest.(check bool) "allocating child has positive minor delta" true
    (gi.Trace.g_minor_words > 0.0);
  (* deltas are inclusive: the parent covers the child *)
  Alcotest.(check bool) "parent delta >= child delta" true
    (go.Trace.g_minor_words >= gi.Trace.g_minor_words);
  Alcotest.(check bool) "collection deltas are nonnegative" true
    (gi.Trace.g_minor_collections >= 0 && gi.Trace.g_major_collections >= 0);
  Trace.set_gc_capture false;
  Trace.reset ();
  Trace.span "plain" (fun () -> ());
  (match Trace.events () with
  | [ e ] ->
    Alcotest.(check bool) "no gc delta with capture off" true
      (e.Trace.e_gc = None)
  | _ -> Alcotest.fail "expected exactly one event");
  profiling_off ()

let test_profile_cache_counters () =
  let was = Counters.is_enabled () in
  Counters.enable ();
  Counters.reset ();
  (* Pinned: decoding the same buffer three times is one miss, two hits. *)
  let buf =
    Repro_util.Encode.to_bytes (fun b -> Repro_util.Encode.varint b 7)
  in
  let dec = Repro_util.Encode.memo_decode Repro_util.Encode.r_varint in
  Alcotest.(check (list (option int))) "memoized decode value"
    [ Some 7; Some 7; Some 7 ]
    [ dec buf; dec buf; dec buf ];
  let v name = List.assoc name (Counters.snapshot ()) in
  Alcotest.(check int) "memo_miss pinned" 1 (v "encode.memo_miss");
  Alcotest.(check int) "memo_hit pinned" 2 (v "encode.memo_hit");
  (* End-to-end: a real run exercises both the decode memo and the per-node
     encode cache in ae_comm. *)
  Counters.reset ();
  ignore (Runner.run ~protocol:Runner.This_work_snark ~n:32 ~beta:0.1 ~seed:1 ());
  Alcotest.(check bool) "enc cache hits nonzero" true (v "aecomm.enc_hit" > 0);
  Alcotest.(check bool) "enc cache misses nonzero" true
    (v "aecomm.enc_miss" > 0);
  Alcotest.(check bool) "decode memo hits nonzero" true
    (v "encode.memo_hit" > 0);
  Counters.reset ();
  if not was then Counters.disable ()

(* The acceptance contract of the profiler: the deterministic half of the
   profile — counters, histograms, span tree shape, det probes — is a
   function of the logical run only, byte-identical across pool sizes. *)
let test_profile_shape_deterministic () =
  let saved = Parallel.domains () in
  let run domains =
    Parallel.set_domains domains;
    let _row, _wall, _gc =
      Runner.run_profiled ~protocol:Runner.This_work_snark ~n:32 ~beta:0.1
        ~seed:5
    in
    Json.compact (Profile.deterministic_json ())
  in
  let one = run 1 in
  let four = run 4 in
  Parallel.set_domains saved;
  profiling_off ();
  Alcotest.(check bool) "deterministic profile json well-formed" true
    (json_well_formed one);
  Alcotest.(check string) "deterministic profile pool-independent" one four

let test_profile_report_json () =
  let row, wall, gc =
    Runner.run_profiled ~protocol:Runner.This_work_snark ~n:32 ~beta:0.1
      ~seed:1
  in
  let json =
    Json.pretty
      (Profile.report_json ~protocol:row.Runner.r_protocol ~n:32 ~beta:0.1
         ~seed:1 ~wall_s:wall ~domains:(Parallel.domains ()) ~gc ())
  in
  profiling_off ();
  Alcotest.(check bool) "report well-formed" true (json_well_formed json);
  match Json.parse json with
  | Error e -> Alcotest.fail ("report: " ^ e)
  | Ok v ->
    Alcotest.(check string) "report is a writer fixed point" json (Json.pretty v);
    Alcotest.(check (option string)) "schema" (Some "repro-profile/2")
      (Option.bind (Json.member "schema" v) Json.to_string);
    let det = Json.member "deterministic" v in
    let nondet = Json.member "nondeterministic" v in
    Alcotest.(check bool) "both sections present" true
      (det <> None && nondet <> None);
    Alcotest.(check bool) "det has span tree" true
      (Option.bind det (Json.member "spans") <> None);
    Alcotest.(check bool) "nondet has gc block" true
      (Option.bind nondet (Json.member "gc") <> None);
    Alcotest.(check bool) "pool probe is nondeterministic" true
      (Option.bind nondet (fun nd ->
           Option.bind (Json.member "probes" nd) (Json.member "pool"))
      <> None);
    Alcotest.(check bool) "hotspots present" true
      (Option.bind nondet (Json.member "hotspots_by_alloc") <> None)

(* Counter pin. The deterministic profile section of one owf and one snark
   cell at n = 64 (beta 0.1, seed 1). A fast path that produces the same
   bytes but skips a counted operation moves a counter here, so every move
   is a decision. The crypto counters were re-pinned when f_aggr-sig
   committees began sharing their members' pure work: a candidate is
   aggregated once per distinct member input, a validity verdict computed
   once per distinct payload, and committee digests hashed lazily. In this
   lock-step run, with no adversary, every member of a node holds the same
   input, so [srds-*.aggregate] is one per tree node: 11 leaves + 2 + 1 root
   at n = 64. [wots.verify], [hashx.hash] and the PCD/SNARK counts fall with
   it; message, encoding and histogram counts, and the signing and keygen
   work, are untouched. Counters and histograms are compared where nonzero
   (other tests register zero-valued ones in this process); the span tree,
   identical for both cells, by digest — only the [srds.aggregate] span
   counts under [F: level k] moved with the re-pin. The [net.active_set]
   and [net.dirty_depth] histograms and the span digest were re-pinned
   again when every caller moved onto the one active-set stepper: the
   histograms are now observed on every network round (owf
   [net.active_set] count 10 -> 131, sum 398 -> 4289), and each round is
   one [net.round] span, no longer nested under [net.sparse_round].
   [sha256.compress] and [wots.cache_hit]/[cache_miss] joined the pin when
   every counter became exact; no earlier value moved with them. *)
let pinned_sync_histograms msg_bytes =
  [ ("engine.inbox_depth", [ 2835; 54187; 485; 314; 17; 362; 1001; 656 ]);
    ("net.active_set", [ 131; 4289; 0; 0; 0; 0; 95; 4; 32 ]);
    ("net.dirty_depth", [ 131; 3641; 13; 1; 0; 1; 88; 4; 24 ]);
    ("net.msg_bytes", msg_bytes) ]

let pinned_spans_digest =
  "8a614ff7e9bbbdd7345b263c53fa29da4e1d4b51ebf0efdf3f0930c767f031db"

let pinned_cells =
  [
    ( Runner.This_work_owf,
      [ ("aecomm.enc_hit", 320); ("aecomm.enc_miss", 90);
        ("encode.memo_hit", 5059); ("encode.memo_miss", 104);
        ("engine.msgs", 54187); ("hashx.hash", 37799);
        ("sha256.compress", 63557); ("srds-owf.aggregate", 14);
        ("srds-owf.keygen", 198); ("srds-owf.sign", 180);
        ("srds-owf.verify", 1); ("wots.cache_hit", 180);
        ("wots.cache_miss", 30); ("wots.sign", 30); ("wots.verify", 210) ],
      pinned_sync_histograms
        [ 74604; 124880893; 48640; 0; 289; 0; 12238; 972; 0; 0; 0; 1466; 2127;
          1968; 525; 560; 5819 ] );
    ( Runner.This_work_snark,
      [ ("aecomm.enc_hit", 320); ("aecomm.enc_miss", 90);
        ("encode.memo_hit", 7621); ("encode.memo_miss", 256);
        ("engine.msgs", 54187); ("hashx.hash", 205955); ("pcd.prove", 194);
        ("pcd.verify", 221); ("sha256.compress", 248677);
        ("snark.prove", 194); ("snark.verify", 221);
        ("srds-snark.aggregate", 14); ("srds-snark.keygen", 198);
        ("srds-snark.sign", 180); ("srds-snark.verify", 1);
        ("wots.cache_hit", 180); ("wots.cache_miss", 180);
        ("wots.sign", 180); ("wots.verify", 360) ],
      pinned_sync_histograms
        [ 77629; 3979999; 48160; 0; 289; 0; 12238; 7856; 5530; 0; 0; 2978;
          578 ] );
  ]

let test_profile_counters_pinned () =
  List.iter
    (fun (protocol, recorded, histograms) ->
      let name = Runner.protocol_name protocol in
      let _row, _wall, _gc =
        Runner.run_profiled ~protocol ~n:64 ~beta:0.1 ~seed:1
      in
      let counters = Counters.snapshot () in
      let hists = Counters.histogram_snapshot () in
      let json = Json.compact (Profile.deterministic_json ()) in
      profiling_off ();
      Alcotest.(check (list (pair string int)))
        (name ^ " nonzero counters")
        recorded
        (List.filter (fun (_, v) -> v <> 0) counters);
      (* count, sum, then the buckets up to the last nonzero one *)
      let flat (count, sum, buckets) =
        let last = ref (-1) in
        Array.iteri (fun j v -> if v > 0 then last := j) buckets;
        count :: sum :: Array.to_list (Array.sub buckets 0 (!last + 1))
      in
      Alcotest.(check (list (pair string (list int))))
        (name ^ " nonempty histograms")
        histograms
        (List.filter_map
           (fun (k, ((count, _, _) as h)) ->
             if count > 0 then Some (k, flat h) else None)
           hists);
      let find sub =
        let rec go i =
          if String.sub json i (String.length sub) = sub then i else go (i + 1)
        in
        go 0
      in
      let from = find "\"spans\":" + String.length "\"spans\":" in
      (* the spans are the section's last field: drop the closing brace *)
      let spans_json = String.sub json from (String.length json - 1 - from) in
      Alcotest.(check string) (name ^ " span tree") pinned_spans_digest
        (Repro_crypto.Sha256.hex (Repro_crypto.Sha256.digest_string spans_json)))
    pinned_cells

(* Json.diff, the comparison behind `ba_sim diff`: exact, symmetric, and
   naming each differing path. Two documents of different schemas are not
   "not comparable" but different: the schema is one of the paths. *)
let test_json_diff () =
  let doc = Json.parse_exn in
  let check msg want a b = Alcotest.(check (list string)) msg want (Json.diff a b) in
  let base =
    doc
      {|{"schema":"repro-profile/2","deterministic":{"counters":{"a":10},
         "histograms":{"h":{"count":2,"sum":5,"buckets":[2]}}}}|}
  in
  check "equal documents" [] base base;
  check "member order is not compared" []
    (doc {|{"x":1,"y":[true,null]}|}) (doc {|{"y":[true,null],"x":1}|});
  let bumped =
    doc
      {|{"schema":"repro-profile/2","deterministic":{"counters":{"a":11},
         "histograms":{"h":{"count":2,"sum":5,"buckets":[2]}}}}|}
  in
  check "a rise" [ "deterministic.counters.a: 10 -> 11" ] base bumped;
  check "a fall" [ "deterministic.counters.a: 11 -> 10" ] bumped base;
  check "a key only the second has"
    [ "deterministic.counters.b: (absent) -> 1" ]
    (doc {|{"deterministic":{"counters":{"a":1}}}|})
    (doc {|{"deterministic":{"counters":{"a":1,"b":1}}}|});
  check "a key only the first has"
    [ "deterministic.histograms: {1 keys} -> (absent)" ]
    base
    (doc {|{"schema":"repro-profile/2","deterministic":{"counters":{"a":10}}}|});
  check "lists of different lengths"
    [ "h.buckets[2]: (absent) -> 4" ]
    (doc {|{"h":{"buckets":[1,2]}}|}) (doc {|{"h":{"buckets":[1,2,4]}}|});
  check "a number against a string" [ "n: 64 -> \"64\"" ]
    (doc {|{"n":64}|}) (doc {|{"n":"64"}|});
  check "nested paths" [ "a.b[2].c: 1 -> 2" ]
    (doc {|{"a":{"b":[0,{},{"c":1}]}}|}) (doc {|{"a":{"b":[0,{},{"c":2}]}}|});
  check "the schema is a path like any other"
    [ "schema: \"repro-profile/2\" -> \"repro-profile/1\"" ]
    base
    (doc
       {|{"schema":"repro-profile/1","deterministic":{"counters":{"a":10},
          "histograms":{"h":{"count":2,"sum":5,"buckets":[2]}}}}|});
  check "the document itself" [ "(document): [2 items] -> 3" ]
    (doc "[1,2]") (doc "3")

(* The one hex codec: every byte value round-trips, lowercase out, either
   case in, and malformed input is rejected rather than misread. *)
let test_hex_codec () =
  let module Hex = Repro_obs.Hex in
  let all = String.init 256 Char.chr in
  let h = Hex.encode all in
  Alcotest.(check string) "first bytes" "000102" (String.sub h 0 6);
  Alcotest.(check string) "last byte" "ff" (String.sub h 510 2);
  Alcotest.(check string) "round trip" all (Hex.decode h);
  Alcotest.(check string) "upper case" all (Hex.decode (String.uppercase_ascii h));
  Alcotest.(check string) "digest form" "0123456789abcdef"
    (Repro_obs.Recorder.hex_of_digest 0x0123456789abcdefL);
  Alcotest.(check string) "negative digest" "ffffffffffffffff"
    (Repro_obs.Recorder.hex_of_digest (-1L));
  List.iter
    (fun bad ->
      match Hex.decode bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [ "0"; "0g"; "g0"; "12 4"; "\xff0" ]

let suite =
  [
    Alcotest.test_case "json checker sanity" `Quick test_json_checker_sanity;
    QCheck_alcotest.to_alcotest prop_writer_roundtrip;
    Alcotest.test_case "json writer rejects non-finite" `Quick
      test_writer_rejects_non_finite;
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram observe_n" `Quick test_histogram_observe_n;
    Alcotest.test_case "cell counters independent of earlier cells" `Quick
      test_cell_counters_history_free;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "chrome json" `Quick test_chrome_json;
    Alcotest.test_case "counters pool-independent" `Quick
      test_counters_pool_independent;
    Alcotest.test_case "ba emits phase spans" `Quick test_ba_emits_phase_spans;
    Alcotest.test_case "audit curve eval" `Quick test_audit_curve_eval;
    Alcotest.test_case "audit accounting" `Quick test_audit_accounting;
    Alcotest.test_case "audit corrupt masked" `Quick test_audit_corrupt_masked;
    QCheck_alcotest.to_alcotest prop_audit_matches_reference;
    Alcotest.test_case "audit budget pass" `Quick test_audit_budget_pass;
    Alcotest.test_case "audit budget fail" `Quick test_audit_budget_fail;
    Alcotest.test_case "audit timeline jsonl" `Quick test_audit_timeline_jsonl;
    Alcotest.test_case "audit pool-independent" `Quick
      test_audit_pool_independent;
    Alcotest.test_case "breakdown conserves total" `Quick
      test_breakdown_conserves_total;
    Alcotest.test_case "profile gc capture" `Quick test_profile_gc_capture;
    Alcotest.test_case "profile cache counters" `Quick
      test_profile_cache_counters;
    Alcotest.test_case "profile shape deterministic" `Quick
      test_profile_shape_deterministic;
    Alcotest.test_case "profile report json" `Quick test_profile_report_json;
    Alcotest.test_case "profile counters pinned (owf, snark n=64)" `Quick
      test_profile_counters_pinned;
    Alcotest.test_case "json diff" `Quick test_json_diff;
    Alcotest.test_case "hex codec" `Quick test_hex_codec;
    Alcotest.test_case "flame summary counts" `Quick test_flame_summary_counts;
  ]
