(* Tests for the ledger's own logic; no workload runs here. Covers the
   compare verdicts, pinned-fingerprint checking, the output writer's round
   trip through Repro_util.Json, and the agreement between BENCHMARK.json
   and the metric catalogue. *)

module Json = Repro_util.Json

let bound = { Verdict.bound = 0.1; lower_better = true; floor = 0. }
let seeded xs = List.mapi (fun i x -> (i, x)) xs
let verdict = Alcotest.testable (Fmt.of_to_string Verdict.verdict_name) ( = )

let judge ?(exact = false) a b = Verdict.judge ~exact ~bound (seeded a) (seeded b)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let s = Stats.summarize (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "q1 median q3" [ 2.75; 5.5; 8.25 ] [ s.q1; s.median; s.q3 ];
  let one = Stats.summarize [ 4. ] in
  Alcotest.(check (float 0.)) "single sample" 4. one.q3

let test_verdicts () =
  let a = [ 10.0; 10.1; 10.2; 9.9; 10.0 ] in
  Alcotest.check verdict "same" Verdict.Same (judge a [ 10.3; 10.4; 10.2; 10.5; 10.3 ]);
  Alcotest.check verdict "worse" Verdict.Worse (judge a [ 12.0; 12.1; 11.9; 12.2; 12.0 ]);
  Alcotest.check verdict "better" Verdict.Better (judge a [ 8.0; 8.1; 7.9; 8.2; 8.0 ]);
  Alcotest.check verdict "unresolved: A too wide" Verdict.Unresolved
    (judge [ 6.; 9.; 10.; 11.; 14. ] [ 12.0; 12.1; 11.9; 12.2; 12.0 ]);
  Alcotest.check verdict "wide but every B run beats every A run" Verdict.Better
    (judge [ 10.; 12.; 14.; 16. ] [ 5.; 6.; 7.; 8. ]);
  Alcotest.check verdict "a change within the floor is the same" Verdict.Same
    (Verdict.judge ~exact:false ~bound:{ bound with floor = 0.02 } (seeded [ 0.042; 0.043; 0.044 ])
       (seeded [ 0.053; 0.054; 0.056 ]));
  Alcotest.check verdict "higher is better" Verdict.Worse
    (Verdict.judge ~exact:false ~bound:{ bound with lower_better = false } (seeded a)
       (seeded [ 8.0; 8.1; 7.9; 8.2; 8.0 ]))

let test_exact () =
  let a = [ (1, 163.); (7, 163.) ] in
  Alcotest.check verdict "equal on shared seeds" Verdict.Same
    (Verdict.judge ~exact:true ~bound a [ (7, 163.); (9, 170.) ]);
  Alcotest.check verdict "exact mismatch" Verdict.Worse
    (Verdict.judge ~exact:true ~bound a [ (1, 164.) ]);
  Alcotest.check verdict "no shared seed, equal medians" Verdict.Same
    (Verdict.judge ~exact:true ~bound a [ (2, 163.) ]);
  Alcotest.check verdict "no shared seed, different medians" Verdict.Unresolved
    (Verdict.judge ~exact:true ~bound a [ (2, 170.) ])

let doc ~wall =
  Json.Obj
    [
      ("schema", Json.Str "repro-ledger/1");
      ( "workloads",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "w");
                ( "end_to_end",
                  Json.Obj
                    [
                      ( "wall_s",
                        Json.Obj
                          [
                            ("unit", Json.Str "s");
                            ("exact", Json.Bool false);
                            ("cell_seeds", Json.List (List.map (fun _ -> Json.Num 1.) wall));
                            ("samples", Json.List (List.map (fun x -> Json.Num x) wall));
                          ] );
                      ( "rounds",
                        Json.Obj
                          [
                            ("unit", Json.Str "rounds");
                            ("exact", Json.Bool true);
                            ("cell_seeds", Json.List [ Json.Num 1. ]);
                            ("samples", Json.List [ Json.Num 163. ]);
                          ] );
                    ] );
                ("per_layer", Json.Obj [ ("net.share", Json.Obj [ ("value", Json.Num 0.4) ]) ]);
              ];
          ] );
    ]

let test_compare_docs () =
  let bounds = [ ("wall_s", bound) ] in
  let rows ?(bounds = bounds) a b =
    List.map (fun (r : Verdict.row) -> (r.metric, r.verdict)) (Verdict.compare_docs bounds a b)
  in
  Alcotest.(check (list (pair string verdict)))
    "baseline runs pool; slower B is worse"
    [ ("wall_s", Verdict.Worse); ("rounds", Verdict.Same) ]
    (rows (Json.Obj [ ("runs", Json.List [ doc ~wall:[ 1.0; 1.01 ]; doc ~wall:[ 0.99 ] ]) ]) (doc ~wall:[ 1.5; 1.49; 1.51 ]));
  Alcotest.(check (list (pair string verdict)))
    "a measured metric without a bound is not judged" [ ("rounds", Verdict.Same) ]
    (rows ~bounds:[] (doc ~wall:[ 1. ]) (doc ~wall:[ 2. ]))

let test_tampered_expect () =
  let expect =
    match Expect.load "expect.json" with Ok e -> e | Error e -> Alcotest.fail e
  in
  let workload, seed, fp =
    match expect with
    | (w, (s, fp) :: _) :: _ -> (w, s, fp)
    | _ -> Alcotest.fail "expect.json pins nothing"
  in
  Alcotest.(check int) "the pinned fingerprint matches" 0
    (List.length (Expect.mismatches expect ~workload ~seed [ fp; fp ]));
  let tampered =
    List.map
      (fun (w, seeds) ->
        (w, List.map (fun (s, f) -> if w = workload && s = seed then (s, List.map (fun c -> c ^ "!") f) else (s, f)) seeds))
      expect
  in
  Alcotest.(check int) "a tampered entry fails every cell of the run" (2 * List.length fp)
    (List.length (Expect.mismatches tampered ~workload ~seed [ fp; fp ]));
  Alcotest.(check int) "a wrong cell count fails every cell" (List.length fp + 1)
    (List.length (Expect.mismatches expect ~workload ~seed [ "a" :: fp ]));
  match Expect.of_json (Json.parse_exn (Jsonw.compact (Expect.to_json expect))) with
  | Ok e -> Alcotest.(check bool) "expect.json round-trips" true (e = expect)
  | Error e -> Alcotest.fail e

let test_round_trip () =
  let v =
    Json.Obj
      [
        ("schema", Json.Str "repro-ledger/1");
        ("quote \"and\" newline\n", Json.Str "tab\tback\\slash");
        ("floats", Json.List (List.map (fun x -> Json.Num x) [ 0.1; 1e-7; 123456789.123; -2.5; 1.0 /. 3.0; 42. ]));
        ("nested", Json.Obj [ ("empty", Json.Obj []); ("list", Json.List [ Json.Obj [ ("b", Json.Bool true) ]; Json.Null ]) ]);
      ]
  in
  List.iter
    (fun (name, s) -> Alcotest.(check bool) name true (Json.parse s = Ok v))
    [ ("pretty", Jsonw.pretty v); ("compact", Jsonw.compact v) ]

let test_benchmark_json () =
  let j = Json.parse_exn (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let section k =
    match Option.bind (Json.member k j) Json.to_list with Some l -> l | None -> Alcotest.fail k
  in
  let str k m = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_string) in
  let decl k = List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (section k) in
  let spec (s : Metrics.spec) = (s.name, s.unit_, if s.lower_better then "lower" else "higher") in
  Alcotest.(check (list (triple string string string)))
    "end_to_end" (List.map spec Metrics.end_to_end) (decl "end_to_end");
  Alcotest.(check (list (triple string string string)))
    "per_layer" (List.map spec Metrics.per_layer) (decl "per_layer");
  let valid name =
    String.length name <= 64
    && String.for_all (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) name
  in
  List.iter
    (fun k -> List.iter (fun (n, _, _) -> Alcotest.(check bool) ("name " ^ n) true (valid n)) (decl k))
    [ "end_to_end"; "per_layer" ];
  let bounds =
    List.map (fun m -> (str "name" m, Option.value ~default:1. (Option.bind (Json.member "bound" m) Json.to_float)))
      (section "end_to_end")
  in
  let setup = List.assoc "setup_s" bounds in
  List.iter
    (fun (n, b) ->
      Alcotest.(check bool) (n ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25);
      if n <> "setup_s" then Alcotest.(check bool) (n ^ " bound below setup_s's") true (b < setup))
    bounds

let () =
  Alcotest.run "ledger"
    [
      ( "compare",
        [
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "exact metrics" `Quick test_exact;
          Alcotest.test_case "documents and baselines" `Quick test_compare_docs;
        ] );
      ("expect", [ Alcotest.test_case "tampered entry fails" `Quick test_tampered_expect ]);
      ( "schema",
        [
          Alcotest.test_case "writer round-trips through Repro_util.Json" `Quick test_round_trip;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick test_benchmark_json;
        ] );
    ]
