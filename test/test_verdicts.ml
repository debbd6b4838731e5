(* Pinned verdicts of Table-1 cells.

   Each cell's row object ({!Repro_core.Runner.row_json}, printed by
   [Json.compact]) is pinned by its SHA-256 next to its [ok] and note, and
   every cell that an attack cell can express also pins its exact
   (agreed, decided, valid) triple, the decided fraction printed with [%h]
   so that no rounding hides a drift. The cells cover each verdict branch:
   the three pipelines ("decided=", "tree-degraded"), the two boost
   baselines ("correct="), Dolev–Strong with a corrupt sender (seed 1) and
   an honest one (seed 2), a failing cell outside the corruption model
   (owf at beta = 0.45), and condition cells under an adaptive adversary,
   whose upgrades must count as corrupt.

   If a deliberate change moves a verdict, re-record by running the test
   and copying the printed actual lines, and say why in the commit. *)

module Runner = Repro_core.Runner
module Json = Repro_obs.Json

let sha text = Repro_crypto.Sha256.(hex (digest_string text))

let row_line ~protocol ~beta ~seed =
  let r = Runner.run ~protocol ~n:32 ~beta ~seed () in
  Printf.sprintf "row %s beta=%g seed=%d ok=%b (%s) %s"
    (Runner.protocol_name protocol) beta seed r.Runner.r_ok r.Runner.r_note
    (sha (Json.compact (Runner.row_json r)))

let cell_line ?condition_name ~protocol ~beta ~seed () =
  let c =
    Runner.run_attack_cell ?condition_name ~protocol ~strategy_name:"silent"
      ~n:32 ~beta ~seed ~expect_fail:false ()
  in
  Printf.sprintf "cell %s/%s beta=%g seed=%d agreed=%b decided=%h valid=%b %s"
    (Runner.protocol_name protocol)
    (Option.value condition_name ~default:"none")
    beta seed c.Runner.ac_agreed c.Runner.ac_decided c.Runner.ac_valid
    (sha (Json.compact (Runner.attack_cell_json c)))

let lines () =
  List.map (fun protocol -> row_line ~protocol ~beta:0.1 ~seed:1) Runner.all_protocols
  @ [
      row_line ~protocol:Runner.Dolev_strong ~beta:0.1 ~seed:2;
      row_line ~protocol:Runner.This_work_owf ~beta:0.45 ~seed:1;
    ]
  @ List.map
      (fun protocol -> cell_line ~protocol ~beta:0.1 ~seed:1 ())
      Runner.[ This_work_owf; This_work_snark; Multisig_boost; Dolev_strong ]
  @ [
      cell_line ~protocol:Runner.Dolev_strong ~beta:0.1 ~seed:2 ();
      cell_line ~protocol:Runner.This_work_owf ~beta:0.45 ~seed:1 ();
      cell_line ~condition_name:"adaptive" ~protocol:Runner.This_work_owf
        ~beta:0.1 ~seed:1 ();
      cell_line ~condition_name:"adaptive" ~protocol:Runner.Dolev_strong
        ~beta:0.1 ~seed:1 ();
    ]

let pinned =
  [
    "row this-work-owf beta=0.1 seed=1 ok=true (decided=1.00) d04db22b8b72f46136ce29326c0a0e958975ee2eee0d393ae5da975b65126349";
    "row this-work-snark beta=0.1 seed=1 ok=true (decided=1.00) e9b99362564a6e2703a4789f0108f0bc20411356adfdcc274e22a570b3246086";
    "row multisig-boost beta=0.1 seed=1 ok=true (decided=1.00) eba3cdf10c9f37b8fcd21e3c81c8aa4ab098bd1b82d67f2ed6b91250e5300ad3";
    "row sqrt-quorum beta=0.1 seed=1 ok=true (correct=1.00) 8b1a69bbf78fda9c6b8856356d7374c13f2d8c81f50513f33a10e3168e14a5ae";
    "row naive-flood beta=0.1 seed=1 ok=true (correct=1.00) b7629771af1e7e362d509f85c6a5e415e1d99dd58fb4d2e908c5ec32e042ca7b";
    "row dolev-strong beta=0.1 seed=1 ok=true (correct=0.00 sender-corrupt) fb4682303d48323382699f528e6ca708f0493a2c24344a68caa597bf3adf2977";
    "row dolev-strong beta=0.1 seed=2 ok=true (correct=1.00) 90d25534bff28936762e153a3032207642d8dca52dce7d5a8adde5ad58b4018d";
    "row this-work-owf beta=0.45 seed=1 ok=false (decided=0.00 tree-degraded) f23a6b4dbe09e7535f53d782383b2ebfbeadb842340d72a26701a1220252211b";
    "cell this-work-owf/none beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true 98801dac60188d923b913f9e5c0c2e467be1381369170884505cfdbce9337cfa";
    "cell this-work-snark/none beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true af2d99d676b14ea736bb3b8378597643d693ee1bedce622f91066d45f09f940b";
    "cell multisig-boost/none beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true 6cf1e1ccd72199d4c9a067b7175e17773843bd49ffcd367c56aba3e4bb3549cc";
    "cell dolev-strong/none beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true 70b46270972dbc64256ba10ae86067ce7bc0bef452d2edbbd7cea201c13c69f4";
    "cell dolev-strong/none beta=0.1 seed=2 agreed=true decided=0x1p+0 valid=true 6b7fa743a7f0afa0a8f6c2b2f2a9f8e1255d0e64a09455b923a4a1dbf0888866";
    "cell this-work-owf/none beta=0.45 seed=1 agreed=false decided=0x0p+0 valid=true 751aa3807ab12946861fcf51764b88e45cdb5199f84c372003ddb66ee4f94c84";
    "cell this-work-owf/adaptive beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true f8a9df4e811e56d2cd0704b39efbabe6564e84be75d5f240b5f0fbc2373fc3ef";
    "cell dolev-strong/adaptive beta=0.1 seed=1 agreed=true decided=0x1p+0 valid=true 0e310cc481781c43c5b12536051161db75b3ce841cba1001ad22b03a8cd59392";
  ]

let test_verdicts_pinned () =
  let actual = lines () in
  List.iter print_endline actual;
  Alcotest.(check (list string)) "verdicts" pinned actual

(* Dolev–Strong's designated sender is party 0: the seed-1 draw corrupts
   it, the seed-2 draw does not, so the two rows take the two branches of
   its validity rule. *)
let test_ds_sender_branches () =
  let note seed = (Runner.run ~protocol:Runner.Dolev_strong ~n:32 ~beta:0.1 ~seed ()).Runner.r_note in
  Alcotest.(check string) "seed 1: corrupt sender" "correct=0.00 sender-corrupt" (note 1);
  Alcotest.(check string) "seed 2: honest sender" "correct=1.00" (note 2)

let suite =
  [
    Alcotest.test_case "verdicts pinned (n=32)" `Quick test_verdicts_pinned;
    Alcotest.test_case "dolev-strong sender branches" `Quick test_ds_sender_branches;
  ]
