let () =
  Alcotest.run "polylog-ba"
    [
      ("util", Test_util.suite);
      ("crypto", Test_crypto.suite);
      ("signatures", Test_signatures.suite);
      ("snark", Test_snark.suite);
      ("net", Test_net.suite);
      ("sched", Test_sched.suite);
      ("stepper", Test_stepper.suite);
      ("conditions", Test_conditions.suite);
      ("golden", Test_golden.suite);
      ("obs", Test_obs.suite);
      ("aetree", Test_aetree.suite);
      ("consensus", Test_consensus.suite);
      ("srds", Test_srds.suite);
      ("protocol", Test_protocol.suite);
      ("core-misc", Test_core_misc.suite);
      ("experiment", Test_experiment.suite);
      ("attacks", Test_attacks.suite);
      ("adversary", Test_adversary.suite);
      ("forensics", Test_forensics.suite);
      ("adversarial-ba", Test_adversarial_ba.suite);
      ("properties", Test_properties.suite);
      ("fuzz", Test_fuzz.suite);
      ("verdicts", Test_verdicts.suite);
    ]
