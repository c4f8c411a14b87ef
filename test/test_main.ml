let () =
  Alcotest.run "swapram"
    [
      ("isa", Test_isa.suite);
      ("cpu", Test_cpu.suite);
      ("asm", Test_asm.suite);
      ("minic", Test_minic.suite);
      ("swapram", Test_swapram.suite);
      ("blockcache", Test_blockcache.suite);
      ("platform", Test_platform.suite);
      ("validation", Test_validation.suite);
      ("differential", Test_differential.suite);
      ("observe", Test_observe.suite);
      ("telemetry", Test_telemetry.suite);
      ("metrics", Test_metrics.suite);
      ("pgo", Test_pgo.suite);
      ("golden", Test_golden.suite);
      ("faultinject", Test_faultinject.suite);
    ("campaign", Test_campaign.suite);
      ("engine", Test_engine.suite);
      ("replay", Test_replay.suite);
      ("dse", Test_dse.suite);
      ("store", Test_store.suite);
    ]
