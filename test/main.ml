let () =
  Alcotest.run "declarative_scheduling"
    [
      ("util", Test_util.tests);
      ("stats", Test_stats.tests);
      ("sim", Test_sim.tests);
      ("model", Test_model.tests);
      ("relal", Test_relal.tests);
      ("sql", Test_sql.tests);
      ("sql-random", Test_sql_random.tests);
      ("standing", Test_standing.tests);
      ("view", Test_standing.view_tests);
      ("datalog", Test_datalog.tests);
      ("workload", Test_workload.tests);
      ("server", Test_server.tests);
      ("core", Test_core.tests);
      ("journal", Test_journal.tests);
      ("faults", Test_faults.tests);
      ("recovery", Test_recovery.tests);
      ("replica", Test_replica.tests);
      ("cli", Test_cli.tests);
      ("parallel", Test_parallel.tests);
      ("check", Test_check.tests);
      ("differential", Test_differential.tests);
      ("obs", Test_obs.tests);
      ("integration", Test_integration.tests);
      ("sharding", Test_sharding.tests);
      ("edges", Test_edges.tests);
      ("swarm", Test_swarm.tests);
      ("examples", Test_examples.tests);
    ]
