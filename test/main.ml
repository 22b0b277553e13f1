(* Test entry point: every library's suites under one alcotest runner. *)

let () =
  Alcotest.run "repro"
    (Test_quantile.suites @ Test_callchain.suites @ Test_trace.suites
   @ Test_allocsim.suites @ Test_bignum.suites @ Test_cube.suites
   @ Test_regex.suites @ Test_interp.suites @ Test_workloads.suites
   @ Test_backends.suites @ Test_lifetime.suites @ Test_report.suites
   @ Test_extensions.suites @ Test_integration.suites @ Test_properties.suites
   @ Test_analysis.suites @ Test_golden.suites @ Test_perf.suites
   @ Test_stream.suites @ Test_sharded.suites @ Test_audit.suites
   @ Test_tune.suites @ Test_oracle.suites @ Test_decode_errors.suites
   @ Test_audit_golden.suites)
