# Chains cadet_sim --adversary-mix into cadet_report --check --adversary:
# the hostile trace must yield a policed-attacker section that passes the
# defense checks, and an all-honest trace must FAIL the same checks (the
# negative leg — a report that cannot tell the two apart is useless). The
# sharded leg runs the flooder and bad-uploader mix on ScaleWorld through
# the same report, with its metrics joined.
# Invoked by the cli_cadet_report_adversary test with -DSIM=<binary>,
# -DREPORT=<binary> and -DOUT=<scratch dir>.
execute_process(
  COMMAND ${SIM} --duration 30 --adversary-mix free-riders --seed 11
          --trace-out ${OUT}/adv_trace.jsonl
  RESULT_VARIABLE r1 OUTPUT_QUIET)
if(NOT r1 EQUAL 0)
  message(FATAL_ERROR "cadet_sim adversary run failed (${r1})")
endif()
execute_process(
  COMMAND ${REPORT} ${OUT}/adv_trace.jsonl --check --adversary
          --out ${OUT}/adv_report.txt
  RESULT_VARIABLE r2)
if(NOT r2 EQUAL 0)
  message(FATAL_ERROR "--check --adversary failed on a hostile trace (${r2})")
endif()
execute_process(
  COMMAND ${SIM} --duration 30 --networks 1 --clients 4 --seed 11
          --trace-out ${OUT}/honest_trace.jsonl
  RESULT_VARIABLE r3 OUTPUT_QUIET)
if(NOT r3 EQUAL 0)
  message(FATAL_ERROR "cadet_sim honest run failed (${r3})")
endif()
execute_process(
  COMMAND ${REPORT} ${OUT}/honest_trace.jsonl --check --adversary
          --out ${OUT}/honest_report.txt
  RESULT_VARIABLE r4 ERROR_VARIABLE honest_err)
if(r4 EQUAL 0)
  message(FATAL_ERROR "--check --adversary passed on an all-honest trace")
endif()
# It must fail for the adversary reason, not for a broken trace.
string(FIND "${honest_err}" "no policing events in trace" pos)
if(pos EQUAL -1 OR honest_err MATCHES "--check:")
  message(FATAL_ERROR
    "the honest trace failed for the wrong reason:\n${honest_err}")
endif()
execute_process(
  COMMAND ${SIM} --scale --clients 8000 --duration 6 --seed 11 --shards 2
          --scale-flooders 0.01 --scale-bad 0.2
          --trace-out ${OUT}/adv_scale_trace.jsonl
          --metrics-out ${OUT}/adv_scale_metrics.txt
  RESULT_VARIABLE r5 OUTPUT_QUIET)
if(NOT r5 EQUAL 0)
  message(FATAL_ERROR "cadet_sim --scale adversary run failed (${r5})")
endif()
execute_process(
  COMMAND ${REPORT} ${OUT}/adv_scale_trace.jsonl
          --metrics ${OUT}/adv_scale_metrics.txt --check --adversary
          --out ${OUT}/adv_scale_report.txt
  RESULT_VARIABLE r6)
if(NOT r6 EQUAL 0)
  message(FATAL_ERROR
    "--check --adversary failed on a hostile scale trace (${r6})")
endif()
