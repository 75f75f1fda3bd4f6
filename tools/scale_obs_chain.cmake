# Chains the sharded observability exports end to end: the same seeded
# cadet_sim --scale run at -j 1 and -j 4 must write byte-identical metrics
# and trace files, and cadet_report --check must verify the merged
# {ts, seq, shard} order and the span trees of the folded stream and
# reproduce every join row's counter family from the trace alone.
# Invoked by the cli_cadet_scale_obs test with -DSIM=<binary>,
# -DREPORT=<binary> and -DOUT=<scratch dir>.
set(RUN_FLAGS --scale --clients 20000 --duration 3 --seed 77
    --fault-drop 0.02 --scale-flooders 0.005 --scale-bad 0.1)
execute_process(
  COMMAND ${SIM} ${RUN_FLAGS} --shards 1
          --metrics-out ${OUT}/scale_m1.txt --trace-out ${OUT}/scale_t1.jsonl
  RESULT_VARIABLE r1 OUTPUT_QUIET)
if(NOT r1 EQUAL 0)
  message(FATAL_ERROR "cadet_sim --scale --shards 1 failed (${r1})")
endif()
execute_process(
  COMMAND ${SIM} ${RUN_FLAGS} --shards 4
          --metrics-out ${OUT}/scale_m4.txt --trace-out ${OUT}/scale_t4.jsonl
  RESULT_VARIABLE r2 OUTPUT_QUIET)
if(NOT r2 EQUAL 0)
  message(FATAL_ERROR "cadet_sim --scale --shards 4 failed (${r2})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/scale_m1.txt ${OUT}/scale_m4.txt
  RESULT_VARIABLE same_metrics)
if(NOT same_metrics EQUAL 0)
  message(FATAL_ERROR "scale metrics differ between -j 1 and -j 4")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/scale_t1.jsonl ${OUT}/scale_t4.jsonl
  RESULT_VARIABLE same_trace)
if(NOT same_trace EQUAL 0)
  message(FATAL_ERROR "scale traces differ between -j 1 and -j 4")
endif()
execute_process(
  COMMAND ${REPORT} ${OUT}/scale_t4.jsonl --metrics ${OUT}/scale_m4.txt
          --check --out ${OUT}/scale_report.txt
  RESULT_VARIABLE r3)
if(NOT r3 EQUAL 0)
  message(FATAL_ERROR "cadet_report --check failed on the scale trace (${r3})")
endif()
# Exit 0 must come from checks that ran: the folded stream is shard-tagged
# and carries span trees.
file(READ ${OUT}/scale_report.txt report)
if(NOT report MATCHES "traces [1-9]")
  message(FATAL_ERROR "scale trace carries no span trees:\n${report}")
endif()
foreach(verdict
    "merged {ts, seq, shard} order verified"
    "all span trees well-formed"
    "trace and metrics agree")
  string(FIND "${report}" "${verdict}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "scale report lacks \"${verdict}\":\n${report}")
  endif()
endforeach()
