# Helper for the report_pipeline test: a traced cadet_sim run feeds
# cadet_report. The metrics snapshot must carry every tier's families,
# cadet_report --check must find the span trees well-formed and join the
# trace against the snapshot without disagreement (the edge-requests and
# cache-hits rows pin the offload ratio), and the folded profile and HTML
# report must materialize with the expected shape. Two same-seed runs must
# write the same sim-time folded profile. Fabricated broken traces must
# fail --check, each for its own rule.
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${TOOL_DIR}/cadet_sim --networks 2 --clients 4 --duration 120
          --seed 7 --metrics-out ${WORK_DIR}/m.txt
          --trace-out ${WORK_DIR}/t.jsonl
          --profile-out ${WORK_DIR}/p.folded
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cadet_sim failed: ${rc}")
endif()

file(READ ${WORK_DIR}/m.txt metrics)
foreach(needle
    "cadet_client_requests_sent_total"
    "cadet_edge_requests_received_total"
    "cadet_server_requests_served_total"
    "cadet_net_packets_total"
    "cadet_sim_events_total"
    "cadet_net_latency_seconds_bucket")
  string(FIND "${metrics}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "metrics snapshot missing ${needle}")
  endif()
endforeach()

# cadet_report must reproduce the metrics-side counters from the trace
# alone; --check turns any disagreement, and any broken span tree, into a
# non-zero exit.
execute_process(
  COMMAND ${TOOL_DIR}/cadet_report ${WORK_DIR}/t.jsonl
          --metrics ${WORK_DIR}/m.txt --check
          --html ${WORK_DIR}/report.html --out ${WORK_DIR}/report.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE report ERROR_VARIABLE report_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "cadet_report --check failed (${rc}):\n${report}${report_err}")
endif()

file(READ ${WORK_DIR}/report.txt text)
foreach(needle
    "events by tier"
    "request funnel"
    "fulfillment latency"
    "hit ratio"
    "entropy provenance"
    "all span trees well-formed"
    "trace vs metrics"
    "trace and metrics agree")
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "text report missing \"${needle}\":\n${text}")
  endif()
endforeach()

file(READ ${WORK_DIR}/report.html html)
string(FIND "${html}" "</html>" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "HTML report is truncated")
endif()

# The folded profile must carry nested testbed stacks with sim time.
file(READ ${WORK_DIR}/p.folded folded)
string(FIND "${folded}" "sim.run;" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "folded profile has no sim.run stacks:\n${folded}")
endif()

# Sim time, not wall time: a second run with the same seed and flags must
# write the same folded profile byte for byte.
execute_process(
  COMMAND ${TOOL_DIR}/cadet_sim --networks 2 --clients 4 --duration 120
          --seed 7 --metrics-out ${WORK_DIR}/m2.txt
          --trace-out ${WORK_DIR}/t2.jsonl
          --profile-out ${WORK_DIR}/p2.folded
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second cadet_sim run failed: ${rc}")
endif()
file(READ ${WORK_DIR}/p2.folded folded2)
if(NOT folded STREQUAL folded2)
  message(FATAL_ERROR
    "same-seed runs wrote different folded profiles:\n${folded}\n---\n"
    "${folded2}")
endif()

# Each fabricated trace breaks one rule; --check must reject it without
# --metrics, and name that rule on stderr.
function(expect_rejected name reason)
  execute_process(
    COMMAND ${TOOL_DIR}/cadet_report ${WORK_DIR}/${name} --check
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "cadet_report --check accepted ${name}")
  endif()
  string(FIND "${err}" "${reason}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${name} not rejected for \"${reason}\":\n${err}")
  endif()
endfunction()

file(WRITE ${WORK_DIR}/unclosed.jsonl
  "{\"ts\":1.000000,\"ev\":\"request\",\"tier\":\"client\",\"node\":1000,"
  "\"trace\":1,\"span\":1,\"ph\":\"B\"}\n")
expect_rejected(unclosed.jsonl "unclosed span")

file(WRITE ${WORK_DIR}/orphan.jsonl
  "{\"ts\":1.000000,\"ev\":\"request\",\"tier\":\"client\",\"node\":1000,"
  "\"trace\":1,\"span\":1,\"ph\":\"B\"}\n"
  "{\"ts\":1.001000,\"ev\":\"cache_hit\",\"tier\":\"edge\",\"node\":100,"
  "\"trace\":1,\"span\":2,\"parent\":9,\"ph\":\"X\"}\n"
  "{\"ts\":1.002000,\"ev\":\"reply\",\"tier\":\"client\",\"node\":1000,"
  "\"trace\":1,\"span\":1,\"ph\":\"E\"}\n")
expect_rejected(orphan.jsonl "orphan span record")

file(WRITE ${WORK_DIR}/stray_close.jsonl
  "{\"ts\":1.000000,\"ev\":\"reply\",\"tier\":\"client\",\"node\":1000,"
  "\"trace\":1,\"span\":1,\"ph\":\"E\"}\n")
expect_rejected(stray_close.jsonl "orphan span record")

file(WRITE ${WORK_DIR}/unordered.jsonl
  "{\"ts\":1.000000,\"ev\":\"request\",\"tier\":\"client\",\"node\":1000,"
  "\"shard\":0,\"seq\":5}\n"
  "{\"ts\":1.000000,\"ev\":\"request\",\"tier\":\"client\",\"node\":1001,"
  "\"shard\":1,\"seq\":4}\n")
expect_rejected(unordered.jsonl "order violation")

file(READ ${WORK_DIR}/t.jsonl head LIMIT 5000)
file(WRITE ${WORK_DIR}/torn.jsonl "${head}")
expect_rejected(torn.jsonl "malformed line")

# Interrupted run: --self-sigint raises SIGINT at a deterministic sim time
# mid-run. The tool must still flush every artifact (metrics snapshot,
# trace, folded profile, flight-recorder dump) and exit with the
# conventional 130.
execute_process(
  COMMAND ${TOOL_DIR}/cadet_sim --networks 2 --clients 4 --duration 120
          --seed 7 --self-sigint 30
          --metrics-out ${WORK_DIR}/int_m.txt
          --trace-out ${WORK_DIR}/int_t.jsonl
          --profile-out ${WORK_DIR}/int_p.folded
          --flight-out ${WORK_DIR}/int_f.jsonl
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 130)
  message(FATAL_ERROR
    "interrupted cadet_sim should exit 130, got: ${rc}")
endif()
foreach(artifact int_m.txt int_t.jsonl int_p.folded int_f.jsonl)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "interrupted run did not flush ${artifact}")
  endif()
endforeach()
# The partial metrics snapshot must still be a parseable exposition with
# tier counters, and the flight dump must be JSONL trace records.
file(READ ${WORK_DIR}/int_m.txt int_metrics)
string(FIND "${int_metrics}" "# TYPE" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "interrupted metrics snapshot is not an exposition:\n${int_metrics}")
endif()
file(READ ${WORK_DIR}/int_f.jsonl int_flight)
string(FIND "${int_flight}" "\"ev\":" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
    "interrupted flight dump carries no trace records:\n${int_flight}")
endif()
# The truncated trace must still parse end-to-end (no torn final line).
# Not --check: the stop legitimately leaves requests in flight, so their
# spans are still open.
execute_process(
  COMMAND ${TOOL_DIR}/cadet_report ${WORK_DIR}/int_t.jsonl
          --out ${WORK_DIR}/int_report.txt
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cadet_report failed on the interrupted trace: ${rc}")
endif()
file(READ ${WORK_DIR}/int_report.txt int_report)
string(FIND "${int_report}" "malformed" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "interrupted trace has a torn line:\n${int_report}")
endif()
