# ctest helper: runs `BIN --demo DIR`, then BIN on the demo's text edge
# list and on its binary snapshot with the demo's Sybil ids, and passes
# iff all three exit 0 and the two analyses print the same stdout.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" --demo "${DIR}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --demo exited with ${rc}")
endif()
foreach(kind txt snap)
  execute_process(
    COMMAND "${BIN}" "${DIR}/demo_edges.${kind}" "${DIR}/demo_sybils.txt"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out_${kind})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} on demo_edges.${kind} exited with ${rc}")
  endif()
endforeach()
message("${out_txt}")
if(out_txt STREQUAL "" OR NOT out_txt STREQUAL out_snap)
  message(FATAL_ERROR "text and snapshot analyses differ:\n${out_snap}")
endif()
