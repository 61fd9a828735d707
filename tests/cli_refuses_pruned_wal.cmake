# ctest helper: runs BIN with the space-separated ARGS on a fresh state
# root DIR (must exit 0), deletes the single shard's checkpoint
# directory, then reruns on the same root. Passes iff the rerun exits 2
# with one typed line saying the WAL no longer reaches its replay start.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BIN}" ${args} --dir "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "first run exited with ${rc}: ${err}")
endif()
file(REMOVE_RECURSE "${DIR}/n1/shard-0000/ckpt")
execute_process(COMMAND "${BIN}" ${args} --dir "${DIR}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rerun exited with ${rc}, expected 2")
endif()
if(NOT err MATCHES
    "^sybil_service: snapshot \\[truncated\\]: WAL .* does not reach its replay start 0 ")
  message(FATAL_ERROR "stderr lacks the typed refusal")
endif()
