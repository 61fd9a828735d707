# ctest helper: runs BIN with the space-separated ARGS and passes iff it
# exits 0 AND its stdout matches EXPECT (a PASS_REGULAR_EXPRESSION alone
# would ignore the exit status). FRESH_DIR, when set, is deleted first,
# so state left by an earlier build never reaches the run.
if(DEFINED FRESH_DIR)
  file(REMOVE_RECURSE "${FRESH_DIR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "stdout lacks \"${EXPECT}\"")
endif()
