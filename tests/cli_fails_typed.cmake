# ctest helper: runs BIN with the space-separated ARGS and passes iff it
# exits 2 with exactly one stderr line "<PREFIX>: <what>" (PREFIX
# defaults to sybil_service). An uncaught exception aborts instead: exit
# 134, no such line. FILE, when set, is first written as a regular file
# holding CONTENT (empty when unset), so ARGS can name it or a state
# root beneath it. MATCH, when set, is a regex that line must also
# match.
if(NOT DEFINED PREFIX)
  set(PREFIX sybil_service)
endif()
if(DEFINED FILE)
  file(WRITE "${FILE}" "${CONTENT}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} exited with ${rc}, expected 2")
endif()
if(NOT err MATCHES "^${PREFIX}: [^\n]+\n$")
  message(FATAL_ERROR "stderr is not one \"${PREFIX}: ...\" line")
endif()
if(DEFINED MATCH AND NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr line does not match \"${MATCH}\"")
endif()
