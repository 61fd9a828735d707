# ctest helper: runs BIN with the space-separated ARGS twice, on a fresh
# state root DIR/clean and on a fresh root DIR/stray whose single shard
# already holds a checkpoint and a WAL segment named past 2^64 - 1. Both
# runs must exit 0 with the same stdout: such names are skipped, not
# parsed into an uncaught out-of-range error.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${DIR}")
set(shard "${DIR}/stray/n1/shard-0000")
file(WRITE "${shard}/ckpt/ckpt-99999999999999999999.sybs" "")
file(WRITE "${shard}/wal/wal-99999999999999999999.seg" "")
foreach(root clean stray)
  execute_process(COMMAND "${BIN}" ${args} --dir "${DIR}/${root}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out_${root} ERROR_VARIABLE err)
  message("${out_${root}}${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run on the ${root} root exited with ${rc}")
  endif()
endforeach()
if(NOT out_clean STREQUAL out_stray)
  message(FATAL_ERROR "stray names changed the run's output")
endif()
if(NOT EXISTS "${shard}/ckpt/ckpt-99999999999999999999.sybs" OR
   NOT EXISTS "${shard}/wal/wal-99999999999999999999.seg")
  message(FATAL_ERROR "a stray name was removed")
endif()
